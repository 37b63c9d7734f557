// perfbench: the repository's benchmark. One command runs one seeded
// workload in a closed loop with one caller and prints every metric by name
// with its unit; the last line of stdout is the JSON result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--record-dir DIR] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// the same passes untraced and then traced, reports the per-layer metrics,
// each layer's self time and the tracing overhead, and writes the spans to
// --trace-out as trace-event JSON. With --record-dir the deterministic
// results of a seed are kept there and every later invocation with that
// seed must reproduce them exactly.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/probe.h"
#include "perfbench/stats.h"
#include "perfbench/workloads.h"
#include "src/support/str.h"

namespace perfbench {
namespace {

using redfat::StrFormat;

// Set-up repeats until it has run kSetupMinReps times and for
// kSetupMinSeconds, so that a set-up of milliseconds is still measured over
// many repetitions; kSetupMaxReps bounds the count.
constexpr size_t kSetupMinReps = 5;
constexpr double kSetupMinSeconds = 2.0;
constexpr size_t kSetupMaxReps = 200;
// The miss tail is read off the fastest this many passes (or every pass, if
// there are fewer). A fixed count keeps the tail on the same percentile
// whatever the pass rate: with at least 14 served images per pass it stays
// at p90 from 7 passes up.
constexpr size_t kTailPasses = 20;

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string record_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else if (key == "--record-dir") {
      a->record_dir = v;
    } else if (key == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // samples and bases, printed next to the value
};

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

std::string ResultJson(bool correct, const OpTally& tally, const std::vector<Metric>& metrics) {
  std::string json = StrFormat("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                               "\"metrics\": {",
                               correct ? "true" : "false",
                               static_cast<unsigned long long>(tally.attempted()),
                               static_cast<unsigned long long>(tally.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                      metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  return json + "}}";
}

// Results that must repeat exactly for a seed: guest counts, the cycle
// ratios and the operation accounting. Every pass of a run must match the
// first, and the first must match what an earlier invocation recorded.
using Deterministic = std::map<std::string, std::string>;

Deterministic DeterministicOf(const Workload& w, const PassResult& setup_runs,
                              const PassResult& pass) {
  const PassResult& runs = w.programs_in_setup ? setup_runs : pass;
  Deterministic d;
  d["run.guest_instructions"] = std::to_string(runs.guest_instructions);
  d["run.guest_cycles"] = std::to_string(runs.guest_cycles);
  for (size_t i = 0; i < runs.overheads.size(); ++i) {
    d[StrFormat("run.overhead.%zu", i)] = StrFormat("%.17g", runs.overheads[i]);
  }
  for (size_t i = 0; i < runs.coverage.size(); ++i) {
    d[StrFormat("run.coverage.%zu", i)] = StrFormat("%.17g", runs.coverage[i]);
  }
  d["pass.guest_instructions"] = std::to_string(pass.guest_instructions);
  d["pass.guest_cycles"] = std::to_string(pass.guest_cycles);
  d["pass.attempted"] = std::to_string(pass.tally.attempted());
  d["pass.failed"] = std::to_string(pass.tally.failed());
  d["image.in_bytes"] = StrFormat("%.17g", w.in_bytes + pass.case_in_bytes);
  d["image.out_bytes"] = StrFormat("%.17g", w.out_bytes + pass.case_out_bytes);
  return d;
}

// Compares `d` with the record of an earlier invocation of the same
// workload and seed, or writes the record if there is none. Returns false
// on any difference.
bool CheckRecord(const std::string& dir, const Args& args, const Deterministic& d) {
  const std::string path = StrFormat("%s/%s-%llu.txt", dir.c_str(), args.workload.c_str(),
                                     static_cast<unsigned long long>(args.seed));
  std::ifstream in(path);
  if (!in) {
    std::ofstream out(path);
    for (const auto& [k, v] : d) {
      out << k << ' ' << v << '\n';
    }
    return static_cast<bool>(out);
  }
  Deterministic recorded;
  std::string k;
  std::string v;
  while (in >> k >> v) {
    recorded[k] = v;
  }
  if (recorded != d) {
    for (const auto& [key, value] : d) {
      auto it = recorded.find(key);
      if (it == recorded.end() || it->second != value) {
        std::printf("determinism: %s = %s, recorded %s\n", key.c_str(), value.c_str(),
                    it == recorded.end() ? "(absent)" : it->second.c_str());
      }
    }
    return false;
  }
  return true;
}

// Peak resident set of this process image, VmHWM in /proc/self/status.
// Not ru_maxrss: that survives exec, so under run.py it would report the
// Python parent's footprint at fork whenever that is the larger.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  return 0.0;
}

PassResult TimedPass(const Workload& w, Probe& probe, size_t turn) {
  const double t0 = NowS();
  PassResult r = RunPass(w, probe, turn);
  r.wall_ms = (NowS() - t0) * 1000.0;
  return r;
}

// Every pass must reproduce the first one's guest counts and accounting.
void CheckPassesRepeat(const Workload& w, const PassResult& setup_runs,
                       const std::vector<PassResult>& passes, OpTally* tally) {
  const Deterministic first = DeterministicOf(w, setup_runs, passes.front());
  for (size_t i = 1; i < passes.size(); ++i) {
    tally->Record(DeterministicOf(w, setup_runs, passes[i]) == first);
  }
}

// The end-to-end metrics of an untraced run. The cycle ratios come from the
// set-up repetitions on kraken_serve, from the passes elsewhere.
//
// Every pass does the same work, and on a shared host interference from
// other tenants only ever slows work down — by up to a third, for seconds at
// a time. So throughputs divide one pass's work by the sum of each item's
// fastest time over all passes (a program's run, a miss, a case). Medians
// of latency are taken over every pass: for µs-scale hits, picking fast
// passes picks noise, and the median of all samples held steadier from run
// to run. The miss tail is taken over the kTailPasses fastest passes.
std::vector<Metric> EndToEnd(const Workload& w, const std::vector<double>& setup_s,
                             const std::vector<PassResult>& setup_runs,
                             const std::vector<PassResult>& passes, const OpTally& tally) {
  const std::vector<PassResult>& runs = w.programs_in_setup ? setup_runs : passes;
  const PassResult& first = passes.front();
  std::vector<const PassResult*> by_wall;
  std::vector<std::vector<double>> hard_ms;
  std::vector<std::vector<double>> miss_ms;
  std::vector<std::vector<double>> case_ms;
  std::vector<double> hit_ms;
  std::vector<double> retier_ms;
  for (const PassResult& p : passes) {
    by_wall.push_back(&p);
    hard_ms.push_back(p.hard_ms);
    miss_ms.push_back(p.rewrite_ms);
    case_ms.push_back(p.case_ms);
    hit_ms.insert(hit_ms.end(), p.hit_ms.begin(), p.hit_ms.end());
    retier_ms.insert(retier_ms.end(), p.retier_ms.begin(), p.retier_ms.end());
  }
  std::sort(by_wall.begin(), by_wall.end(),
            [](const PassResult* a, const PassResult* b) { return a->wall_ms < b->wall_ms; });
  const size_t quiet = std::min(kTailPasses, by_wall.size());
  std::vector<double> tail_ms;
  for (size_t i = 0; i < quiet; ++i) {
    tail_ms.insert(tail_ms.end(), by_wall[i]->rewrite_ms.begin(), by_wall[i]->rewrite_ms.end());
  }
  const Tail tail = TailLatency(tail_ms);
  const size_t n = passes.size();
  auto fastest = [](size_t items, const char* what, size_t reps, const char* of) {
    return StrFormat("%zu %s, each at its fastest of %zu %s", items, what, reps, of);
  };
  return {
      {"setup_s", Median(setup_s), "s", StrFormat("median of %zu set-ups", setup_s.size())},
      {"guest_overhead", redfat::Geomean(runs.front().overheads), "x",
       StrFormat("geomean of %zu programs", runs.front().overheads.size())},
      {"coverage_pct", 100.0 * Mean(runs.front().coverage), "%",
       StrFormat("mean of %zu programs", runs.front().coverage.size())},
      {"run_mips", first.hard_instructions / (SumOfItemMins(hard_ms) * 1000.0), "insn/us",
       fastest(first.hard_ms.size(),
               w.programs_in_setup ? "hardened case runs (attack + benign)" : "hardened runs", n,
               "passes")},
      {"rewrite_mib_s", first.rewrite_bytes / (1 << 20) / (SumOfItemMins(miss_ms) / 1000.0),
       "MiB/s", fastest(first.rewrite_ms.size(), "misses", n, "passes")},
      {"rewrite_ms_tail", tail.value, "ms",
       StrFormat("p%g of %zu misses, %zu beyond, in the fastest %zu of %zu passes",
                 tail.percentile, tail.samples, tail.beyond, quiet, n)},
      {"hit_ms_p50", Median(hit_ms), "ms",
       StrFormat("p50 of %zu hits over %zu passes", hit_ms.size(), n)},
      {"retier_ms_p50", Median(retier_ms), "ms",
       StrFormat("p50 of %zu re-tiers over %zu passes", retier_ms.size(), n)},
      {"image_ratio", (w.out_bytes + first.case_out_bytes) / (w.in_bytes + first.case_in_bytes),
       "x", StrFormat("%.0f / %.0f bytes", w.out_bytes + first.case_out_bytes,
                      w.in_bytes + first.case_in_bytes)},
      {"detect_cases_per_s", static_cast<double>(first.cases) / (SumOfItemMins(case_ms) / 1000.0),
       "1/s", fastest(first.case_ms.size(), "cases", n, "passes")},
      {"pass_pct", tally.PassPct(), "%",
       StrFormat("fail_pct %g = %llu failed / %llu attempted", tally.FailPct(),
                 static_cast<unsigned long long>(tally.failed()),
                 static_cast<unsigned long long>(tally.attempted()))},
      {"peak_rss_mib", PeakRssMib(), "MiB", "VmHWM of this process"},
  };
}

// The per-layer metrics of a traced run, for one unit of the workload: one
// set-up plus one timed pass (the mean of the traced passes). Ratios carry
// their bases.
std::vector<Metric> PerLayer(const std::map<std::string, double>& setup_counts,
                             const std::map<std::string, double>& pass_counts,
                             size_t traced_passes, const std::array<double, kNumLayers>& self_us,
                             double overhead_pct) {
  const double k = static_cast<double>(traced_passes);
  auto total = [&](const std::string& name) {
    auto s = setup_counts.find(name);
    auto p = pass_counts.find(name);
    return (s == setup_counts.end() ? 0.0 : s->second) +
           (p == pass_counts.end() ? 0.0 : p->second / k);
  };
  auto ratio = [&](const std::string& part, const std::string& base) {
    return Ratio{total(part), total(base)};
  };
  std::vector<Metric> m;
  auto count = [&](const std::string& name, const char* unit = "count") {
    m.push_back({name, total(name), unit, ""});
  };
  auto share = [&](const std::string& name, const Ratio& r, const char* unit = "ratio") {
    const double scale = std::strcmp(unit, "%") == 0 ? 100.0 : 1.0;
    m.push_back({name, scale * r.value(), unit, StrFormat("%.6g / %.6g", r.part, r.base)});
  };

  // vm
  count("run.ms", "ms");
  count("run.calls");
  share("run.ms_per_call", ratio("run.ms", "run.calls"), "ms");
  count("vm.instructions");
  count("vm.cycles");
  count("vm.blocks_built");
  count("vm.code_cache_evictions");
  share("vm.evict_ratio", ratio("vm.code_cache_evictions", "vm.blocks_built"));
  count("vm.block_chains");
  count("vm.chain_exits");
  count("vm.trace_runs");
  share("vm.tlb_hit_ratio", ratio("vm.tlb_hits", "vm.tlb_probes"));
  count("vm.tlb_probes");
  // core / codegen / plan
  {
    const Ratio checks{total("vm.trampoline_cycles") + total("vm.inline_check_cycles"),
                       total("vm.hardened_cycles")};
    share("vm.check_cycles_share", checks, "%");
  }
  count("vm.hardened_cycles");
  count("plan.checks_emitted");
  count("plan.trampolines");
  // heap
  count("heap.allocs");
  count("heap.frees");
  {
    const Ratio alloc{total("lowfat.malloc_cycles") + total("lowfat.free_cycles"),
                      total("vm.hardened_cycles")};
    share("heap.alloc_cycles_share", alloc, "%");
  }
  count("lowfat.freelist_pops");
  count("lowfat.arena_carves");
  count("heap.guard_cycles");
  // rw + core/pipeline
  count("instrument.ms", "ms");
  count("instrument.calls");
  for (const char* pass : {"disasm", "cfg", "classify", "eliminate", "group", "batch", "merge",
                           "tier", "liveness", "codegen", "patch"}) {
    count(StrFormat("pipeline.%s.ms", pass), "ms");
  }
  for (const char* pass : {"eliminate", "batch", "merge"}) {
    count(StrFormat("pipeline.%s.items", pass));
    count(StrFormat("pipeline.%s.changed", pass));
  }
  count("rewrite.trampoline_bytes", "B");
  // serve
  count("serve.rewrite.ms", "ms");
  count("serve.upload.ms", "ms");
  share("serve.hit_ratio", ratio("serve.hits", "serve.rewrite.calls"));
  count("serve.rewrite.calls");
  share("serve.incremental_ratio", ratio("serve.incremental", "serve.upload.calls"));
  count("serve.upload.calls");
  count("serve.cache_bytes", "B");
  // set-up
  count("workloads.gen.ms", "ms");
  count("profile.ms", "ms");
  for (size_t i = 0; i < kNumLayers; ++i) {
    m.push_back({StrFormat("self.%s.ms", LayerName(static_cast<Layer>(i))), self_us[i] / 1000.0,
                 "ms", ""});
  }
  m.push_back({"trace.overhead_pct", overhead_pct, "%", "traced vs untraced wall time"});
  return m;
}

void PrintSelfTimes(const char* title, const std::array<double, kNumLayers>& self_us) {
  double total = 0.0;
  for (double us : self_us) {
    total += us;
  }
  std::printf("\n%s\n", title);
  for (size_t i = 0; i < kNumLayers; ++i) {
    std::printf("  %-10s %12.3f ms %6.1f%%\n", LayerName(static_cast<Layer>(i)),
                self_us[i] / 1000.0, total > 0 ? 100.0 * self_us[i] / total : 0.0);
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--record-dir DIR] [--trace-out FILE]\n");
    return 2;
  }
  OpTally tally;
  Probe probe(false);
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  std::vector<PassResult> setup_runs;
  std::map<std::string, double> setup_counts;
  std::array<double, kNumLayers> setup_self_us{};

  // Set-up: repeated for a steady setup_s untraced, once under tracing.
  probe.set_tracing(args.trace);
  const double setup_start = NowS();
  while (setup_s.empty() ||
         (!args.trace && setup_s.size() < kSetupMaxReps &&
          (setup_s.size() < kSetupMinReps || NowS() - setup_start < kSetupMinSeconds))) {
    setup_runs.emplace_back();
    const double t0 = NowS();
    w = SetUp(args.workload, args.seed, probe, &setup_runs.back());
    setup_s.push_back(NowS() - t0);
    if (w == nullptr) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    tally.Add(setup_runs.back().tally);
  }
  if (args.trace) {
    setup_counts = probe.counts();
    setup_self_us = probe.SelfTimeUs(0);
    probe.ResetCounts();
    probe.set_tracing(false);
  }
  std::printf("perfbench %s seed %llu: %zu programs, %zu served images, %zu cases\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed),
              w->programs.size(), w->serve.size(), w->cases.size());

  // Timed passes: whole passes until the time is up. Under --trace 1 they
  // come in untraced/traced pairs, alternating which runs first.
  std::vector<PassResult> passes;
  std::vector<PassResult> traced;
  const size_t first_span = probe.spans().size();
  const double start = NowS();
  do {
    if (!args.trace) {
      passes.push_back(TimedPass(*w, probe, passes.size()));
      continue;
    }
    const bool traced_first = passes.size() % 2 == 1;
    probe.set_tracing(traced_first);
    PassResult a = TimedPass(*w, probe, passes.size());
    probe.set_tracing(!traced_first);
    PassResult b = TimedPass(*w, probe, passes.size());
    probe.set_tracing(false);
    passes.push_back(std::move(traced_first ? b : a));
    traced.push_back(std::move(traced_first ? a : b));
  } while (NowS() - start < args.seconds);

  for (const PassResult& p : passes) {
    tally.Add(p.tally);
  }
  CheckPassesRepeat(*w, setup_runs.front(), passes, &tally);
  for (size_t i = 1; i < setup_runs.size(); ++i) {
    tally.Record(setup_runs[i].guest_cycles == setup_runs[0].guest_cycles);
  }
  if (!args.record_dir.empty()) {
    tally.Record(CheckRecord(args.record_dir, args,
                             DeterministicOf(*w, setup_runs.front(), passes.front())));
  }

  std::vector<double> pass_ms;
  for (const PassResult& p : passes) {
    pass_ms.push_back(p.wall_ms);
  }
  std::printf("%zu timed passes, wall ms: median %.1f, min %.1f, max %.1f\n", passes.size(),
              Median(pass_ms), *std::min_element(pass_ms.begin(), pass_ms.end()),
              *std::max_element(pass_ms.begin(), pass_ms.end()));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEnd(*w, setup_s, setup_runs, passes, tally);
    PrintTable("end-to-end metrics (tracing off)", metrics);
  } else {
    double untraced_ms = 0.0;
    double traced_ms = 0.0;
    for (size_t i = 0; i < traced.size(); ++i) {
      tally.Add(traced[i].tally);
      // The observability-off contract: tracing never changes guest cycles.
      tally.Record(traced[i].guest_cycles == passes[i].guest_cycles &&
                   traced[i].guest_instructions == passes[i].guest_instructions);
      untraced_ms += passes[i].wall_ms;
      traced_ms += traced[i].wall_ms;
    }
    const double overhead_pct = 100.0 * (traced_ms - untraced_ms) / untraced_ms;
    const double k = static_cast<double>(traced.size());
    std::array<double, kNumLayers> pass_self_us = probe.SelfTimeUs(first_span);
    std::array<double, kNumLayers> self_us{};
    for (size_t i = 0; i < kNumLayers; ++i) {
      pass_self_us[i] /= k;
      self_us[i] = setup_self_us[i] + pass_self_us[i];
    }
    metrics = PerLayer(setup_counts, probe.counts(), traced.size(), self_us, overhead_pct);
    PrintTable("per-layer metrics (traced run; one set-up plus one pass)", metrics);
    PrintSelfTimes("self time by layer, set-up", setup_self_us);
    PrintSelfTimes("self time by layer, per pass", pass_self_us);
    std::printf("\ntracing overhead: %.2f%% over %zu pass pairs (%.1f ms untraced, %.1f ms "
                "traced)\n",
                overhead_pct, traced.size(), untraced_ms, traced_ms);

    redfat::Result<std::string> json = probe.WriteTrace();
    tally.Record(json.ok());
    if (!json.ok()) {
      std::printf("trace: %s\n", json.error().c_str());
    } else if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << json.value();
      tally.Record(static_cast<bool>(out));
      std::printf("trace: %zu spans, %zu bytes -> %s\n", probe.spans().size(),
                  json.value().size(), args.trace_out.c_str());
    }
  }
  // A failed check fails the run: the result is still printed, for the
  // record, but the exit code is 1.
  const bool correct = tally.failed() == 0;
  std::printf("%s\n", ResultJson(correct, tally, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
