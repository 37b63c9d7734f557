#include "perfbench/workloads.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>

#include "src/serve/service.h"
#include "src/support/rng.h"
#include "src/workloads/cve.h"
#include "src/workloads/kraken.h"
#include "src/workloads/spec.h"
#include "src/workloads/synth.h"

namespace perfbench {

using namespace redfat;

namespace {

// The benign churn runs of heap_detect: kChurnPrograms programs, each from
// its own generator seed and run for kChurnOps operations (200,000 in all);
// and the shorter runs its profile and bug cases use. Every program is timed
// on its own and taken at its fastest across the passes, as the cases are.
// On a shared host VM dispatch runs up to 1.7 times slower for spells of
// about a second. One long run would be a single item, and whether a 36 s
// run happened to catch it in a fast spell would set run_mips; many short
// runs each find one.
constexpr size_t kChurnPrograms = 16;
constexpr uint64_t kChurnOps = 12'500;
constexpr uint64_t kChurnProfileOps = 2'000;
constexpr uint64_t kChurnCaseOps = 300;
// The legs a workload is not for. spec_ref serves only its first
// kSpecServed programs; spec_ref and kraken_serve detect only the first
// kFillerCases Table 2 cases (the 4 CVE models, then CWE-122 cases), enough
// tiny cases that the sum of their fastest times holds steady (with 8 it
// spread 0.16 from run to run); heap_detect serves its churn programs and
// the uaf image. Every workload serves 14 to 17 images: their sizes differ
// widely on spec_ref, and with that many the p90 of the misses falls inside
// one image's misses rather than between two (see README.md).
constexpr size_t kSpecServed = 15;
constexpr size_t kFillerCases = 32;

uint64_t MixSeed(uint64_t base, uint64_t seed) {
  return Rng(base ^ (seed * 0x9e3779b97f4a7c15ULL)).Next();
}

ResolvedPolicy Resolve(const HardeningPolicy& policy) {
  Result<ResolvedPolicy> r = policy.Resolve();
  REDFAT_CHECK(r.ok());
  return std::move(r).value();
}

RunConfig HardenedConfig(const ResolvedPolicy& policy, std::vector<uint64_t> inputs,
                         Policy on_error) {
  RunConfig cfg;
  cfg.inputs = std::move(inputs);
  cfg.policy = on_error;
  cfg.rheap = policy.rheap;
  return cfg;
}

void AddProgram(Workload& w, Probe& probe, const std::string& name, BinaryImage img,
                const AllowList* allow, RunConfig config) {
  Program p;
  p.name = name;
  p.hard = probe.Instrument(img, w.policy.rewrite, allow).value;
  w.in_bytes += static_cast<double>(img.TotalBytes());
  w.out_bytes += static_cast<double>(p.hard.image.TotalBytes());
  p.base = std::move(img);
  p.config = std::move(config);
  w.programs.push_back(std::move(p));
}

// Builds the serve leg's request for `img` and its two offline references:
// the untiered rewrite, and the rewrite tiered by a profile of the
// untiered image run on `profile_inputs`.
void AddServeItem(Workload& w, Probe& probe, const std::string& name, const BinaryImage& img,
                  std::vector<uint64_t> profile_inputs) {
  ServeItem item;
  item.name = name;
  item.wire = img.Serialize();
  item.input_bytes = img.TotalBytes();
  const InstrumentResult ref = probe.Instrument(img, w.policy.rewrite).value;
  item.profile_json = probe.ProfileSnapshot(
      ref.image, w.policy.runtime,
      HardenedConfig(w.policy, std::move(profile_inputs), Policy::kLog));
  Result<TierProfile> profile = TierProfileFromSnapshotJson(item.profile_json);
  REDFAT_CHECK(profile.ok());
  RedFatOptions tiered = w.policy.rewrite;
  tiered.tier_profile = &profile.value();
  const InstrumentResult ref_tiered = probe.Instrument(img, tiered).value;
  item.ref = ref.image.Serialize();
  item.ref_tiered = ref_tiered.image.Serialize();
  w.in_bytes += 2.0 * static_cast<double>(img.TotalBytes());
  w.out_bytes += static_cast<double>(ref.image.TotalBytes() + ref_tiered.image.TotalBytes());
  w.serve.push_back(std::move(item));
}

// The Table 2 detection set: the four CVE models and the 480 CWE-122
// cases, every one an out-of-bounds access; only the first `limit` of them.
void AddTable2Cases(Workload& w, Probe& probe, size_t limit) {
  probe.BeginOp("table2");
  std::vector<VulnCase> cases;
  probe.Generate([&cases] {
    cases = CveCases();
    std::vector<VulnCase> juliet = JulietCwe122Cases();
    cases.insert(cases.end(), std::make_move_iterator(juliet.begin()),
                 std::make_move_iterator(juliet.end()));
  });
  cases.resize(std::min(cases.size(), limit));
  for (VulnCase& vc : cases) {
    w.cases.push_back(Case{vc.name, std::move(vc.image), std::move(vc.attack_inputs),
                           std::move(vc.benign_inputs), ErrorKind::kBounds});
  }
  probe.EndOp();
}

// Table 1: the 29 SPEC programs, profiled on train inputs and hardened with
// the allow-list; the timed part runs them on ref inputs.
void SetUpSpec(Workload& w, uint64_t seed, Probe& probe) {
  w.policy = Resolve(HardeningPolicy{});
  for (const SpecBenchmark& bench : SpecSuite()) {
    probe.BeginOp(bench.name);
    SpecBenchmark b = bench;
    b.params.seed = MixSeed(b.params.seed, seed);
    BinaryImage img;
    probe.Generate([&] { img = BuildSpecBenchmark(b); });
    const AllowList allow = probe.Profile(img, TrainInputs(b.train_iters));
    if (w.serve.size() < kSpecServed) {
      AddServeItem(w, probe, b.name, img, TrainInputs(b.train_iters));
    }
    // Latent real bugs (calculix, wrf) log and continue, as in Table 1.
    AddProgram(w, probe, b.name, std::move(img), &allow,
               HardenedConfig(w.policy, RefInputs(b.ref_iters), Policy::kLog));
    probe.EndOp();
  }
  AddTable2Cases(w, probe, kFillerCases);
}

// Fig. 8: the 14 large Kraken images with write-only checks.
void SetUpKraken(Workload& w, uint64_t seed, Probe& probe) {
  HardeningPolicy policy;
  policy.check_reads = false;
  w.policy = Resolve(policy);
  w.programs_in_setup = true;
  for (const KrakenBenchmark& bench : KrakenSuite()) {
    probe.BeginOp(bench.name);
    KrakenBenchmark b = bench;
    b.params.seed = MixSeed(b.params.seed, seed);
    BinaryImage img;
    probe.Generate([&] { img = BuildKrakenBenchmark(b); });
    AddServeItem(w, probe, b.name, img, TrainInputs(b.iters / 4));
    AddProgram(w, probe, b.name, std::move(img), nullptr,
               HardenedConfig(w.policy, RefInputs(b.iters), Policy::kHarden));
    probe.EndOp();
  }
  AddTable2Cases(w, probe, kFillerCases);
}

// Table 2 and the allocator's own detections, around benign churn runs on
// the extensive tier's prot-freelist heap.
void SetUpHeap(Workload& w, uint64_t seed, Probe& probe) {
  w.policy = Resolve(HardeningPolicy{});
  BinaryImage churn;
  for (size_t i = 0; i < kChurnPrograms; ++i) {
    const std::string name = "churn-" + std::to_string(i);
    probe.BeginOp(name);
    ChurnParams cp;
    cp.seed = MixSeed(cp.seed + i, seed);
    BinaryImage img;
    probe.Generate([&] { img = GenerateChurnProgram(cp); });
    AddServeItem(w, probe, name, img, {kChurnProfileOps, 0});
    if (i == 0) {
      churn = img;
    }
    AddProgram(w, probe, name, std::move(img), nullptr,
               HardenedConfig(w.policy, {kChurnOps, 0}, Policy::kHarden));
    probe.EndOp();
  }

  probe.BeginOp("allocator-cases");
  UafParams up;
  up.seed = MixSeed(up.seed, seed);
  BinaryImage uaf;
  probe.Generate([&] { uaf = GenerateUafProgram(up); });
  AddServeItem(w, probe, "uaf", uaf, {0});
  w.cases.push_back(Case{"churn-forged-link", churn, {kChurnCaseOps, 1}, {kChurnCaseOps, 0},
                         ErrorKind::kBounds});
  w.cases.push_back(Case{"churn-overlapping-free", churn, {kChurnCaseOps, 2},
                         {kChurnCaseOps, 0}, ErrorKind::kFreelistCorruption});
  w.cases.push_back(Case{"uaf-use", uaf, {1}, {0}, ErrorKind::kBounds});
  w.cases.push_back(Case{"uaf-double-free", uaf, {2}, {0}, ErrorKind::kDoubleFree});
  probe.EndOp();

  AddTable2Cases(w, probe, SIZE_MAX);
}

// Records one correctness check; a failure is named on stderr.
void Check(PassResult& r, bool ok, const std::string& op, const char* what) {
  r.tally.Record(ok);
  if (!ok) {
    std::fprintf(stderr, "perfbench: check failed: %s: %s\n", op.c_str(), what);
  }
}

void RunLeg(const Workload& w, Probe& probe, PassResult& r) {
  for (const Program& p : w.programs) {
    probe.BeginOp(p.name);
    const Timed<RunOutcome> base = probe.Run(p.base, RuntimeKind::kBaseline, p.config);
    const Timed<RunOutcome> hard = probe.Run(p.hard.image, w.policy.runtime, p.config);
    probe.EndOp();
    const RunResult& b = base.value.result;
    const RunResult& h = hard.value.result;
    Check(r, b.reason == HaltReason::kExit, p.name, "baseline exits");
    Check(r, h.reason == HaltReason::kExit && hard.value.outputs == base.value.outputs, p.name,
          "hardened run exits with the baseline's outputs");
    r.overheads.push_back(static_cast<double>(h.cycles) / static_cast<double>(b.cycles));
    const CoverageStats cov = ComputeCoverage(hard.value.counters, p.hard.sites);
    if (cov.full + cov.redzone_only > 0) {
      r.coverage.push_back(cov.FullFraction());
    }
    r.hard_instructions += static_cast<double>(h.instructions);
    r.hard_ms.push_back(hard.ms);
    r.guest_instructions += b.instructions + h.instructions;
    r.guest_cycles += b.cycles + h.cycles;
  }
}

void SetCpus(const cpu_set_t& cpus) {
  REDFAT_CHECK(sched_setaffinity(0, sizeof(cpus), &cpus) == 0);
}

void ServeLeg(const Workload& w, Probe& probe, PassResult& r) {
  if (w.serve.empty()) {
    return;
  }
  // A fresh service per pass, so every first request is a cold miss. Its
  // worker thread inherits the caller's CPUs, so it starts with all of them.
  cpu_set_t pinned;
  REDFAT_CHECK(sched_getaffinity(0, sizeof(pinned), &pinned) == 0);
  RewriteService::Config config;
  config.jobs = 2;
  SetCpus(w.cpus);
  RewriteService svc(config);
  SetCpus(pinned);
  const RedFatOptions& opts = w.policy.rewrite;
  for (const ServeItem& item : w.serve) {
    probe.BeginOp(item.name);
    const auto miss = probe.ServeRewrite(svc, item.wire, opts);
    const auto hit = probe.ServeRewrite(svc, item.wire, opts);
    const uint64_t hash = miss.value.ok() ? miss.value.value().key.image_hash : 0;
    const auto retier = probe.ServeUpload(svc, hash, opts, item.profile_json);
    probe.EndOp();
    Check(r,
          miss.value.ok() && !miss.value.value().cache_hit &&
              miss.value.value().image_bytes == item.ref,
          item.name, "miss is byte-identical to the offline rewrite");
    Check(r,
          hit.value.ok() && hit.value.value().cache_hit &&
              hit.value.value().image_bytes == item.ref,
          item.name, "hit is byte-identical to the offline rewrite");
    Check(r,
          retier.value.ok() && retier.value.value().incremental_retier &&
              retier.value.value().image_bytes == item.ref_tiered,
          item.name, "re-tier is byte-identical to the offline profiled rewrite");
    r.rewrite_ms.push_back(miss.ms);
    r.rewrite_bytes += static_cast<double>(item.input_bytes);
    r.hit_ms.push_back(hit.ms);
    r.retier_ms.push_back(retier.ms);
  }
  probe.ServeFinished(svc);
}

void DetectLeg(const Workload& w, Probe& probe, PassResult& r) {
  for (const Case& c : w.cases) {
    probe.BeginOp(c.name);
    const ResolvedPolicy& policy = w.case_policy;
    const Timed<InstrumentResult> ir = probe.Instrument(c.image, policy.rewrite);
    const Timed<RunOutcome> attack = probe.Run(
        ir.value.image, policy.runtime, HardenedConfig(policy, c.attack, Policy::kHarden));
    const Timed<RunOutcome> benign = probe.Run(
        ir.value.image, policy.runtime, HardenedConfig(policy, c.benign, Policy::kHarden));
    probe.EndOp();
    const RunOutcome& a = attack.value;
    Check(r,
          a.result.reason == HaltReason::kMemErrorAbort && !a.errors.empty() &&
              a.errors.front().kind == c.expect,
          c.name, "attack aborts with the expected error kind");
    Check(r, benign.value.result.reason == HaltReason::kExit, c.name, "benign input exits");
    r.case_in_bytes += static_cast<double>(c.image.TotalBytes());
    r.case_out_bytes += static_cast<double>(ir.value.image.TotalBytes());
    r.cases += 1;
    r.case_ms.push_back(ir.ms + attack.ms + benign.ms);
    if (w.programs_in_setup) {
      r.hard_instructions +=
          static_cast<double>(a.result.instructions + benign.value.result.instructions);
      r.hard_ms.push_back(attack.ms + benign.ms);
    }
    r.guest_instructions += a.result.instructions + benign.value.result.instructions;
    r.guest_cycles += a.result.cycles + benign.value.result.cycles;
  }
}

}  // namespace

std::unique_ptr<Workload> SetUp(const std::string& name, uint64_t seed, Probe& probe,
                                PassResult* setup_runs) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  REDFAT_CHECK(sched_getaffinity(0, sizeof(w->cpus), &w->cpus) == 0);
  w->case_policy = Resolve(HardeningPolicy{});
  if (name == "spec_ref") {
    SetUpSpec(*w, seed, probe);
  } else if (name == "kraken_serve") {
    SetUpKraken(*w, seed, probe);
  } else if (name == "heap_detect") {
    SetUpHeap(*w, seed, probe);
  } else {
    return nullptr;
  }
  if (w->programs_in_setup) {
    RunLeg(*w, probe, *setup_runs);
  }
  return w;
}

PassResult RunPass(const Workload& w, Probe& probe, size_t turn) {
  std::vector<int> ids;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &w.cpus)) {
      ids.push_back(cpu);
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(ids[turn % ids.size()], &one);
  SetCpus(one);
  PassResult r;
  if (!w.programs_in_setup) {
    RunLeg(w, probe, r);
  }
  ServeLeg(w, probe, r);
  DetectLeg(w, probe, r);
  SetCpus(w.cpus);
  return r;
}

}  // namespace perfbench
