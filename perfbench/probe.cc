#include "perfbench/probe.h"

#include <optional>
#include <utility>

#include "perfbench/stats.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"

namespace perfbench {

using namespace redfat;

namespace {

constexpr int kBenchPid = 1;
constexpr int kBenchTid = 1;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench:
      return "bench";
    case Layer::kSetup:
      return "setup";
    case Layer::kRw:
      return "rw";
    case Layer::kPipeline:
      return "pipeline";
    case Layer::kVm:
      return "vm";
    case Layer::kServe:
      return "serve";
  }
  return "?";
}

Probe::Probe(bool tracing) : tracing_(tracing), epoch_(Clock::now()) {}

double Probe::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
}

int Probe::Open(const std::string& name, Layer layer) {
  if (!tracing_) {
    return -1;
  }
  Span s;
  s.name = name;
  s.layer = layer;
  s.op = op_stack_.empty() ? 0 : spans_[op_stack_.back()].op;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_us = NowUs();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Probe::Close(int index) {
  if (index < 0) {
    return;
  }
  spans_[index].end_us = NowUs();
  REDFAT_CHECK(!open_.empty() && open_.back() == index);
  open_.pop_back();
}

void Probe::BeginOp(const std::string& name) {
  if (!tracing_) {
    return;
  }
  const int index = Open(name, Layer::kBench);
  spans_[index].op = ++next_op_;
  op_stack_.push_back(index);
}

void Probe::EndOp() {
  if (!tracing_) {
    return;
  }
  REDFAT_CHECK(!op_stack_.empty());
  Close(op_stack_.back());
  op_stack_.pop_back();
}

void Probe::Generate(const std::function<void()>& gen) {
  const int span = Open("workloads.gen", Layer::kSetup);
  const double t0 = NowUs();
  gen();
  Add("workloads.gen.ms", (NowUs() - t0) / 1000.0);
  Add("workloads.gen.calls", 1);
  Close(span);
}

AllowList Probe::Profile(const BinaryImage& image, std::vector<uint64_t> train) {
  const int span = Open("profile", Layer::kSetup);
  const double t0 = NowUs();
  AllowList allow = ProfileAndAllow(image, std::move(train));
  Add("profile.ms", (NowUs() - t0) / 1000.0);
  Add("profile.calls", 1);
  Close(span);
  return allow;
}

std::string Probe::ProfileSnapshot(const BinaryImage& hardened, RuntimeKind runtime,
                                   const RunConfig& config) {
  const int span = Open("profile", Layer::kSetup);
  const double t0 = NowUs();
  TelemetryRegistry telemetry;
  RunConfig cfg = config;
  cfg.telemetry = &telemetry;
  const RunOutcome out = RunImage(hardened, runtime, cfg);
  REDFAT_CHECK(out.result.reason == HaltReason::kExit);
  std::string json = telemetry.Snapshot().ToJson();
  Add("profile.ms", (NowUs() - t0) / 1000.0);
  Add("profile.calls", 1);
  Close(span);
  return json;
}

Timed<InstrumentResult> Probe::Instrument(const BinaryImage& image, const RedFatOptions& opts,
                                          const AllowList* allow) {
  const int span = Open("instrument", Layer::kRw);
  const double t0 = NowUs();
  InstrumentResult ir = MustInstrument(image, opts, allow);
  const double ms = (NowUs() - t0) / 1000.0;
  Add("instrument.ms", ms);
  Add("instrument.calls", 1);
  Add("plan.checks_emitted", static_cast<double>(ir.plan_stats.checks_emitted));
  Add("plan.trampolines", static_cast<double>(ir.plan_stats.trampolines));
  Add("rewrite.trampoline_bytes", static_cast<double>(ir.rewrite_stats.trampoline_bytes));
  for (const PassStats& p : ir.pipeline_stats.passes) {
    Add("pipeline." + p.name + ".ms", p.wall_ms);
    Add("pipeline." + p.name + ".items", static_cast<double>(p.items));
    Add("pipeline." + p.name + ".changed", static_cast<double>(p.changed));
  }
  if (span >= 0) {
    // The passes ran inside this call; place them on the trace's timeline
    // relative to the call's start.
    const double base_us = spans_[span].start_us;
    for (PassStats p : ir.pipeline_stats.passes) {
      Span s;
      s.name = p.name;
      s.layer = Layer::kPipeline;
      s.op = spans_[span].op;
      s.parent = span;
      s.start_us = base_us + p.start_ms * 1000.0;
      s.end_us = s.start_us + p.wall_ms * 1000.0;
      spans_.push_back(std::move(s));
      p.start_ms += base_us / 1000.0;
      pipeline_passes_.passes.push_back(std::move(p));
    }
  }
  Close(span);
  return {std::move(ir), ms};
}

Timed<RunOutcome> Probe::Run(const BinaryImage& image, RuntimeKind runtime,
                             const RunConfig& config) {
  const int span = Open("run", Layer::kVm);
  std::optional<TelemetryRegistry> telemetry;
  RunConfig cfg = config;
  if (tracing_) {
    cfg.telemetry = &telemetry.emplace();
  }
  const double t0 = NowUs();
  RunOutcome out = RunImage(image, runtime, cfg);
  const double ms = (NowUs() - t0) / 1000.0;
  Close(span);

  Add("run.ms", ms);
  Add("run.calls", 1);
  Add("vm.instructions", static_cast<double>(out.result.instructions));
  Add("vm.cycles", static_cast<double>(out.result.cycles));
  if (runtime != RuntimeKind::kBaseline) {
    Add("vm.hardened_cycles", static_cast<double>(out.result.cycles));
  }
  const Vm::DispatchStats& d = out.dispatch;
  Add("vm.blocks_built", static_cast<double>(d.blocks_built));
  Add("vm.code_cache_evictions", static_cast<double>(d.code_cache_evictions));
  Add("vm.block_chains", static_cast<double>(d.block_chains));
  Add("vm.chain_exits", static_cast<double>(d.chain_exits));
  Add("vm.trace_runs", static_cast<double>(d.trace_runs));
  Add("vm.tlb_hits", static_cast<double>(d.tlb_hits));
  Add("vm.tlb_probes", static_cast<double>(d.tlb_hits + d.tlb_misses));
  if (tracing_) {
    const TelemetrySnapshot snap = telemetry->Snapshot();
    for (const char* name : {"vm.trampoline_cycles", "vm.inline_check_cycles"}) {
      auto it = snap.counters.find(name);
      Add(name, it == snap.counters.end() ? 0.0 : static_cast<double>(it->second));
    }
    // Allocator gauges are per-run totals of the low-fat heap.
    const std::pair<const char*, const char*> gauges[] = {
        {"lowfat.malloc_cycles", "lowfat.malloc_cycles"},
        {"lowfat.free_cycles", "lowfat.free_cycles"},
        {"lowfat.freelist_pops", "lowfat.freelist_pops"},
        {"lowfat.arena_carves", "lowfat.arena_carves"},
        {"lowfat.allocs", "heap.allocs"},
        {"lowfat.frees", "heap.frees"},
        {"heap.guard_cycles", "heap.guard_cycles"},
    };
    for (const auto& [gauge, name] : gauges) {
      auto it = snap.gauges.find(gauge);
      Add(name, it == snap.gauges.end() ? 0.0 : it->second);
    }
  }
  return {std::move(out), ms};
}

Timed<Result<RewriteService::Outcome>> Probe::ServeRewrite(RewriteService& svc,
                                                           const std::vector<uint8_t>& wire,
                                                           const RedFatOptions& opts) {
  const int span = Open("serve.rewrite", Layer::kServe);
  const double t0 = NowUs();
  Result<RewriteService::Outcome> r = svc.Rewrite(wire, opts, "");
  const double ms = (NowUs() - t0) / 1000.0;
  Close(span);
  Add("serve.rewrite.ms", ms);
  Add("serve.rewrite.calls", 1);
  Add("serve.hits", r.ok() && r.value().cache_hit ? 1 : 0);
  return {std::move(r), ms};
}

Timed<Result<RewriteService::Outcome>> Probe::ServeUpload(RewriteService& svc,
                                                          uint64_t image_hash,
                                                          const RedFatOptions& opts,
                                                          const std::string& profile_json) {
  const int span = Open("serve.upload", Layer::kServe);
  const double t0 = NowUs();
  Result<RewriteService::Outcome> r = svc.UploadProfile(image_hash, opts, profile_json);
  const double ms = (NowUs() - t0) / 1000.0;
  Close(span);
  Add("serve.upload.ms", ms);
  Add("serve.upload.calls", 1);
  Add("serve.incremental", r.ok() && r.value().incremental_retier ? 1 : 0);
  return {std::move(r), ms};
}

void Probe::ServeFinished(const RewriteService& svc) {
  Add("serve.cache_bytes", static_cast<double>(svc.cache().stats().bytes));
}

std::array<double, kNumLayers> Probe::SelfTimeUs(size_t first) const {
  std::vector<std::vector<Interval>> children(spans_.size());
  for (size_t i = first; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[spans_[i].parent].push_back({spans_[i].start_us, spans_[i].end_us});
    }
  }
  std::array<double, kNumLayers> self{};
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[static_cast<size_t>(s.layer)] +=
        SelfTime({s.start_us, s.end_us}, std::move(children[i]));
  }
  return self;
}

Result<std::string> Probe::WriteTrace() const {
  // Every span, pipeline passes included, goes on the benchmark's track with
  // its operation id. The passes are also replayed once, all together,
  // through the pipeline's own AppendPipelineTrace, which puts them on the
  // rewriter's track with their items/changed args but no operation id.
  TraceWriter trace(4 + spans_.size() + pipeline_passes_.passes.size());
  trace.SetProcessName(kBenchPid, "perfbench");
  trace.SetThreadName(kBenchPid, kBenchTid, "closed loop");
  for (const Span& s : spans_) {
    trace.Complete(s.name, LayerName(s.layer), kBenchPid, kBenchTid, s.start_us,
                   s.end_us - s.start_us, {TraceArg{"op", s.op}});
  }
  AppendPipelineTrace(pipeline_passes_, &trace);
  if (trace.dropped() != 0) {
    return Error(StrFormat("trace dropped %zu events", trace.dropped()));
  }
  std::string json = trace.ToJson();
  Status valid = ValidateTraceEventJson(json);
  if (!valid.ok()) {
    return Error(valid.error());
  }
  return json;
}

}  // namespace perfbench
