// Differential dispatch-engine equivalence: the fast engine (specialized
// handlers, direct chaining and trace formation) must reproduce the stepper
// bit-for-bit: instructions, cycles, explicit reads/writes, outputs,
// mem-error reports, prof counts, telemetry snapshots and trace slices — for
// every golden config × workload, for randomized programs, and for every
// edge the block boundary and chaining logic has: instruction limits landing
// mid-block / mid-chain / mid-trace, mem-error aborts at the same points,
// hostcall/trap termination, one-instruction self-loops, direct-mapped code
// cache collisions evicting chained-to blocks, TLB + chain invalidation
// across LoadImage, and observer-attached runs moving to the stepper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/harness.h"
#include "src/core/redfat.h"
#include "src/heap/legacy_heap.h"
#include "src/support/rng.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/support/trace.h"
#include "src/workloads/builder.h"
#include "src/workloads/kraken.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

// Everything a guest run can externally produce, flattened to comparable
// strings so a mismatch names the diverging field directly.
struct RunFingerprint {
  std::string result;
  std::vector<uint64_t> outputs;
  std::vector<std::string> errors;
  std::vector<std::string> prof_counts;
  std::string counters;
  uint64_t touched_pages = 0;
  std::string metrics;  // telemetry snapshot JSON ("" when not attached)
  std::string trace;    // trace-event JSON ("" when not attached)
};

std::string FormatResult(const RunResult& r) {
  return StrFormat("reason=%d exit=%llu insns=%llu cycles=%llu reads=%llu writes=%llu "
                   "fault='%s'",
                   static_cast<int>(r.reason),
                   static_cast<unsigned long long>(r.exit_status),
                   static_cast<unsigned long long>(r.instructions),
                   static_cast<unsigned long long>(r.cycles),
                   static_cast<unsigned long long>(r.explicit_reads),
                   static_cast<unsigned long long>(r.explicit_writes),
                   r.fault_message.c_str());
}

RunFingerprint Fingerprint(const RunOutcome& out, const std::string& metrics,
                           const std::string& trace) {
  RunFingerprint fp;
  fp.result = FormatResult(out.result);
  fp.outputs = out.outputs;
  for (const MemErrorReport& e : out.errors) {
    fp.errors.push_back(StrFormat("site=%u kind=%d rip=0x%llx idx=%llu", e.site,
                                  static_cast<int>(e.kind),
                                  static_cast<unsigned long long>(e.rip),
                                  static_cast<unsigned long long>(e.instruction_index)));
  }
  std::vector<std::pair<uint32_t, uint64_t>> counters(out.counters.begin(),
                                                      out.counters.end());
  std::sort(counters.begin(), counters.end());
  for (const auto& [site, n] : counters) {
    fp.counters += StrFormat("%u=%llu;", site, static_cast<unsigned long long>(n));
  }
  std::vector<std::pair<uint32_t, Vm::ProfCounts>> prof(out.prof_counts.begin(),
                                                        out.prof_counts.end());
  std::sort(prof.begin(), prof.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [site, pc] : prof) {
    fp.prof_counts.push_back(StrFormat("%u:%llu/%llu", site,
                                       static_cast<unsigned long long>(pc.passes),
                                       static_cast<unsigned long long>(pc.fails)));
  }
  fp.touched_pages = out.touched_pages;
  fp.metrics = metrics;
  fp.trace = trace;
  return fp;
}

// The engine axis: the reference stepper and the fast engine (the production
// default). Every test run through ExpectEnginesAgree is a two-way
// differential.
struct EngineMode {
  const char* name;
  VmEngine engine;
};

constexpr EngineMode kModes[] = {
    {"step", VmEngine::kStep},
    {"block", VmEngine::kBlock},
};
constexpr size_t kNumModes = sizeof(kModes) / sizeof(kModes[0]);

// Runs `img` under both engines with identical config (telemetry + trace
// attached when `observe`) and asserts every produced artifact matches the
// stepper's.
void ExpectEnginesAgree(const BinaryImage& img, RuntimeKind kind, RunConfig cfg,
                        bool observe, const std::string& what) {
  RunFingerprint ref;
  for (size_t i = 0; i < kNumModes; ++i) {
    TelemetryRegistry telemetry;
    TraceWriter trace;
    RunConfig c = cfg;
    c.engine = kModes[i].engine;
    if (observe) {
      c.telemetry = &telemetry;
      c.trace = &trace;
    }
    const RunOutcome out = RunImage(img, kind, c);
    RunFingerprint fp = Fingerprint(out, observe ? telemetry.Snapshot().ToJson() : "",
                                    observe ? trace.ToJson() : "");
    if (i == 0) {
      ref = std::move(fp);
      continue;
    }
    const std::string tag = what + " [" + kModes[i].name + "]";
    EXPECT_EQ(ref.result, fp.result) << tag;
    EXPECT_EQ(ref.outputs, fp.outputs) << tag;
    EXPECT_EQ(ref.errors, fp.errors) << tag;
    EXPECT_EQ(ref.prof_counts, fp.prof_counts) << tag;
    EXPECT_EQ(ref.counters, fp.counters) << tag;
    EXPECT_EQ(ref.touched_pages, fp.touched_pages) << tag;
    EXPECT_EQ(ref.metrics, fp.metrics) << tag;
    EXPECT_EQ(ref.trace, fp.trace) << tag;
  }
}

struct GoldenConfig {
  const char* name;
  RedFatOptions opts;
  RuntimeKind runtime;
};

std::vector<GoldenConfig> GoldenConfigs() {
  RedFatOptions shadow;
  shadow.redzone_impl = RedzoneImpl::kShadow;
  return {
      {"unoptimized", RedFatOptions::Unoptimized(), RuntimeKind::kRedFat},
      {"elim", RedFatOptions::Elim(), RuntimeKind::kRedFat},
      {"batch", RedFatOptions::Batch(), RuntimeKind::kRedFat},
      {"merge", RedFatOptions::Merge(), RuntimeKind::kRedFat},
      {"no-size", RedFatOptions::NoSize(), RuntimeKind::kRedFat},
      {"no-reads", RedFatOptions::NoReads(), RuntimeKind::kRedFat},
      {"profile", RedFatOptions::Profile(), RuntimeKind::kRedFat},
      {"shadow", shadow, RuntimeKind::kRedFatShadow},
  };
}

// (a) Every golden config × the determinism-stress workloads, with the full
// observability surface attached (telemetry + trace), under the matching
// hardened runtime.
TEST(VmEngine, GoldenConfigsAgreeOnSynth) {
  SynthParams p;
  p.seed = 0xd57e55;
  p.mem_pct = 35;
  p.stream_pct = 6;
  p.churn_pct = 4;
  p.max_accesses_per_ptr = 4;
  const BinaryImage img = GenerateSynthProgram(p);
  for (const GoldenConfig& cfg : GoldenConfigs()) {
    RedFatTool tool(cfg.opts);
    Result<InstrumentResult> ir = tool.Instrument(img);
    ASSERT_TRUE(ir.ok()) << cfg.name << ": " << ir.error();
    RunConfig rc;
    rc.inputs = RefInputs(15);
    ExpectEnginesAgree(ir.value().image, cfg.runtime, rc, /*observe=*/true,
                       std::string("synth-mid/") + cfg.name);
  }
}

TEST(VmEngine, GoldenConfigsAgreeOnKraken) {
  const KrakenBenchmark& bench = KrakenSuite().front();
  const BinaryImage img = BuildKrakenBenchmark(bench);
  for (const GoldenConfig& cfg : GoldenConfigs()) {
    RedFatTool tool(cfg.opts);
    Result<InstrumentResult> ir = tool.Instrument(img);
    ASSERT_TRUE(ir.ok()) << cfg.name << ": " << ir.error();
    RunConfig rc;
    rc.inputs = RefInputs(40);
    ExpectEnginesAgree(ir.value().image, cfg.runtime, rc, /*observe=*/true,
                       bench.name + "/" + cfg.name);
  }
}

// (b) Randomized programs from the fuzz generator: arbitrary byte soup must
// fault/halt/limit at the identical instruction with identical state.
TEST(VmEngine, RandomProgramsAgree) {
  Rng rng(0xfeed);
  for (int trial = 0; trial < 200; ++trial) {
    BinaryImage img;
    img.entry = kCodeBase;
    Section text;
    text.kind = Section::Kind::kText;
    text.vaddr = kCodeBase;
    for (int i = 0; i < 256; ++i) {
      text.bytes.push_back(static_cast<uint8_t>(rng.Next()));
    }
    img.sections.push_back(std::move(text));
    RunConfig cfg;
    cfg.instruction_limit = 5000;
    cfg.policy = Policy::kLog;
    ExpectEnginesAgree(img, RuntimeKind::kBaseline, cfg, /*observe=*/false,
                       StrFormat("random trial %d", trial));
  }
}

// (c) The instruction limit must halt at the exact same instruction even
// when it lands in the middle of a long straight-line block.
TEST(VmEngine, InstructionLimitMidBlock) {
  ProgramBuilder pb;
  Assembler& a = pb.text();
  for (int i = 0; i < 60; ++i) {
    a.AddI(Reg::kRax, 1);  // one long straight-line run
  }
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  for (uint64_t limit = 1; limit <= 64; ++limit) {
    RunConfig cfg;
    cfg.instruction_limit = limit;
    ExpectEnginesAgree(img, RuntimeKind::kBaseline, cfg, /*observe=*/false,
                       StrFormat("limit=%llu", static_cast<unsigned long long>(limit)));
  }
}

// A mem-error abort raised by a check in the middle of a straight-line run
// of loads must stop at the same instruction with the same report. The
// hardened image splits the run at each check trampoline, so the detection
// lands mid-chain in the fast engine.
TEST(VmEngine, MemErrorAbortMidBlock) {
  ProgramBuilder pb;
  Assembler& a = pb.text();
  a.MovRI(Reg::kRdi, 64);
  a.HostCall(HostFn::kMalloc);
  a.MovRR(Reg::kR12, Reg::kRax);
  // Straight-line run: valid, valid, REDZONE, valid.
  a.Load(Reg::kR14, MemAt(Reg::kR12, 0));
  a.Load(Reg::kR14, MemAt(Reg::kR12, 8));
  a.Load(Reg::kR14, MemAt(Reg::kR12, 72));
  a.Load(Reg::kR14, MemAt(Reg::kR12, 16));
  pb.EmitExit(0);
  Result<InstrumentResult> ir = RedFatTool(RedFatOptions{}).Instrument(pb.Finish());
  ASSERT_TRUE(ir.ok()) << ir.error();
  for (const Policy policy : {Policy::kHarden, Policy::kLog}) {
    RunConfig cfg;
    cfg.policy = policy;
    const std::string what = StrFormat("policy=%d", static_cast<int>(policy));
    ExpectEnginesAgree(ir.value().image, RuntimeKind::kRedFat, cfg, /*observe=*/true,
                       what);
    const RunOutcome out = RunImage(ir.value().image, RuntimeKind::kRedFat, cfg);
    ASSERT_EQ(out.errors.size(), 1u) << what;
  }
}

// Hostcalls and traps terminate blocks; a trap mid-stream under kLog resumes
// with the next block, under kHarden aborts — identically in both engines.
TEST(VmEngine, HostcallAndTrapTermination) {
  ProgramBuilder pb;
  Assembler& a = pb.text();
  a.MovRI(Reg::kRax, 5);
  a.Trap(TrapCode::kMemError, PackErrorArg(9, ErrorKind::kBounds));
  a.AddI(Reg::kRax, 2);
  a.MovRR(Reg::kRdi, Reg::kRax);
  a.HostCall(HostFn::kOutputU64);
  a.Trap(TrapCode::kProfPass, 3);
  a.Trap(TrapCode::kProfFail, 3);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  for (const Policy policy : {Policy::kHarden, Policy::kLog}) {
    RunConfig cfg;
    cfg.policy = policy;
    ExpectEnginesAgree(img, RuntimeKind::kBaseline, cfg, /*observe=*/false,
                       StrFormat("policy=%d", static_cast<int>(policy)));
  }
}

// A one-instruction self-branching loop is the smallest possible block; the
// cache must hit it every iteration and the limit must still be exact.
TEST(VmEngine, SelfBranchingOneInstructionLoop) {
  ProgramBuilder pb;
  Assembler& a = pb.text();
  auto spin = a.NewLabel();
  a.Bind(spin);
  a.Jmp(spin);
  const BinaryImage img = pb.Finish();
  RunConfig cfg;
  cfg.instruction_limit = 12345;
  ExpectEnginesAgree(img, RuntimeKind::kBaseline, cfg, /*observe=*/false, "self-loop");
}

// LoadImage must invalidate both the block cache and the memory TLB: a
// second image at overlapping addresses must not execute (or read) stale
// state from the first.
TEST(VmEngine, TlbAndBlockCacheInvalidationAcrossLoadImage) {
  auto build = [](uint64_t value) {
    ProgramBuilder pb;
    Assembler& a = pb.text();
    const uint64_t g = pb.AddDataU64({value});
    a.Load(Reg::kRdi, MemAbs(static_cast<int32_t>(g)));
    a.HostCall(HostFn::kOutputU64);
    pb.EmitExit(static_cast<int32_t>(value & 0xff));
    return pb.Finish();
  };
  const BinaryImage first = build(41);
  const BinaryImage second = build(77);
  for (const VmEngine engine : {VmEngine::kStep, VmEngine::kBlock}) {
    Vm vm;
    GlibcLikeAllocator alloc;
    vm.set_allocator(&alloc);
    vm.set_engine(engine);
    vm.LoadImage(first);
    const RunResult r1 = vm.Run();
    EXPECT_EQ(r1.exit_status, 41u);
    // Reload at the same addresses: decoded blocks and cached page
    // translations for the old image must not leak into this run.
    vm.LoadImage(second);
    const RunResult r2 = vm.Run();
    EXPECT_EQ(r2.exit_status, 77u);
    ASSERT_EQ(vm.outputs().size(), 2u);
    EXPECT_EQ(vm.outputs()[0], 41u);
    EXPECT_EQ(vm.outputs()[1], 77u);
  }
}

// The streaming-epoch hook fires at the same instruction boundaries under
// both engines, and chained deltas merge back to the one-shot snapshot.
TEST(VmEngine, EpochDeltasMergeToOneShot) {
  SynthParams p;
  p.seed = 99;
  p.churn_pct = 3;
  const BinaryImage img = GenerateSynthProgram(p);
  RedFatTool tool(RedFatOptions::Merge());
  Result<InstrumentResult> ir = tool.Instrument(img);
  ASSERT_TRUE(ir.ok()) << ir.error();

  std::vector<size_t> epoch_counts;
  std::vector<std::string> one_shots;
  for (const VmEngine engine : {VmEngine::kStep, VmEngine::kBlock}) {
    TelemetryRegistry telemetry;
    std::vector<TelemetrySnapshot> deltas;
    TelemetrySnapshot prev;
    RunConfig cfg;
    cfg.engine = engine;
    cfg.inputs = RefInputs(10);
    cfg.telemetry = &telemetry;
    cfg.metrics_epoch = 5000;
    cfg.on_epoch = [&]() {
      const TelemetrySnapshot cur = telemetry.Snapshot();
      deltas.push_back(DeltaTelemetrySnapshot(cur, prev));
      prev = cur;
    };
    const RunOutcome out = RunImage(ir.value().image, RuntimeKind::kRedFat, cfg);
    ASSERT_EQ(out.result.reason, HaltReason::kExit);
    ASSERT_FALSE(deltas.empty()) << "run too short to cross an epoch";
    // Closing epoch: everything after the last boundary, including the
    // harness's post-run counters.
    const TelemetrySnapshot final_snap = telemetry.Snapshot();
    deltas.push_back(DeltaTelemetrySnapshot(final_snap, prev));
    EXPECT_EQ(MergeTelemetrySnapshots(deltas).ToJson(), final_snap.ToJson())
        << "engine=" << static_cast<int>(engine);
    epoch_counts.push_back(deltas.size());
    one_shots.push_back(final_snap.ToJson());
  }
  // The hook fired at the same instruction boundaries in both engines and
  // observed identical state at each.
  EXPECT_EQ(epoch_counts[0], epoch_counts[1]);
  EXPECT_EQ(one_shots[0], one_shots[1]);
}

// ---- Chaining + trace-formation differential suite (ISSUE 8) ----

// A loop hot enough to pass kTraceThreshold, with an internal conditional
// branch so the body spans multiple superblocks (the trace gets interior
// guards) and a data-dependent side that diverges on the final iterations.
BinaryImage BuildHotLoop(uint64_t iters) {
  ProgramBuilder pb;
  Assembler& a = pb.text();
  a.MovRI(Reg::kR15, 0);
  a.MovRI(Reg::kR8, static_cast<int64_t>(iters));
  auto loop = a.NewLabel();
  auto skip = a.NewLabel();
  a.Bind(loop);
  a.CmpI(Reg::kR8, 3);
  a.Jcc(Cond::kUgt, skip);  // taken until the last three iterations
  a.AddI(Reg::kR15, 1000);
  a.Bind(skip);
  a.AddI(Reg::kR15, 2);
  a.SubI(Reg::kR8, 1);
  a.CmpI(Reg::kR8, 0);
  a.Jcc(Cond::kNe, loop);
  a.MovRR(Reg::kRdi, Reg::kR15);
  a.HostCall(HostFn::kOutputU64);
  pb.EmitExit(0);
  return pb.Finish();
}

// Sanity: the hot-loop workload really does drive the chained engine into
// its steady state — links patched, blocks chained, at least one trace
// formed and run — so the limit/abort tests below genuinely land mid-chain
// and mid-trace rather than in cold dispatch.
TEST(VmChaining, HotLoopFormsChainsAndTraces) {
  const BinaryImage img = BuildHotLoop(400);
  RunConfig cfg;  // chained production defaults
  const RunOutcome out = RunImage(img, RuntimeKind::kBaseline, cfg);
  ASSERT_EQ(out.result.reason, HaltReason::kExit);
  ASSERT_EQ(out.outputs.size(), 1u);
  EXPECT_EQ(out.outputs[0], 3u * 1000u + 400u * 2u);
  EXPECT_GT(out.dispatch.links_patched, 0u);
  EXPECT_GT(out.dispatch.block_chains, 0u);
  EXPECT_GT(out.dispatch.traces_formed, 0u);
  EXPECT_GT(out.dispatch.trace_runs, 0u);
  EXPECT_EQ(out.dispatch.trace_len.Count(), out.dispatch.traces_formed);

  // And the stepper, which builds no blocks, reports none of it.
  RunConfig step = cfg;
  step.engine = VmEngine::kStep;
  const RunOutcome out2 = RunImage(img, RuntimeKind::kBaseline, step);
  EXPECT_EQ(out2.outputs, out.outputs);
  EXPECT_EQ(out2.dispatch.blocks_built, 0u);
  EXPECT_EQ(out2.dispatch.block_chains, 0u);
  EXPECT_EQ(out2.dispatch.links_patched, 0u);
  EXPECT_EQ(out2.dispatch.traces_formed, 0u);
}

// The instruction limit must halt at the exact instruction even when it
// lands inside a chained block sequence or a baked multi-segment trace.
TEST(VmChaining, InstructionLimitMidChainAndMidTrace) {
  const BinaryImage img = BuildHotLoop(400);
  // Total instruction count from the reference stepper, then limits probing
  // the cold region, the chained-but-untraced region, deep mid-trace
  // territory, and every offset within one loop iteration (7 insns/iter).
  RunConfig probe;
  probe.engine = VmEngine::kStep;
  const RunOutcome ref = RunImage(img, RuntimeKind::kBaseline, probe);
  const uint64_t total = ref.result.instructions;
  ASSERT_GT(total, 1000u);
  std::vector<uint64_t> limits = {1, 2, 50, 200, 450, 451, total / 2, total - 1, total};
  for (uint64_t off = 0; off < 7; ++off) {
    limits.push_back(total / 2 + 100 + off);
  }
  for (const uint64_t limit : limits) {
    RunConfig cfg;
    cfg.instruction_limit = limit;
    ExpectEnginesAgree(img, RuntimeKind::kBaseline, cfg, /*observe=*/false,
                       StrFormat("hot-loop limit=%llu",
                                 static_cast<unsigned long long>(limit)));
  }
}

// A mem-error trap firing on the last iterations of a hot loop lands after
// chains and traces are formed; under kHarden the abort must stop at the
// identical instruction with the identical report, under kLog execution
// continues through the trace side-exit — in every mode.
TEST(VmChaining, MemErrorAbortMidChainAndMidTrace) {
  constexpr uint64_t kIters = 400;
  ProgramBuilder pb;
  Assembler& a = pb.text();
  a.MovRI(Reg::kR15, 0);
  a.MovRI(Reg::kR8, kIters);
  auto loop = a.NewLabel();
  auto skip = a.NewLabel();
  a.Bind(loop);
  a.CmpI(Reg::kR8, 2);
  a.Jcc(Cond::kUgt, skip);  // the hot path; falls through on iterations 2 and 1
  a.Trap(TrapCode::kMemError, PackErrorArg(9, ErrorKind::kBounds));
  a.Bind(skip);
  a.AddI(Reg::kR15, 2);
  a.SubI(Reg::kR8, 1);
  a.CmpI(Reg::kR8, 0);
  a.Jcc(Cond::kNe, loop);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  for (const Policy policy : {Policy::kHarden, Policy::kLog}) {
    RunConfig cfg;
    cfg.policy = policy;
    ExpectEnginesAgree(img, RuntimeKind::kBaseline, cfg, /*observe=*/false,
                       StrFormat("hot-loop trap policy=%d", static_cast<int>(policy)));
    // The trap really fired after the loop went hot.
    const RunOutcome out = RunImage(img, RuntimeKind::kBaseline, cfg);
    ASSERT_FALSE(out.errors.empty());
    EXPECT_GT(out.dispatch.block_chains, 0u);
  }
}

// Two hot call targets whose entry addresses are exactly 4096 bytes apart
// map to the same direct-mapped slot (kBlockCacheSize = 4096, indexed by
// address bits): every iteration evicts a block the previous iteration
// installed chain links to. Correctness must not depend on residency, and
// stale links must self-invalidate via the entry tag — never execute the
// evicting block's code.
TEST(VmChaining, CollisionEvictionInvalidatesChainLinks) {
  ProgramBuilder pb;
  Assembler& a = pb.text();
  auto f1 = a.NewLabel();
  auto f2 = a.NewLabel();
  auto main_l = a.NewLabel();
  a.Jmp(main_l);
  const uint64_t f1_addr = a.Here();
  a.Bind(f1);
  a.AddI(Reg::kR15, 1);
  a.Ret();
  while (a.Here() < f1_addr + 4096) {
    a.Nop();
  }
  ASSERT_EQ(a.Here(), f1_addr + 4096);
  a.Bind(f2);
  a.AddI(Reg::kR15, 3);
  a.Ret();
  a.Bind(main_l);
  a.MovRI(Reg::kR15, 0);
  a.MovRI(Reg::kR8, 500);
  auto loop = a.NewLabel();
  a.Bind(loop);
  a.Call(f1);
  a.Call(f2);
  a.SubI(Reg::kR8, 1);
  a.CmpI(Reg::kR8, 0);
  a.Jcc(Cond::kNe, loop);
  a.MovRR(Reg::kRdi, Reg::kR15);
  a.HostCall(HostFn::kOutputU64);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  ExpectEnginesAgree(img, RuntimeKind::kBaseline, RunConfig{}, /*observe=*/false,
                     "collisions");
  // And the computed value is right, not merely engine-consistent.
  const RunOutcome out = RunImage(img, RuntimeKind::kBaseline, RunConfig{});
  ASSERT_EQ(out.outputs.size(), 1u);
  EXPECT_EQ(out.outputs[0], 2000u);
  EXPECT_GT(out.dispatch.code_cache_evictions, 0u);
}

// LoadImage while chains and traces are live: the second image overlays the
// same addresses, so any surviving link or trace would execute the first
// image's arithmetic. Runs hot loops so both images actually form traces.
TEST(VmChaining, LoadImageInvalidatesChainsAndTraces) {
  auto build = [](int64_t addend, uint64_t iters) {
    ProgramBuilder pb;
    Assembler& a = pb.text();
    a.MovRI(Reg::kR15, 0);
    a.MovRI(Reg::kR8, static_cast<int64_t>(iters));
    auto loop = a.NewLabel();
    a.Bind(loop);
    a.AddI(Reg::kR15, addend);
    a.SubI(Reg::kR8, 1);
    a.CmpI(Reg::kR8, 0);
    a.Jcc(Cond::kNe, loop);
    a.MovRR(Reg::kRdi, Reg::kR15);
    a.HostCall(HostFn::kOutputU64);
    pb.EmitExit(0);
    return pb.Finish();
  };
  const BinaryImage first = build(7, 300);
  const BinaryImage second = build(11, 200);
  Vm vm;
  GlibcLikeAllocator alloc;
  vm.set_allocator(&alloc);
  vm.LoadImage(first);
  const RunResult r1 = vm.Run();
  ASSERT_EQ(r1.reason, HaltReason::kExit);
  EXPECT_GT(vm.dispatch_stats().block_chains, 0u);
  vm.LoadImage(second);
  const RunResult r2 = vm.Run();
  ASSERT_EQ(r2.reason, HaltReason::kExit);
  ASSERT_EQ(vm.outputs().size(), 2u);
  EXPECT_EQ(vm.outputs()[0], 7u * 300u);
  EXPECT_EQ(vm.outputs()[1], 11u * 200u);
}

// Attaching a per-instruction observer moves the run to the stepper even
// under the default engine: no block is built, the observer fires once per
// instruction, and a zero-cycle observer leaves the run identical to an
// unobserved one.
TEST(VmChaining, ObserverRunsOnStepper) {
  class CountingObserver : public ExecObserver {
   public:
    uint64_t OnInstruction(Vm&, uint64_t, const Instruction&) override {
      ++count;
      return 0;
    }
    uint64_t count = 0;
  };
  const BinaryImage img = BuildHotLoop(400);
  const RunOutcome plain = RunImage(img, RuntimeKind::kBaseline, RunConfig{});
  CountingObserver obs;
  RunConfig cfg;  // default engine
  cfg.observer = &obs;
  const RunOutcome out = RunImage(img, RuntimeKind::kBaseline, cfg);
  EXPECT_EQ(out.dispatch.blocks_built, 0u);
  EXPECT_EQ(obs.count, out.result.instructions);
  const RunFingerprint want = Fingerprint(plain, "", "");
  const RunFingerprint got = Fingerprint(out, "", "");
  EXPECT_EQ(want.result, got.result);
  EXPECT_EQ(want.outputs, got.outputs);
  EXPECT_EQ(want.errors, got.errors);
  EXPECT_EQ(want.prof_counts, got.prof_counts);
  EXPECT_EQ(want.counters, got.counters);
  EXPECT_EQ(want.touched_pages, got.touched_pages);
}

}  // namespace
}  // namespace redfat
