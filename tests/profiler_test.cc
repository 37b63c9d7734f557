// Tests for the interval-sampling guest profiler (vm/profiler.h): sampling
// determinism across engines, zero guest-visible cost, folded output,
// trace instants and the synthesized telemetry snapshot.
#include <gtest/gtest.h>

#include "src/core/harness.h"
#include "src/core/policy.h"
#include "src/core/redfat.h"
#include "src/support/trace.h"
#include "src/vm/profiler.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

ResolvedPolicy ResolveTier(HardenTier tier) {
  HardeningPolicy p;
  p.tier = tier;
  return p.Resolve().value();
}

InstrumentResult HardenedSynth() {
  SynthParams p;
  p.seed = 7;
  return RedFatTool(ResolveTier(HardenTier::kExtensive))
      .Instrument(GenerateSynthProgram(p))
      .value();
}

RunOutcome RunWith(const BinaryImage& image, SampleProfiler* sampler,
                   VmEngine engine = VmEngine::kBlock) {
  RunConfig cfg;
  cfg.inputs = TrainInputs(20);
  cfg.sampler = sampler;
  cfg.engine = engine;
  return RunImage(image, RuntimeKind::kRedFat, cfg);
}

TEST(SampleProfiler, SamplesAreDeterministicAndEngineInvariant) {
  const InstrumentResult hard = HardenedSynth();
  SampleProfiler block_sampler(101);
  SampleProfiler step_sampler(101);
  const RunOutcome a = RunWith(hard.image, &block_sampler, VmEngine::kBlock);
  const RunOutcome b = RunWith(hard.image, &step_sampler, VmEngine::kStep);
  EXPECT_EQ(a.result.cycles, b.result.cycles);
  EXPECT_GT(block_sampler.samples(), 0u);
  EXPECT_EQ(block_sampler.samples(), step_sampler.samples());
  EXPECT_EQ(block_sampler.ToFolded(), step_sampler.ToFolded());
  EXPECT_EQ(block_sampler.SynthesizeMetrics().ToJson(),
            step_sampler.SynthesizeMetrics().ToJson());
  // Sample count matches the period arithmetic exactly.
  EXPECT_EQ(block_sampler.samples(), a.result.instructions / 101);
}

// Samples taken while execution is inside chained block sequences and baked
// traces must attribute to the same addresses/regions as under the stepper:
// the folded flamegraph output and synthesized per-site metrics are the same
// under the stepper and the fast engine.
TEST(SampleProfiler, FoldedOutputInvariantUnderChainingAndTraces) {
  const InstrumentResult hard = HardenedSynth();
  SampleProfiler step_sampler(101);
  SampleProfiler chained_sampler(101);
  const RunOutcome s = RunWith(hard.image, &step_sampler, VmEngine::kStep);
  const RunOutcome c = RunWith(hard.image, &chained_sampler, VmEngine::kBlock);
  // The fast-engine run actually exercised chaining and traces (sampling,
  // unlike a per-instruction observer, keeps the run on the fast engine).
  EXPECT_GT(c.dispatch.block_chains, 0u);
  EXPECT_GT(c.dispatch.trace_runs, 0u);
  EXPECT_EQ(s.result.cycles, c.result.cycles);
  EXPECT_GT(chained_sampler.samples(), 0u);
  EXPECT_EQ(step_sampler.samples(), chained_sampler.samples());
  EXPECT_EQ(step_sampler.ToFolded(), chained_sampler.ToFolded());
  EXPECT_EQ(step_sampler.SynthesizeMetrics().ToJson(),
            chained_sampler.SynthesizeMetrics().ToJson());
}

TEST(SampleProfiler, AttachingTheSamplerDoesNotChangeTheRun) {
  const InstrumentResult hard = HardenedSynth();
  const RunOutcome plain = RunWith(hard.image, nullptr);
  SampleProfiler sampler(17);
  const RunOutcome sampled = RunWith(hard.image, &sampler);
  EXPECT_EQ(plain.result.cycles, sampled.result.cycles);
  EXPECT_EQ(plain.result.instructions, sampled.result.instructions);
  EXPECT_EQ(plain.outputs, sampled.outputs);
}

TEST(SampleProfiler, HardenedRunAttributesTrampolineSamples) {
  const InstrumentResult hard = HardenedSynth();
  SampleProfiler sampler(23);
  RunWith(hard.image, &sampler);
  const std::string folded = sampler.ToFolded();
  EXPECT_NE(folded.find(";user;"), std::string::npos);
  EXPECT_NE(folded.find(";tramp;site#"), std::string::npos);
}

TEST(SampleProfiler, FoldedOutputFormat) {
  SampleProfiler p(100);
  p.SetImageName(0, "prog.rfbin");
  // Two user samples in the same 64-byte bucket, one tramp sample at a site.
  p.TakeSample(0x400010, 100, 500, 0, SampleProfiler::Region::kUser, false, 0);
  p.TakeSample(0x400030, 200, 900, 0, SampleProfiler::Region::kUser, false, 0);
  p.TakeSample(0x10400000, 300, 1200, 0, SampleProfiler::Region::kTramp, true, 42);
  EXPECT_EQ(p.samples(), 3u);
  EXPECT_EQ(p.ToFolded(),
            "prog.rfbin;user;0x400000 2\n"
            "prog.rfbin;tramp;site#42 1\n");
}

TEST(SampleProfiler, SynthesizedMetricsEstimateSiteCosts) {
  SampleProfiler p(50);
  for (int i = 0; i < 4; ++i) {
    p.TakeSample(0x10400000, 50 * (i + 1), 100, 0,
                 SampleProfiler::Region::kTramp, true, 7);
  }
  p.TakeSample(0x400000, 250, 600, 0, SampleProfiler::Region::kInline, true, 9);
  p.TakeSample(0x400040, 300, 700, 0, SampleProfiler::Region::kUser, false, 0);

  const TelemetrySnapshot snap = p.SynthesizeMetrics();
  const SiteTelemetry* s7 = snap.FindSite(7);
  ASSERT_NE(s7, nullptr);
  EXPECT_EQ(s7->checks(), 4u);
  EXPECT_EQ(s7->tramp_cycles(), 200u);  // samples * period
  EXPECT_EQ(s7->inline_cycles(), 0u);
  const SiteTelemetry* s9 = snap.FindSite(9);
  ASSERT_NE(s9, nullptr);
  EXPECT_EQ(s9->inline_cycles(), 50u);
  EXPECT_EQ(snap.counters.at("profile.period"), 50u);
  EXPECT_EQ(snap.counters.at("profile.samples"), 6u);
  EXPECT_EQ(snap.counters.at("profile.samples_unattributed"), 1u);
}

TEST(SampleProfiler, TraceInstantsCarrySampleArgs) {
  SampleProfiler p(10);
  p.TakeSample(0x400020, 10, 40, 0, SampleProfiler::Region::kUser, false, 0);
  p.TakeSample(0x10400008, 20, 90, 0, SampleProfiler::Region::kTramp, true, 3);
  TraceWriter trace;
  p.AppendTrace(trace);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"sample.user\""), std::string::npos);
  EXPECT_NE(json.find("\"sample.tramp\""), std::string::npos);
  EXPECT_NE(json.find("\"site\":3"), std::string::npos);
}

TEST(SampleProfiler, PeriodZeroClampsToOne) {
  SampleProfiler p(0);
  EXPECT_EQ(p.period(), 1u);
}

}  // namespace
}  // namespace redfat
