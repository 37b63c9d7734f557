// Determinism stress test for the parallel rewrite path: for a corpus of
// golden configurations, the instrumented image produced at
// --jobs ∈ {1, 2, 8} must be byte-identical, and the per-pass items/changed
// stats must match exactly — the schedule may change timings, never results.
//
// Only the merge, liveness and codegen passes run on the pool; the corpus
// exercises them over many trampoline counts and chunk layouts:
//   * every optimization tier of Table 1 (unopt / +elim / +batch / +merge),
//     plus -size, -reads, profile mode and the shadow-redzone ablation;
//   * a Kraken image (large, filler-heavy text);
//   * a synthetic image > 64 KiB of text, large enough that codegen splits
//     its spans into many chunks and the pool schedules them unevenly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/redfat.h"
#include "src/workloads/kraken.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

struct GoldenConfig {
  const char* name;
  RedFatOptions opts;
};

std::vector<GoldenConfig> GoldenConfigs() {
  RedFatOptions shadow;
  shadow.redzone_impl = RedzoneImpl::kShadow;
  return {
      {"unoptimized", RedFatOptions::Unoptimized()},
      {"elim", RedFatOptions::Elim()},
      {"batch", RedFatOptions::Batch()},
      {"merge", RedFatOptions::Merge()},
      {"no-size", RedFatOptions::NoSize()},
      {"no-reads", RedFatOptions::NoReads()},
      {"profile", RedFatOptions::Profile()},
      {"shadow", shadow},
  };
}

// Instruments `img` under `opts` at the given job count; returns the
// serialized image plus a stats fingerprint (items/changed per pass).
struct RewriteResult {
  std::vector<uint8_t> bytes;
  std::vector<std::string> stats;
  size_t sites = 0;
};

RewriteResult Rewrite(const BinaryImage& img, RedFatOptions opts, unsigned jobs) {
  opts.jobs = jobs;
  RedFatTool tool(opts);
  Result<InstrumentResult> r = tool.Instrument(img);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error());
  RewriteResult out;
  if (!r.ok()) {
    return out;
  }
  out.bytes = r.value().image.Serialize();
  out.sites = r.value().sites.size();
  for (const PassStats& p : r.value().pipeline_stats.passes) {
    out.stats.push_back(p.name + ":" + std::to_string(p.items) + "/" +
                        std::to_string(p.changed));
  }
  return out;
}

void ExpectJobsInvariant(const BinaryImage& img, const char* image_name) {
  for (const GoldenConfig& cfg : GoldenConfigs()) {
    const RewriteResult serial = Rewrite(img, cfg.opts, 1);
    ASSERT_FALSE(serial.bytes.empty()) << image_name << "/" << cfg.name;
    for (unsigned jobs : {2u, 8u}) {
      const RewriteResult parallel = Rewrite(img, cfg.opts, jobs);
      EXPECT_EQ(parallel.bytes, serial.bytes)
          << image_name << "/" << cfg.name << " jobs=" << jobs
          << ": output image differs from --jobs=1";
      EXPECT_EQ(parallel.stats, serial.stats)
          << image_name << "/" << cfg.name << " jobs=" << jobs
          << ": per-pass items/changed differ from --jobs=1";
      EXPECT_EQ(parallel.sites, serial.sites)
          << image_name << "/" << cfg.name << " jobs=" << jobs;
    }
  }
}

TEST(DeterminismStressTest, MidWeightSynthImage) {
  SynthParams p;
  p.seed = 0xd57e55;
  p.mem_pct = 35;
  p.stream_pct = 6;
  p.churn_pct = 4;
  p.max_accesses_per_ptr = 4;
  ExpectJobsInvariant(GenerateSynthProgram(p), "synth-mid");
}

TEST(DeterminismStressTest, LargeTextImage) {
  // > 64 KiB of text: many trampolines spread over every codegen chunk,
  // each chunk rebased to its final address.
  SynthParams p;
  p.seed = 0xb16;
  p.mem_pct = 40;
  p.block_len = 60;
  p.filler_funcs = 600;
  p.filler_units_per_func = 8;
  const BinaryImage img = GenerateSynthProgram(p);
  uint64_t text_bytes = 0;
  for (const Section& s : img.sections) {
    if (s.kind == Section::Kind::kText) {
      text_bytes += s.bytes.size();
    }
  }
  ASSERT_GT(text_bytes, 64u * 1024u) << "workload too small";
  ExpectJobsInvariant(img, "synth-large");
}

TEST(DeterminismStressTest, KrakenImage) {
  // One representative Kraken benchmark (big filler-heavy binary, the
  // paper's Chrome-scale shape). The full suite would be minutes; one image
  // exercises the same code paths.
  const KrakenBenchmark& bench = KrakenSuite().front();
  ExpectJobsInvariant(BuildKrakenBenchmark(bench), bench.name.c_str());
}

}  // namespace
}  // namespace redfat
