// Daemon-cache benchmark: what does rewrite-as-a-service actually buy?
//
// Drives a RewriteService (the redfatd engine, in-process — no socket noise)
// through the three request cells and times each:
//   * cold miss      — unseen image, full pipeline run on the warm pool;
//   * warm hit       — same request again, served from the content-addressed
//                      cache without touching the pipeline;
//   * incremental    — a tiered request against warm analysis: checkpoint
//     re-tier          restore + tier..patch only;
//   * full re-tier   — the same tiered request with no usable warm analysis
//                      (hot_threshold perturbed, so the base key misses):
//                      the cost the incremental path avoids.
//
// Asserts (REDFAT_CHECK — the CI gate rides on these):
//   * every cell's bytes are identical to a fresh offline rewrite;
//   * warm hits are >= 10x faster than cold misses;
//   * incremental re-tier is measurably faster than the full tiered rerun
//     (>= 20% wall-time cut).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/serve/fingerprint.h"
#include "src/serve/service.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

double Median(std::vector<double> xs) {
  REDFAT_CHECK(!xs.empty());
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

BinaryImage BenchImage(uint64_t seed, bool quick) {
  // Check-heavy and big enough that a cold rewrite takes real wall time;
  // filler functions scale instrumentation work without slowing the guest.
  SynthParams p;
  p.seed = seed;
  p.mem_pct = 35;
  p.stream_pct = 6;
  p.global_pct = 8;
  p.call_pct = 6;
  p.max_accesses_per_ptr = 4;
  p.block_len = 60;
  p.filler_funcs = quick ? 200 : 1000;
  p.filler_units_per_func = 8;
  return GenerateSynthProgram(p);
}

std::string ProfileJsonFor(const BinaryImage& hardened) {
  TelemetryRegistry reg;
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  cfg.telemetry = &reg;
  cfg.inputs = {50, 0x3f};
  const RunOutcome out = RunImage(hardened, RuntimeKind::kRedFat, cfg);
  REDFAT_CHECK(out.result.reason == HaltReason::kExit);
  return reg.Snapshot().ToJson();
}

}  // namespace

int RunDaemonCache(const BenchArgs& args) {
  const bool quick = args.quick;
  const int cold_reps = quick ? 3 : 6;
  const int hit_reps = quick ? 20 : 50;
  const int tier_reps = quick ? 3 : 6;

  const RedFatOptions opts;
  RewriteService::Config cfg;
  cfg.jobs = 1;
  cfg.cache_bytes = 0;  // unbounded: this bench measures latency, not eviction
  RewriteService svc(cfg);

  // --- cold misses: distinct images, full pipeline every time ---------------
  std::vector<std::vector<uint8_t>> wires;
  std::vector<double> cold_ms;
  for (int i = 0; i < cold_reps; ++i) {
    wires.push_back(BenchImage(0xdc0 + static_cast<uint64_t>(i), quick).Serialize());
    const double t0 = NowMs();
    Result<RewriteService::Outcome> r = svc.Rewrite(wires.back(), opts, "");
    const double t1 = NowMs();
    REDFAT_CHECK(r.ok());
    REDFAT_CHECK(!r.value().cache_hit);
    cold_ms.push_back(t1 - t0);
  }

  // Identity: the daemon's cold output is a fresh offline rewrite's output.
  Result<BinaryImage> img0 = BinaryImage::Deserialize(wires[0]);
  REDFAT_CHECK(img0.ok());
  const InstrumentResult offline_untiered = MustInstrument(img0.value(), opts);
  Result<RewriteService::Outcome> probe = svc.Rewrite(wires[0], opts, "");
  REDFAT_CHECK(probe.ok());
  REDFAT_CHECK(probe.value().cache_hit);
  REDFAT_CHECK(probe.value().image_bytes == offline_untiered.image.Serialize());

  // --- warm hits -------------------------------------------------------------
  std::vector<double> hit_ms;
  for (int i = 0; i < hit_reps; ++i) {
    const double t0 = NowMs();
    Result<RewriteService::Outcome> r = svc.Rewrite(wires[0], opts, "");
    const double t1 = NowMs();
    REDFAT_CHECK(r.ok());
    REDFAT_CHECK(r.value().cache_hit);
    hit_ms.push_back(t1 - t0);
  }

  // --- tiered requests -------------------------------------------------------
  const std::string profile_json = ProfileJsonFor(offline_untiered.image);
  Result<TelemetrySnapshot> snap = TelemetrySnapshotFromJson(profile_json);
  REDFAT_CHECK(snap.ok());
  REDFAT_CHECK(!snap.value().sites.empty());

  // Offline tiered reference for the identity check.
  Result<TierProfile> profile = TierProfileFromSnapshotJson(profile_json);
  REDFAT_CHECK(profile.ok());
  RedFatOptions tiered_opts = opts;
  tiered_opts.tier_profile = &profile.value();
  const InstrumentResult offline_tiered = MustInstrument(img0.value(), tiered_opts);

  Result<RewriteService::Outcome> retier0 = svc.Rewrite(wires[0], opts, profile_json);
  REDFAT_CHECK(retier0.ok());
  REDFAT_CHECK(retier0.value().incremental_retier);
  REDFAT_CHECK(retier0.value().image_bytes == offline_tiered.image.Serialize());

  // Incremental re-tiers: perturb the profile content each round (a fresh
  // profile_fp, as a periodic profile refresh would produce) so every
  // request misses the artifact cache but finds warm analysis.
  std::vector<double> retier_ms;
  for (int i = 0; i < tier_reps; ++i) {
    TelemetrySnapshot perturbed = snap.value();
    perturbed.sites[0].counts[4] += static_cast<uint64_t>(i + 1);
    const std::string json = perturbed.ToJson();
    const double t0 = NowMs();
    Result<RewriteService::Outcome> r = svc.Rewrite(wires[0], opts, json);
    const double t1 = NowMs();
    REDFAT_CHECK(r.ok());
    REDFAT_CHECK(r.value().incremental_retier);
    retier_ms.push_back(t1 - t0);
  }

  // Full tiered reruns: a perturbed hot_threshold changes the option
  // fingerprint, so the base-key lookup finds no warm analysis and the
  // whole pipeline runs again — the cost the incremental path skips.
  std::vector<double> full_ms;
  for (int i = 0; i < tier_reps; ++i) {
    RedFatOptions full_opts = opts;
    full_opts.hot_threshold = 0.80 + 0.002 * i;
    const double t0 = NowMs();
    Result<RewriteService::Outcome> r = svc.Rewrite(wires[0], full_opts, profile_json);
    const double t1 = NowMs();
    REDFAT_CHECK(r.ok());
    REDFAT_CHECK(!r.value().cache_hit);
    REDFAT_CHECK(!r.value().incremental_retier);
    full_ms.push_back(t1 - t0);
  }

  const double cold = Median(cold_ms);
  const double hit = Median(hit_ms);
  const double retier = Median(retier_ms);
  const double full = Median(full_ms);

  std::printf("daemon-cache bench: image %zu bytes, %d cold / %d hit / %d tier reps\n\n",
              wires[0].size(), cold_reps, hit_reps, tier_reps);
  std::printf("%20s %12s\n", "cell", "median(ms)");
  std::printf("%20s %12.3f\n", "cold miss", cold);
  std::printf("%20s %12.3f\n", "warm hit", hit);
  std::printf("%20s %12.3f\n", "incremental re-tier", retier);
  std::printf("%20s %12.3f\n", "full tiered rerun", full);
  std::printf("\nhit speedup %.1fx, re-tier cut %.1f%%\n", cold / hit,
              100.0 * (1.0 - retier / full));

  // The acceptance bars.
  REDFAT_CHECK(hit * 10.0 <= cold);
  REDFAT_CHECK(retier * 1.25 <= full);  // >= 20% wall-time cut

  std::string json = StrFormat("\"quick\":%s,\"image_bytes\":%zu,",
                               quick ? "true" : "false", wires[0].size());
  json += StrFormat("\"cold_miss_ms\":%.3f,\"warm_hit_ms\":%.3f,", cold, hit);
  json += StrFormat("\"incremental_retier_ms\":%.3f,\"full_tier_ms\":%.3f,", retier, full);
  json += StrFormat("\"hit_speedup\":%.1f,\"retier_cut_pct\":%.1f,", cold / hit,
                    100.0 * (1.0 - retier / full));
  json += "\"identical\":true";
  return WriteJsonRecord(args, "daemon_cache", json);
}

}  // namespace redfat
