// Hardening-tier overhead budgets (core/policy.h).
//
// Runs one mid-weight synthetic workload through the full Fig. 5 workflow
// (profile -> allow-list -> production rewrite), once per hardening tier,
// each under the tier's resolved runtime binding:
//
//   none      - uninstrumented rewrite, baseline runtime
//   fast      - lowfat-only sites ((Redzone)-demoted sites left bare)
//   extensive - the paper's default configuration
//   debug     - + redfat-debug runtime and the DBI shadow-check observer
//
// Asserts, per tier, that the measured slowdown over the baseline run stays
// within TierOverheadBudgetPct (the ceilings CI enforces), and that the
// tiers order by checking strength.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/core/policy.h"
#include "src/dbi/shadow_check.h"
#include "src/support/str.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

struct TierMeasure {
  HardenTier tier = HardenTier::kNone;
  size_t sites = 0;
  size_t redzone_dropped = 0;
  uint64_t cycles = 0;
  double overhead_pct = 0.0;
  uint64_t observer_checks = 0;
};

}  // namespace

int RunHardenTiers(const BenchArgs& args) {
  const uint64_t iterations = args.quick ? 200 : 1500;

  // A workload where the tiers genuinely differ: anti-idiom sites fail
  // profiling, fall off the allow-list, and demote to (Redzone)-only checks
  // -- which extensive keeps and fast drops.
  SynthParams p;
  p.seed = 0x7125;
  p.mem_pct = 35;
  p.stream_pct = 5;
  p.max_accesses_per_ptr = 3;
  p.anti_idiom_sites = 4;
  p.anti_idiom_pct = 12;
  const BinaryImage img = GenerateSynthProgram(p);
  const AllowList allow = ProfileAndAllow(img, {iterations / 4});

  RunConfig cfg;
  cfg.policy = Policy::kLog;
  cfg.inputs = {iterations};
  const RunOutcome base = RunImage(img, RuntimeKind::kBaseline, cfg);
  REDFAT_CHECK(base.result.reason == HaltReason::kExit);

  const HardenTier tiers[] = {HardenTier::kNone, HardenTier::kFast,
                              HardenTier::kExtensive, HardenTier::kDebug};
  std::vector<TierMeasure> rows;
  std::printf("hardening-tier overhead (synthetic workload, %llu iterations)\n\n",
              static_cast<unsigned long long>(iterations));
  std::printf("%-10s %7s %9s %14s %10s %10s\n", "tier", "sites", "dropped",
              "guest-cyc", "overhead", "budget");
  for (HardenTier tier : tiers) {
    HardeningPolicy policy;
    policy.tier = tier;
    const ResolvedPolicy resolved = policy.Resolve().value();
    RedFatTool tool(resolved);
    Result<InstrumentResult> ir = tool.Instrument(img, &allow);
    REDFAT_CHECK(ir.ok());

    ShadowCheckObserver observer;
    RunConfig tier_cfg = cfg;
    if (resolved.dbi_shadow_check) {
      tier_cfg.observer = &observer;
    }
    const RunOutcome out = RunImage(ir.value().image, resolved.runtime, tier_cfg);
    REDFAT_CHECK(out.result.reason == HaltReason::kExit);
    // The workload is FP-free by construction once the allow-list is
    // applied; every tier must run it clean and compute the same checksum.
    REDFAT_CHECK(out.outputs == base.outputs);
    REDFAT_CHECK(out.errors.empty());

    TierMeasure m;
    m.tier = tier;
    m.sites = ir.value().sites.size();
    m.redzone_dropped = ir.value().plan_stats.redzone_dropped;
    m.cycles = out.result.cycles;
    m.overhead_pct = 100.0 * (static_cast<double>(out.result.cycles) /
                                  static_cast<double>(base.result.cycles) -
                              1.0);
    m.observer_checks = observer.checks();
    rows.push_back(m);
    std::printf("%-10s %7zu %9zu %14llu %9.1f%% %9.0f%%\n", HardenTierName(tier),
                m.sites, m.redzone_dropped, static_cast<unsigned long long>(m.cycles),
                m.overhead_pct, TierOverheadBudgetPct(tier));
  }

  // The budget asserts CI relies on, plus strength ordering.
  for (const TierMeasure& m : rows) {
    REDFAT_CHECK(m.overhead_pct <= TierOverheadBudgetPct(m.tier));
  }
  REDFAT_CHECK(rows[0].sites == 0);                  // none: nothing instrumented
  REDFAT_CHECK(rows[1].redzone_dropped > 0);         // fast: dropped demoted sites
  REDFAT_CHECK(rows[1].sites < rows[2].sites);       // fast < extensive coverage
  REDFAT_CHECK(rows[2].redzone_dropped == 0);        // extensive keeps them
  REDFAT_CHECK(rows[1].cycles <= rows[2].cycles);    // ...and pays for them
  REDFAT_CHECK(rows[2].cycles < rows[3].cycles);     // debug pays for the DBI pass
  REDFAT_CHECK(rows[3].observer_checks > 0);         // the observer actually ran

  std::string json = StrFormat("\"iterations\":%llu,\"quick\":%s,",
                               static_cast<unsigned long long>(iterations),
                               args.quick ? "true" : "false");
  json += StrFormat("\"baseline_cycles\":%llu,\"tiers\":[",
                    static_cast<unsigned long long>(base.result.cycles));
  for (size_t i = 0; i < rows.size(); ++i) {
    const TierMeasure& m = rows[i];
    json += StrFormat(
        "%s{\"tier\":\"%s\",\"sites\":%zu,\"redzone_dropped\":%zu,"
        "\"guest_cycles\":%llu,\"overhead_pct\":%.2f,\"budget_pct\":%.1f,"
        "\"observer_checks\":%llu}",
        i == 0 ? "" : ",", HardenTierName(m.tier), m.sites, m.redzone_dropped,
        static_cast<unsigned long long>(m.cycles), m.overhead_pct,
        TierOverheadBudgetPct(m.tier),
        static_cast<unsigned long long>(m.observer_checks));
  }
  json += "]";
  return WriteJsonRecord(args, "harden_tiers", json);
}

}  // namespace redfat
