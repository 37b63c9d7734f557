// The hardening-policy layer: ONE product-shaped knob resolving into every
// subsystem's concrete configuration.
//
// The paper exposes its check families (redzone, lowfat, size-hardening,
// read/write coverage) as independent flags; production users need modes
// with understood overhead budgets, the way libc++ ships none/fast/
// extensive/debug hardening levels. HardeningPolicy is the single source of
// truth for what gets checked where: a tier plus optional per-family
// overrides, resolved ONCE (at CLI/config time) into the knobs the
// rewriter (`rrw`), the allocators (`rheap`) and the DBI layer (`rdbi`)
// consume. Subsystems never re-decide policy.
//
// Tier -> check-family matrix (defaults; overrides may adjust a family):
//
//   tier       | lowfat  redzone-only  size-hard  reads  | runtime       dbi
//   -----------+----------------------------------------+-------------------
//   none       |   -          -            -        -    | baseline       -
//   fast       |   x          -            x        x    | redfat         -
//   extensive  |   x          x            x        x    | redfat         -
//   debug      |   x          x            x        x    | redfat-debug   x
//
//   * fast — lowfat-only inline checks: only sites with unambiguous
//     pointer arithmetic (the (LowFat)-checkable population) are
//     instrumented; ambiguous sites that would get a (Redzone)-only check
//     are left bare. Constant-time, security-critical coverage.
//   * extensive — the paper's default: redzone+lowfat, every family on.
//     Resolution is byte-identical to a RedFatOptions{} rewrite.
//   * debug — extensive's inline checks plus memcheck-grade shadow-state
//     checking of every *uninstrumented* access via the rdbi observer
//     (src/dbi/shadow_check.h) over the redfat-debug runtime, which
//     maintains both in-redzone metadata and the guest shadow map.
//
// Profile-guided tiering budgets (PR 4) are policy, not ad-hoc flags: each
// tier carries a default hot_threshold (fast demotes aggressively, debug
// never trades coverage machinery for cycles).
#ifndef REDFAT_SRC_CORE_POLICY_H_
#define REDFAT_SRC_CORE_POLICY_H_

#include <optional>
#include <string>

#include "src/core/harness.h"
#include "src/core/options.h"
#include "src/heap/rheap.h"
#include "src/support/result.h"

namespace redfat {

// The product knob, ordered by checking strength.
enum class HardenTier : uint8_t { kNone, kFast, kExtensive, kDebug };

const char* HardenTierName(HardenTier tier);
Result<HardenTier> ParseHardenTier(const std::string& name);

// The concrete, resolved configuration every subsystem consumes. Produced
// only by HardeningPolicy::Resolve() (or FromOptions for pre-policy
// callers); nothing downstream re-derives policy decisions.
struct ResolvedPolicy {
  HardenTier tier = HardenTier::kExtensive;
  bool explicit_tier = false;   // tier was chosen via a policy (not inferred)
  RedFatOptions rewrite;        // rrw/plan/codegen knobs
  RuntimeKind runtime = RuntimeKind::kRedFat;  // rheap allocator binding
  RheapOptions rheap;           // rheap allocator hardening features
  bool explicit_rheap = false;  // rheap came from an explicit --rheap list
  bool dbi_shadow_check = false;  // rdbi: attach the shadow-check observer

  // Wraps free-floating options for pre-policy call sites (RedFatTool's
  // legacy constructor). The tier is descriptive only (`explicit_tier`
  // false): no policy header is emitted for such rewrites, keeping legacy
  // artifacts byte-identical.
  static ResolvedPolicy FromOptions(const RedFatOptions& opts);
};

// User intent: a tier plus optional per-family overrides (the legacy
// `--no-*`/`--shadow` flags map here). `nullopt` means the tier decides.
struct HardeningPolicy {
  HardenTier tier = HardenTier::kExtensive;  // the paper's default

  // Check-family overrides.
  std::optional<bool> check_reads;        // --no-reads
  std::optional<bool> size_hardening;     // --no-size
  std::optional<bool> lowfat;             // --no-lowfat
  std::optional<bool> redzone_only_sites; // ambiguous-site (Redzone) checks
  std::optional<bool> shadow_impl;        // --shadow (ablation check body)

  // Optimization overrides (the Table-1 ablation axis).
  std::optional<bool> elim;   // --no-elim
  std::optional<bool> batch;  // --no-batch
  std::optional<bool> merge;  // --no-merge

  // Profile-guided tiering budget: fraction of profiled check cycles the
  // hot tier must cover. Default is per tier (fast 0.8, extensive 0.9,
  // debug 1.0); --hot-threshold overrides.
  std::optional<double> hot_threshold;

  // Allocator hardening features (--rheap=LIST). An explicit list replaces
  // the tier default wholesale (fast = perf-only, extensive =
  // +prot-freelist, debug = everything).
  std::optional<RheapOptions> rheap;

  // Validates the combination and resolves it to concrete knobs.
  // Contradictory combinations (e.g. fast+shadow, debug without lowfat)
  // return a diagnostic naming both sides of the conflict.
  Result<ResolvedPolicy> Resolve() const;
};

// The Table-1 ablation columns, kept as named policy presets so options.h
// stops encoding them by hand. Each is `extensive` plus overrides.
enum class AblationPreset { kUnoptimized, kElim, kBatch, kMerge, kNoSize, kNoReads };
HardeningPolicy AblationPolicy(AblationPreset preset);

// The default runtime binding for a tier's images (what `rfrun
// --harden=TIER` selects): none->baseline, fast/extensive->redfat,
// debug->redfat-debug.
RuntimeKind RuntimeForTier(HardenTier tier);

// The default allocator-hardening features for a tier: none/fast carry the
// perf-only defaults (every feature off, historical quarantine depth),
// extensive adds prot-freelist, debug turns everything on.
RheapOptions RheapForTier(HardenTier tier);

// Per-tier overhead budget (percent over a baseline run) asserted by
// rfbench harden-tiers and the CI harden-tiers job. Generous ceilings, not
// targets: measured slowdowns on the bench workload are far below them.
double TierOverheadBudgetPct(HardenTier tier);

}  // namespace redfat

#endif  // REDFAT_SRC_CORE_POLICY_H_
