#include "src/core/policy.h"

#include "src/support/str.h"

namespace redfat {

const char* HardenTierName(HardenTier tier) {
  switch (tier) {
    case HardenTier::kNone:
      return "none";
    case HardenTier::kFast:
      return "fast";
    case HardenTier::kExtensive:
      return "extensive";
    case HardenTier::kDebug:
      return "debug";
  }
  return "?";
}

Result<HardenTier> ParseHardenTier(const std::string& name) {
  if (name == "none") {
    return HardenTier::kNone;
  }
  if (name == "fast") {
    return HardenTier::kFast;
  }
  if (name == "extensive") {
    return HardenTier::kExtensive;
  }
  if (name == "debug") {
    return HardenTier::kDebug;
  }
  return Error(StrFormat(
      "unknown hardening tier '%s' (expected none|fast|extensive|debug)", name.c_str()));
}

ResolvedPolicy ResolvedPolicy::FromOptions(const RedFatOptions& opts) {
  ResolvedPolicy r;
  r.rewrite = opts;
  r.explicit_tier = false;
  // Descriptive only: classify the free-floating options onto the nearest
  // tier so reports can still label the configuration.
  if (!opts.check_reads && !opts.check_writes) {
    r.tier = HardenTier::kNone;
    r.runtime = RuntimeKind::kBaseline;
  } else if (!opts.redzone_only_sites) {
    r.tier = HardenTier::kFast;
    r.runtime = RuntimeKind::kRedFat;
  } else {
    r.tier = HardenTier::kExtensive;
    r.runtime = opts.redzone_impl == RedzoneImpl::kShadow ? RuntimeKind::kRedFatShadow
                                                          : RuntimeKind::kRedFat;
  }
  return r;
}

Result<ResolvedPolicy> HardeningPolicy::Resolve() const {
  const char* tname = HardenTierName(tier);
  // Conflict validation first: a contradictory combination must error with
  // a diagnostic naming both sides, never silently resolve (the CLI maps
  // legacy flags like --shadow/--no-lowfat onto these overrides).
  switch (tier) {
    case HardenTier::kNone:
      if (shadow_impl == true) {
        return Error(StrFormat(
            "--harden=%s disables all checks; --shadow selects a redzone "
            "implementation and has nothing to apply to", tname));
      }
      if (rheap.has_value()) {
        return Error(StrFormat(
            "--harden=%s binds the baseline (glibc-like) allocator; --rheap "
            "configures the hardened allocator and has nothing to apply to",
            tname));
      }
      break;
    case HardenTier::kFast:
      if (lowfat == false) {
        return Error(StrFormat(
            "--harden=%s is lowfat-only inline checking; --no-lowfat would "
            "leave no checks at all (use --harden=none for that)", tname));
      }
      if (shadow_impl == true) {
        return Error(StrFormat(
            "--harden=%s emits no (Redzone)-only sites; the --shadow redzone "
            "implementation only applies to --harden=extensive", tname));
      }
      if (redzone_only_sites == true) {
        return Error(StrFormat(
            "--harden=%s drops (Redzone)-only sites by definition; use "
            "--harden=extensive to keep them", tname));
      }
      break;
    case HardenTier::kExtensive:
      break;
    case HardenTier::kDebug:
      if (lowfat == false) {
        return Error(StrFormat(
            "--harden=%s layers shadow-state checking over the full lowfat "
            "runtime; --no-lowfat contradicts it", tname));
      }
      if (shadow_impl == true) {
        return Error(StrFormat(
            "--harden=%s uses in-redzone metadata plus the guest shadow map; "
            "the --shadow check-body ablation conflicts with its runtime", tname));
      }
      break;
  }

  ResolvedPolicy r;
  r.tier = tier;
  r.explicit_tier = true;
  r.runtime = RuntimeForTier(tier);
  r.rheap = rheap.has_value() ? *rheap : RheapForTier(tier);
  r.explicit_rheap = rheap.has_value();
  RedFatOptions& o = r.rewrite;  // starts at the extensive/default knobs

  // Tier defaults.
  switch (tier) {
    case HardenTier::kNone:
      o.check_reads = false;
      o.check_writes = false;
      break;
    case HardenTier::kFast:
      o.redzone_only_sites = false;
      o.hot_threshold = 0.8;  // demote aggressively: fast trades coverage for cycles
      break;
    case HardenTier::kExtensive:
      break;  // byte-identical to RedFatOptions{}
    case HardenTier::kDebug:
      o.hot_threshold = 1.0;  // never demote: keep every check at full strength
      r.dbi_shadow_check = true;
      break;
  }

  // Per-family overrides (validated above; applied on top of the tier).
  if (check_reads.has_value()) {
    o.check_reads = *check_reads;
  }
  if (size_hardening.has_value()) {
    o.size_hardening = *size_hardening;
  }
  if (lowfat.has_value()) {
    o.lowfat = *lowfat;
  }
  if (redzone_only_sites.has_value()) {
    o.redzone_only_sites = *redzone_only_sites;
  }
  if (shadow_impl.has_value() && *shadow_impl) {
    o.redzone_impl = RedzoneImpl::kShadow;
    if (tier == HardenTier::kExtensive) {
      r.runtime = RuntimeKind::kRedFatShadow;
    }
  }
  if (elim.has_value()) {
    o.elim = *elim;
  }
  if (batch.has_value()) {
    o.batch = *batch;
  }
  if (merge.has_value()) {
    o.merge = *merge;
  }
  if (hot_threshold.has_value()) {
    o.hot_threshold = *hot_threshold;
  }
  return r;
}

HardeningPolicy AblationPolicy(AblationPreset preset) {
  HardeningPolicy p;  // extensive base, like Table 1's full configuration
  switch (preset) {
    case AblationPreset::kUnoptimized:
      p.elim = false;
      p.batch = false;
      p.merge = false;
      break;
    case AblationPreset::kElim:
      p.batch = false;
      p.merge = false;
      break;
    case AblationPreset::kBatch:
      p.merge = false;
      break;
    case AblationPreset::kMerge:
      break;
    case AblationPreset::kNoSize:
      p.size_hardening = false;
      break;
    case AblationPreset::kNoReads:
      p.size_hardening = false;
      p.check_reads = false;
      break;
  }
  return p;
}

RuntimeKind RuntimeForTier(HardenTier tier) {
  switch (tier) {
    case HardenTier::kNone:
      return RuntimeKind::kBaseline;
    case HardenTier::kFast:
    case HardenTier::kExtensive:
      return RuntimeKind::kRedFat;
    case HardenTier::kDebug:
      return RuntimeKind::kRedFatDebug;
  }
  return RuntimeKind::kBaseline;
}

RheapOptions RheapForTier(HardenTier tier) {
  RheapOptions o;  // perf-only defaults: features off, quarantine=64
  switch (tier) {
    case HardenTier::kNone:
    case HardenTier::kFast:
      break;
    case HardenTier::kExtensive:
      o.prot_freelist = true;
      break;
    case HardenTier::kDebug:
      o.prot_freelist = true;
      o.guard_memcpy = true;
      o.random = true;
      break;
  }
  return o;
}

double TierOverheadBudgetPct(HardenTier tier) {
  // Ceilings over the simulated cycle model, which prices trampoline
  // dispatch far above real hardware (the paper's wall-clock regime is
  // ~1.25-1.6x; rfbench harden-tiers measures ~2.3x/~2.9x/~17x here). The
  // value is the regression tripwire CI asserts, not a target.
  switch (tier) {
    case HardenTier::kNone:
      return 1.0;  // uninstrumented: any overhead is a harness bug
    case HardenTier::kFast:
      return 300.0;
    case HardenTier::kExtensive:
      return 400.0;
    case HardenTier::kDebug:
      return 2500.0;  // DBI-grade: not a production configuration
  }
  return 0.0;
}

// The Table-1 ablation factories (declared in options.h) are defined here,
// through the policy layer, so options.h stops encoding the presets by
// hand. Resolution of a valid preset cannot fail.
RedFatOptions RedFatOptions::Unoptimized() {
  return AblationPolicy(AblationPreset::kUnoptimized).Resolve().value().rewrite;
}
RedFatOptions RedFatOptions::Elim() {
  return AblationPolicy(AblationPreset::kElim).Resolve().value().rewrite;
}
RedFatOptions RedFatOptions::Batch() {
  return AblationPolicy(AblationPreset::kBatch).Resolve().value().rewrite;
}
RedFatOptions RedFatOptions::Merge() {
  return AblationPolicy(AblationPreset::kMerge).Resolve().value().rewrite;
}
RedFatOptions RedFatOptions::NoSize() {
  return AblationPolicy(AblationPreset::kNoSize).Resolve().value().rewrite;
}
RedFatOptions RedFatOptions::NoReads() {
  return AblationPolicy(AblationPreset::kNoReads).Resolve().value().rewrite;
}

}  // namespace redfat
