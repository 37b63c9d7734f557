// rheap hardening-feature options (ROADMAP: snmalloc-grade allocator
// hardening; snmalloc docs/security/).
//
// Each feature is orthogonal to the redzone+lowfat checks and is priced
// separately by rfbench heap-throughput / rfbench ablation-allocator:
//
//   prot-freelist  obfuscate in-guest freelist links and validate them on
//                  every pop; forged/corrupted links raise
//                  ErrorKind::kFreelistCorruption instead of being followed.
//   guard-memcpy   pre-check guest memcpy/memset ranges against allocator
//                  metadata (redzone overlap, freed object, length overflow).
//   random         randomized slot placement and reuse order (probabilistic
//                  defense; detection guarantees unchanged).
//   quarantine=N   delay slot reuse by N frees per size class (0 disables).
//
// The canonical spelling is the CLI list `--rheap=prot-freelist,guard-
// memcpy,random,quarantine=N` (or `none`). Policy tiers map to defaults in
// src/core/policy.h: fast = perf-only, extensive = +prot-freelist,
// debug = everything.
#ifndef REDFAT_SRC_HEAP_RHEAP_H_
#define REDFAT_SRC_HEAP_RHEAP_H_

#include <cstdint>
#include <string>

#include "src/support/result.h"

namespace redfat {

struct RheapOptions {
  bool prot_freelist = false;
  bool guard_memcpy = false;
  bool random = false;
  // Per-size-class quarantine depth. The default matches the historical
  // allocator constructor default; an explicit --rheap list overrides it.
  unsigned quarantine_slots = 64;
  // Seed for `random` (placement + reuse order). Harness runs derive it
  // from the run's rng_seed so randomized layouts are reproducible.
  uint64_t random_seed = 0x5eed;

  bool any_hardening() const { return prot_freelist || guard_memcpy || random; }

  bool operator==(const RheapOptions& o) const {
    return prot_freelist == o.prot_freelist && guard_memcpy == o.guard_memcpy &&
           random == o.random && quarantine_slots == o.quarantine_slots;
  }
  bool operator!=(const RheapOptions& o) const { return !(*this == o); }
};

// Parses a --rheap feature list ("prot-freelist,quarantine=8", "none", ...).
// An explicit list is absolute: parsing starts from all-features-off with
// quarantine=0, so `--rheap=prot-freelist` means *only* prot-freelist.
// `none` must appear alone. random_seed is left at its default; callers
// reseed from their run configuration.
Result<RheapOptions> ParseRheapList(const std::string& list);

// Canonical list form ("none" when everything incl. quarantine is off).
// Round-trips through ParseRheapList; used for the sitemap `# rheap:` header
// and reports.
std::string RheapListName(const RheapOptions& opts);

}  // namespace redfat

#endif  // REDFAT_SRC_HEAP_RHEAP_H_
