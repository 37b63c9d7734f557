// The unified allocator cycle-cost model.
//
// Every modeled allocator charge in the tree comes from this one table so
// that benches, allocators and the DBI runtimes price the same operation the
// same way. Costs are cycles *beyond* the hostcall base (CostModel::
// hostcall_base in src/vm/vm.h), per operation.
//
// Two families:
//
//   * Legacy/glibc-like path — the historical 25/15 constants. These are the
//     uninstrumented-baseline costs and must never change: baseline runs are
//     the byte-identity anchor every ablation compares against.
//
//   * rheap O(1) fast path — the segmented-arena + in-guest-freelist
//     allocator (DESIGN.md §4.14). A malloc is either a bump-pointer carve
//     (kBumpAlloc, with kArenaCarve amortized once per fresh arena segment)
//     or a freelist pop (kFreelistPop); both then pay the redzone metadata
//     store (kRedzoneMeta). A free is a freelist push (kFreePush) plus the
//     metadata clear. The per-feature adders price each --rheap hardening
//     feature separately; each one must stay under 5% of the hot
//     malloc+free pair (CI-gated by rfbench heap-throughput).
#ifndef REDFAT_SRC_HEAP_COST_MODEL_H_
#define REDFAT_SRC_HEAP_COST_MODEL_H_

#include <cstdint>

namespace redfat {
namespace heapcost {

// --- legacy/glibc-like path (baseline; frozen) -----------------------------
inline constexpr uint64_t kLegacyMalloc = 25;
inline constexpr uint64_t kLegacyFree = 15;

// --- rheap O(1) fast path --------------------------------------------------
// Bump carve out of the current arena segment: one compare + one add.
inline constexpr uint64_t kBumpAlloc = 13;
// Carving a fresh arena segment (watermark setup, lazy-poison bookkeeping);
// charged once per kArenaSlots allocations, not per malloc.
inline constexpr uint64_t kArenaCarve = 24;
// Popping the in-guest freelist head: one guest load + head update.
inline constexpr uint64_t kFreelistPop = 15;
// Pushing onto the in-guest freelist: one guest store + head update.
inline constexpr uint64_t kFreePush = 11;
// Redzone state/size metadata store (malloc) or clear (free).
inline constexpr uint64_t kRedzoneMeta = 4;

// --- per-feature adders (each < 5% of the malloc+free pair) ----------------
// prot-freelist: decode + validate the obfuscated link on every pop. The
// free-side encode folds into the link store and is not charged separately.
inline constexpr uint64_t kProtDecode = 1;
// random: the reuse-order coin flip / randomized placement decision.
inline constexpr uint64_t kRandomPick = 1;
// quarantine=N: FIFO insert + conditional drain bookkeeping per free.
inline constexpr uint64_t kQuarantinePush = 1;
// guard-memcpy: one range check per guarded memcpy/memset *range* (charged
// per hostcall, never on the malloc/free fast path).
inline constexpr uint64_t kGuardRange = 3;

// --- O(size) shadow marking (shadow/debug allocators, memcheck DBI) --------
inline constexpr uint64_t kShadowMarkBase = 5;
inline constexpr uint64_t kShadowBytesPerCycle = 64;

inline constexpr uint64_t ShadowMarkCycles(uint64_t bytes) {
  return kShadowMarkBase + bytes / kShadowBytesPerCycle;
}

}  // namespace heapcost
}  // namespace redfat

#endif  // REDFAT_SRC_HEAP_COST_MODEL_H_
