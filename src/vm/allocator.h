// Guest allocator binding.
//
// Guest programs call malloc/free through HostFn::kMalloc / HostFn::kFree.
// Which implementation services the call is a property of the VM runtime,
// exactly like swapping the allocator via LD_PRELOAD in the paper: the
// uninstrumented baseline binds a glibc-like allocator, RedFat-hardened runs
// bind the redzone/low-fat wrapper (libredfat), and the Memcheck-like
// baseline binds its own redzone+shadow allocator.
#ifndef REDFAT_SRC_VM_ALLOCATOR_H_
#define REDFAT_SRC_VM_ALLOCATOR_H_

#include <cstdint>

#include "src/isa/abi.h"
#include "src/vm/memory.h"

namespace redfat {

struct AllocOutcome {
  uint64_t ptr = 0;     // 0 on failure (like malloc returning NULL)
  uint64_t cycles = 0;  // cost charged to the guest for the call
  // The allocator detected tampering with its own metadata while servicing
  // the call (e.g. a forged freelist link). The allocation itself still
  // succeeded where possible; the VM reports the error.
  bool corrupted = false;
  ErrorKind corrupt_kind = ErrorKind::kFreelistCorruption;
  uint64_t corrupt_addr = 0;  // guest address of the tampered word
};

struct FreeOutcome {
  uint64_t cycles = 0;
  bool corrupted = false;  // invalid/overlapping free or tampered chain
  ErrorKind corrupt_kind = ErrorKind::kFreelistCorruption;
  uint64_t corrupt_addr = 0;
  // The pointer was never handed out (or is already free) and the allocator
  // has no diagnosis for it: the guest faults, as glibc aborts on it.
  bool invalid = false;
};

// Result of pre-checking a guest memcpy/memset range against allocator
// metadata (the guard-memcpy rheap feature). Allocators that do not
// implement guarding return the default: zero cost, no violation.
struct GuardOutcome {
  uint64_t cycles = 0;
  bool violation = false;
  ErrorKind kind = ErrorKind::kBounds;
  uint64_t addr = 0;  // first faulting guest address
};

class GuestAllocator {
 public:
  virtual ~GuestAllocator() = default;

  virtual AllocOutcome Malloc(Memory& mem, uint64_t size) = 0;
  // ptr == 0 is a no-op (free(NULL)).
  virtual FreeOutcome Free(Memory& mem, uint64_t ptr) = 0;

  // Pre-checks [addr, addr+len) before a bulk guest memory operation.
  // Default: no guarding.
  virtual GuardOutcome GuardRange(Memory& mem, uint64_t addr, uint64_t len) {
    (void)mem;
    (void)addr;
    (void)len;
    return GuardOutcome{};
  }

  virtual const char* name() const = 0;
};

}  // namespace redfat

#endif  // REDFAT_SRC_VM_ALLOCATOR_H_
