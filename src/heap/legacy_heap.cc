#include "src/heap/legacy_heap.h"

#include "src/support/bits.h"

namespace redfat {

uint64_t LegacyHeap::Alloc(Memory& mem, uint64_t size) {
  const uint64_t chunk_size = AlignUp(16 + padding_ + (size == 0 ? 1 : size) + padding_, 16);
  uint64_t chunk = 0;
  auto it = free_lists_.find(chunk_size);
  if (it != free_lists_.end() && !it->second.empty()) {
    chunk = it->second.back();
    it->second.pop_back();
  } else {
    const uint64_t region_end = (static_cast<uint64_t>(kLegacyHeapRegion) + 1) << kRegionShift;
    if (bump_ + chunk_size > region_end) {
      return 0;
    }
    chunk = bump_;
    bump_ += chunk_size;
  }
  mem.WriteU64(chunk, chunk_size);
  const uint64_t payload = chunk + 16 + padding_;
  live_[payload] = chunk_size;
  return payload;
}

bool LegacyHeap::Free(uint64_t ptr) {
  auto it = live_.find(ptr);
  if (it == live_.end()) {
    return false;
  }
  const uint64_t chunk_size = it->second;
  const uint64_t chunk = ptr - 16 - padding_;
  live_.erase(it);
  free_lists_[chunk_size].push_back(chunk);
  return true;
}

uint64_t LegacyHeap::SizeOf(Memory& mem, uint64_t ptr) const {
  auto it = live_.find(ptr);
  (void)mem;
  return it == live_.end() ? 0 : it->second - 16 - 2 * padding_;
}

}  // namespace redfat
