// Sparse paged guest memory.
//
// The guest address space follows the paper's layout literally (32 GiB
// low-fat regions, stacks and code far below them), which only works because
// pages are materialized lazily: an untouched 32 GiB region costs nothing.
//
// A direct-mapped software TLB sits in front of the page map: the aligned
// Read/Write fast path is an index, a tag compare and a memcpy, falling back
// to the unordered_map only on a TLB miss. Page objects are individually
// heap-allocated and never freed for the lifetime of the Memory, so cached
// pointers stay valid across map rehashes; absent pages are deliberately not
// cached (a later Write could materialize them behind the TLB's back).
#ifndef REDFAT_SRC_VM_MEMORY_H_
#define REDFAT_SRC_VM_MEMORY_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace redfat {

class Memory {
 public:
  static constexpr unsigned kPageShift = 12;
  static constexpr uint64_t kPageSize = uint64_t{1} << kPageShift;

  Memory() = default;
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  // Reads `size` (1/2/4/8) bytes, zero-extended. Untouched memory reads as 0.
  uint64_t Read(uint64_t addr, unsigned size) const;
  // Writes the low `size` bytes of value.
  void Write(uint64_t addr, uint64_t value, unsigned size);

  uint64_t ReadU64(uint64_t addr) const { return Read(addr, 8); }
  void WriteU64(uint64_t addr, uint64_t value) { Write(addr, value, 8); }

  void ReadBytes(uint64_t addr, uint8_t* out, size_t n) const;
  void WriteBytes(uint64_t addr, const uint8_t* in, size_t n);
  void Fill(uint64_t addr, uint8_t value, uint64_t n);
  // memmove over guest memory: the destination receives the source bytes as
  // they were before the call, even when the ranges overlap. Copies in
  // page-sized chunks through a stack buffer, so host memory stays bounded
  // whatever `n` is, and materializes exactly the destination pages
  // WriteBytes would (absent source pages read as 0 and stay absent).
  void Copy(uint64_t dst, uint64_t src, uint64_t n);

  // Number of pages ever materialized (a proxy for resident memory).
  size_t TouchedPages() const { return pages_.size(); }

  // TLB effectiveness counters (every FindPage/TouchPage probe, from any
  // access path). Plain uint64s: Memory is single-threaded like the Vm that
  // owns it, and the two increments are cheap enough to keep unconditionally.
  uint64_t tlb_hits() const { return tlb_hits_; }
  uint64_t tlb_misses() const { return tlb_misses_; }

  // Single-page fast paths for the specialized block engine: identical
  // semantics to Read/Write (zero-extension, lazy materialization, untouched
  // memory reads 0) with the size CHECK elided — the caller's decoder already
  // validated the access size — and the page probe inlined. Accesses that
  // straddle a page boundary take the generic byte-wise path.
  uint64_t ReadFast(uint64_t addr, unsigned size) const {
    const uint64_t off = addr & (kPageSize - 1);
    if (off + size <= kPageSize) {
      const Page* p = FindPage(addr >> kPageShift);
      if (p == nullptr) {
        return 0;
      }
      const uint8_t* src = p->data() + off;
      uint64_t v = 0;
      switch (size) {
        case 1: std::memcpy(&v, src, 1); break;
        case 2: std::memcpy(&v, src, 2); break;
        case 4: std::memcpy(&v, src, 4); break;
        default: std::memcpy(&v, src, 8); break;
      }
      return v;
    }
    return Read(addr, size);
  }
  void WriteFast(uint64_t addr, uint64_t value, unsigned size) {
    const uint64_t off = addr & (kPageSize - 1);
    if (off + size <= kPageSize) {
      uint8_t* dst = TouchPage(addr >> kPageShift)->data() + off;
      switch (size) {
        case 1: std::memcpy(dst, &value, 1); break;
        case 2: std::memcpy(dst, &value, 2); break;
        case 4: std::memcpy(dst, &value, 4); break;
        default: std::memcpy(dst, &value, 8); break;
      }
      return;
    }
    Write(addr, value, size);
  }

  // Drops every cached translation. Pages themselves are untouched; this
  // only forces the next access per page through the map again (image
  // reload hygiene — correctness never depends on it, because pages are
  // never deallocated and writes refresh their own entries).
  void InvalidateTlb() const {
    for (TlbEntry& e : tlb_) {
      e = TlbEntry{};
    }
  }

 private:
  using Page = std::array<uint8_t, kPageSize>;

  static constexpr size_t kTlbSize = 256;  // direct-mapped, tagged by page no
  static constexpr uint64_t kEmptyTag = ~uint64_t{0};  // page no 2^52 max

  struct TlbEntry {
    uint64_t tag = kEmptyTag;
    Page* page = nullptr;
  };

  const Page* FindPage(uint64_t page_no) const {
    TlbEntry& e = tlb_[page_no & (kTlbSize - 1)];
    if (e.tag == page_no) {
      ++tlb_hits_;
      return e.page;
    }
    ++tlb_misses_;
    auto it = pages_.find(page_no);
    if (it == pages_.end()) {
      return nullptr;
    }
    e.tag = page_no;
    e.page = it->second.get();
    return e.page;
  }

  Page* TouchPage(uint64_t page_no) {
    TlbEntry& e = tlb_[page_no & (kTlbSize - 1)];
    if (e.tag == page_no) {
      ++tlb_hits_;
      return e.page;
    }
    ++tlb_misses_;
    std::unique_ptr<Page>& p = pages_[page_no];
    if (!p) {
      p = std::make_unique<Page>();
      p->fill(0);
    }
    e.tag = page_no;
    e.page = p.get();
    return p.get();
  }

  std::unordered_map<uint64_t, std::unique_ptr<Page>> pages_;
  // The TLB is a cache, not state: filling it from const reads is fine
  // (single-threaded like the Vm that owns this Memory).
  mutable std::array<TlbEntry, kTlbSize> tlb_;
  mutable uint64_t tlb_hits_ = 0;
  mutable uint64_t tlb_misses_ = 0;
};

}  // namespace redfat

#endif  // REDFAT_SRC_VM_MEMORY_H_
