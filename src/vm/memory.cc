#include "src/vm/memory.h"

#include <algorithm>

#include "src/support/check.h"

namespace redfat {

uint64_t Memory::Read(uint64_t addr, unsigned size) const {
  REDFAT_CHECK(size == 1 || size == 2 || size == 4 || size == 8);
  uint64_t v = 0;
  if ((addr & (kPageSize - 1)) + size <= kPageSize) {
    const Page* p = FindPage(addr >> kPageShift);
    if (p != nullptr) {
      std::memcpy(&v, p->data() + (addr & (kPageSize - 1)), size);
    }
    return v;
  }
  // Straddles a page boundary: byte-wise.
  for (unsigned i = 0; i < size; ++i) {
    const uint64_t a = addr + i;
    const Page* p = FindPage(a >> kPageShift);
    const uint8_t b = p == nullptr ? 0 : (*p)[a & (kPageSize - 1)];
    v |= static_cast<uint64_t>(b) << (8 * i);
  }
  return v;
}

void Memory::Write(uint64_t addr, uint64_t value, unsigned size) {
  REDFAT_CHECK(size == 1 || size == 2 || size == 4 || size == 8);
  if ((addr & (kPageSize - 1)) + size <= kPageSize) {
    Page* p = TouchPage(addr >> kPageShift);
    std::memcpy(p->data() + (addr & (kPageSize - 1)), &value, size);
    return;
  }
  for (unsigned i = 0; i < size; ++i) {
    const uint64_t a = addr + i;
    Page* p = TouchPage(a >> kPageShift);
    (*p)[a & (kPageSize - 1)] = static_cast<uint8_t>(value >> (8 * i));
  }
}

void Memory::ReadBytes(uint64_t addr, uint8_t* out, size_t n) const {
  size_t done = 0;
  while (done < n) {
    const uint64_t a = addr + done;
    const uint64_t in_page = a & (kPageSize - 1);
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(kPageSize - in_page, n - done));
    const Page* p = FindPage(a >> kPageShift);
    if (p == nullptr) {
      std::memset(out + done, 0, chunk);
    } else {
      std::memcpy(out + done, p->data() + in_page, chunk);
    }
    done += chunk;
  }
}

void Memory::WriteBytes(uint64_t addr, const uint8_t* in, size_t n) {
  size_t done = 0;
  while (done < n) {
    const uint64_t a = addr + done;
    const uint64_t in_page = a & (kPageSize - 1);
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(kPageSize - in_page, n - done));
    Page* p = TouchPage(a >> kPageShift);
    std::memcpy(p->data() + in_page, in + done, chunk);
    done += chunk;
  }
}

void Memory::Fill(uint64_t addr, uint8_t value, uint64_t n) {
  uint64_t done = 0;
  while (done < n) {
    const uint64_t a = addr + done;
    const uint64_t in_page = a & (kPageSize - 1);
    const uint64_t chunk = std::min<uint64_t>(kPageSize - in_page, n - done);
    // Zero-filling an absent page is a no-op: untouched memory already reads
    // as 0, so a guest memset(p, 0, n) over a lazily-mapped region must not
    // materialize every page it sweeps.
    if (value == 0 && FindPage(a >> kPageShift) == nullptr) {
      done += chunk;
      continue;
    }
    Page* p = TouchPage(a >> kPageShift);
    std::memset(p->data() + in_page, value, chunk);
    done += chunk;
  }
}

void Memory::Copy(uint64_t dst, uint64_t src, uint64_t n) {
  uint8_t buf[kPageSize];
  // When dst lies inside (src, src + n) a forward walk would read bytes it
  // has already overwritten, so walk the range from the top down instead.
  const bool down = dst != src && dst - src < n;
  uint64_t done = 0;
  while (done < n) {
    const uint64_t chunk = std::min<uint64_t>(kPageSize, n - done);
    const uint64_t off = down ? n - done - chunk : done;
    ReadBytes(src + off, buf, chunk);
    WriteBytes(dst + off, buf, chunk);
    done += chunk;
  }
}

}  // namespace redfat
