// Allocator ablation.
//
// The paper relies on the low-fat allocator being essentially free compared
// to glibc malloc (~1% performance, §2.1). Two measurements:
//   * host-side ns/op of the allocator implementations themselves
//     (LowFatHeap vs LegacyHeap vs the redzone wrapper, and LowFatHeap with
//     each rheap hardening feature on in isolation), a fixed number of
//     alloc/free pairs per cell;
//   * the modeled guest-visible cycle cost per call: guest cycles per
//     alloc/free pair per rheap feature, and per malloc under the glibc-like
//     and libredfat bindings. These are deterministic for a given mode.
//
// This experiment never runs the rewriting pipeline; allocator runtime gauges
// are available via `rfrun --metrics` (lowfat.* / redzone.live_bytes).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/heap/legacy_heap.h"
#include "src/heap/lowfat.h"
#include "src/heap/redfat_allocator.h"
#include "src/support/str.h"

namespace redfat {
namespace {

// Every timed result is folded in here, so no call can be dropped as dead.
volatile uint64_t g_sink = 0;

// Host nanoseconds per call of `op`, over `iters` calls.
template <typename Op>
double NsPerOp(uint64_t iters, Op op) {
  uint64_t fold = 0;
  const double t0 = NowMs();
  for (uint64_t i = 0; i < iters; ++i) {
    fold += op();
  }
  const double ns = (NowMs() - t0) * 1e6 / static_cast<double>(iters);
  g_sink = g_sink + fold;
  return ns;
}

struct Cell {
  std::string name;
  uint64_t size = 0;
  double ns_per_op = 0.0;
  double guest_cycles_per_op = -1.0;  // < 0: not a modeled cell
};

struct RheapFeature {
  const char* name;
  RheapOptions opts;
};

std::vector<RheapFeature> RheapFeatures() {
  RheapOptions base;
  base.quarantine_slots = 0;
  RheapOptions prot = base;
  prot.prot_freelist = true;
  RheapOptions random = base;
  random.random = true;
  RheapOptions quarantine = base;
  quarantine.quarantine_slots = 64;
  return {{"rheap base", base},
          {"rheap prot-freelist", prot},
          {"rheap random", random},
          {"rheap quarantine", quarantine}};
}

}  // namespace

int RunAblationAllocator(const BenchArgs& args) {
  const uint64_t iters = args.quick ? 100'000 : 1'000'000;
  const uint64_t sizes[] = {16, 48, 512, 4096};
  std::vector<Cell> cells;

  for (uint64_t size : sizes) {
    Memory mem;
    LowFatHeap heap(/*quarantine_slots=*/0);
    cells.push_back({"lowfat alloc/free", size, NsPerOp(iters, [&] {
                       const uint64_t slot = heap.Alloc(mem, size).slot;
                       heap.Free(mem, slot);
                       return slot;
                     })});
  }
  // One cell per rheap hardening feature, enabled in isolation: read next to
  // the lowfat cells to see what each check adds on top of the bare freelist
  // fast path.
  for (const RheapFeature& feature : RheapFeatures()) {
    for (uint64_t size : {uint64_t{48}, uint64_t{512}}) {
      Memory mem;
      LowFatHeap heap(feature.opts);
      if (feature.opts.random) {
        heap.EnableRandomization(0x5eed);
      }
      uint64_t cycles = 0;
      Cell cell{feature.name, size, NsPerOp(iters, [&] {
                  const LowFatAllocResult a = heap.Alloc(mem, size);
                  cycles += a.cycles + heap.Free(mem, a.slot).cycles;
                  return a.slot;
                })};
      cell.guest_cycles_per_op = static_cast<double>(cycles) / static_cast<double>(iters);
      cells.push_back(cell);
    }
  }
  for (uint64_t size : sizes) {
    Memory mem;
    LegacyHeap heap;
    cells.push_back({"legacy alloc/free", size, NsPerOp(iters, [&] {
                       const uint64_t p = heap.Alloc(mem, size);
                       heap.Free(p);
                       return p;
                     })});
  }
  for (uint64_t size : sizes) {
    Memory mem;
    RedFatAllocator alloc(/*quarantine_slots=*/0);
    cells.push_back({"redfat wrapper alloc/free", size, NsPerOp(iters, [&] {
                       const uint64_t p = alloc.Malloc(mem, size).ptr;
                       alloc.Free(mem, p);
                       return p;
                     })});
  }
  {
    // The base(ptr) primitive the checks lean on: must be a few ns.
    uint64_t ptr = (uint64_t{3} << kRegionShift) + 4096;
    cells.push_back({"lowfat base(ptr)", 0, NsPerOp(iters, [&] {
                       ptr += 48;
                       return LowFatBase(ptr);
                     })});
  }

  // Modeled guest cycles per malloc under each binding, amortized over a
  // fixed run in every mode (the first allocation in a class pays a one-time
  // segment carve the bump fast path then amortizes away).
  constexpr uint64_t kMallocs = 100'000;
  Memory mem;
  GlibcLikeAllocator glibc;
  RedFatAllocator libredfat;
  uint64_t glibc_total = 0;
  uint64_t redfat_total = 0;
  for (uint64_t i = 0; i < kMallocs; ++i) {
    glibc_total += glibc.Malloc(mem, 64).cycles;
    redfat_total += libredfat.Malloc(mem, 64).cycles;
  }
  const double glibc_cycles = static_cast<double>(glibc_total) / kMallocs;
  const double redfat_cycles = static_cast<double>(redfat_total) / kMallocs;
  const double overhead_pct = 100.0 * (redfat_cycles / glibc_cycles - 1.0);

  std::printf("allocator ablation: %llu calls per cell\n\n",
              static_cast<unsigned long long>(iters));
  std::printf("%-26s %6s %10s %14s\n", "cell", "size", "ns/op", "guest-cyc/op");
  std::string json_cells;
  for (const Cell& c : cells) {
    const bool modeled = c.guest_cycles_per_op >= 0.0;
    std::printf("%-26s %6llu %10.1f %14s\n", c.name.c_str(),
                static_cast<unsigned long long>(c.size), c.ns_per_op,
                modeled ? StrFormat("%.2f", c.guest_cycles_per_op).c_str() : "-");
    json_cells += StrFormat("%s{\"cell\":%s,\"size\":%llu,\"ns_per_op\":%.2f",
                            json_cells.empty() ? "" : ",", JsonStr(c.name).c_str(),
                            static_cast<unsigned long long>(c.size), c.ns_per_op);
    if (modeled) {
      json_cells += StrFormat(",\"guest_cycles_per_op\":%.3f", c.guest_cycles_per_op);
    }
    json_cells += "}";
  }
  std::printf("\nmodeled guest cycles per malloc(64): glibc %.2f, libredfat %.2f (%+.1f%%)\n",
              glibc_cycles, redfat_cycles, overhead_pct);
  return WriteJsonRecord(
      args, "ablation_allocator",
      StrFormat("\"quick\":%s,\"iters\":%llu,\"cells\":[%s],\"glibc_cycles\":%.3f,"
                "\"libredfat_cycles\":%.3f,\"overhead_pct\":%.2f",
                args.quick ? "true" : "false", static_cast<unsigned long long>(iters),
                json_cells.c_str(), glibc_cycles, redfat_cycles, overhead_pct));
}

}  // namespace redfat
