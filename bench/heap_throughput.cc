// Heap-throughput pricing of the rheap allocator features (DESIGN.md §4.14).
//
// Runs two allocation-heavy workloads — the server request/response program
// and the churn fragmentation program — through the extensive rewrite, once
// per rheap feature cell:
//
//   base           every feature off, quarantine=0 (the bare O(1) fast path)
//   prot-freelist  obfuscated+validated in-guest freelist links
//   guard-memcpy   memcpy/memset range pre-checks
//   random         randomized placement and reuse order
//   quarantine     delayed reuse, depth 64
//   all            everything on at once
//
// Asserts, per cell, that (a) outputs are identical to the uninstrumented
// baseline (the features must never change guest-visible behaviour), and
// (b) each individual feature costs < 5% guest cycles over the base cell
// (the paper's "essentially free" allocator claim, feature by feature).
// Also asserts the overhaul's headline win: the churn base cell's modeled
// malloc/free cycles undercut the pre-overhaul flat cost model by >= 20%.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/heap/cost_model.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

// Per-feature budget over the base cell, and the minimum fast-path win of
// the freelist overhaul against the old flat per-call model.
constexpr double kFeatureBudgetPct = 5.0;
constexpr double kMinReductionPct = 20.0;

struct FeatureCell {
  const char* name;
  RheapOptions opts;
};

std::vector<FeatureCell> Cells() {
  std::vector<FeatureCell> cells;
  RheapOptions base;
  base.quarantine_slots = 0;
  cells.push_back({"base", base});
  RheapOptions prot = base;
  prot.prot_freelist = true;
  cells.push_back({"prot-freelist", prot});
  RheapOptions guard = base;
  guard.guard_memcpy = true;
  cells.push_back({"guard-memcpy", guard});
  RheapOptions random = base;
  random.random = true;
  cells.push_back({"random", random});
  RheapOptions quarantine = base;
  quarantine.quarantine_slots = 64;
  cells.push_back({"quarantine", quarantine});
  RheapOptions all;
  all.prot_freelist = all.guard_memcpy = all.random = true;
  all.quarantine_slots = 64;
  cells.push_back({"all", all});
  return cells;
}

struct CellMeasure {
  std::string name;
  uint64_t guest_cycles = 0;
  uint64_t alloc_cycles = 0;  // modeled lowfat malloc+free cycles
  uint64_t allocs = 0;
  uint64_t frees = 0;
  double overhead_pct = 0.0;  // guest cycles over the base cell
};

struct WorkloadMeasure {
  std::string name;
  uint64_t old_model_cycles = 0;  // pre-overhaul flat-cost model
  double reduction_pct = 0.0;     // base cell's win against it
  std::vector<CellMeasure> cells;
};

double Gauge(const TelemetrySnapshot& snap, const std::string& name) {
  const auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? 0.0 : it->second;
}

WorkloadMeasure MeasureWorkload(const char* name, const BinaryImage& img,
                                const std::vector<uint64_t>& inputs) {
  RunConfig cfg;
  cfg.inputs = inputs;
  const RunOutcome base_run = RunImage(img, RuntimeKind::kBaseline, cfg);
  REDFAT_CHECK(base_run.result.reason == HaltReason::kExit);
  REDFAT_CHECK(!base_run.outputs.empty());

  const InstrumentResult ir = MustInstrument(img, RedFatOptions{});

  WorkloadMeasure wm;
  wm.name = name;
  for (const FeatureCell& cell : Cells()) {
    TelemetryRegistry telemetry;
    RunConfig cell_cfg = cfg;
    cell_cfg.rheap = cell.opts;
    cell_cfg.telemetry = &telemetry;
    const RunOutcome out = RunImage(ir.image, RuntimeKind::kRedFat, cell_cfg);
    REDFAT_CHECK(out.result.reason == HaltReason::kExit);
    // The identity contract: no feature may change guest-visible behaviour
    // on a well-behaved program.
    REDFAT_CHECK(out.outputs == base_run.outputs);
    REDFAT_CHECK(out.errors.empty());

    const TelemetrySnapshot snap = telemetry.Snapshot();
    CellMeasure m;
    m.name = cell.name;
    m.guest_cycles = out.result.cycles;
    m.allocs = static_cast<uint64_t>(Gauge(snap, "lowfat.allocs"));
    m.frees = static_cast<uint64_t>(Gauge(snap, "lowfat.frees"));
    m.alloc_cycles = static_cast<uint64_t>(Gauge(snap, "lowfat.malloc_cycles") +
                                           Gauge(snap, "lowfat.free_cycles"));
    REDFAT_CHECK(m.allocs > 0 && m.frees > 0);
    wm.cells.push_back(m);
  }

  const CellMeasure& base_cell = wm.cells[0];
  for (CellMeasure& m : wm.cells) {
    m.overhead_pct = 100.0 * (static_cast<double>(m.guest_cycles) /
                                  static_cast<double>(base_cell.guest_cycles) -
                              1.0);
  }
  // Pre-overhaul cost model: every malloc/free paid a flat charge
  // (kMallocCycles=25 / kFreeCycles=15 plus kRedzoneWrapperCycles=5 each,
  // the constants the segmented-arena + intrusive-freelist fast path
  // replaced). The wrapper's per-op kRedzoneMeta is charged on both sides,
  // so the comparison below is lowfat-core cycles vs lowfat-core model.
  wm.old_model_cycles = base_cell.allocs * 30 + base_cell.frees * 20 -
                        (base_cell.allocs + base_cell.frees) * heapcost::kRedzoneMeta;
  wm.reduction_pct = 100.0 * (1.0 - static_cast<double>(base_cell.alloc_cycles) /
                                        static_cast<double>(wm.old_model_cycles));
  return wm;
}

}  // namespace

int RunHeapThroughput(const BenchArgs& args) {
  const bool quick = args.quick;

  ServerParams sp;
  sp.seed = 0x5e7;
  ChurnParams cp;
  cp.seed = 0xc472;
  std::vector<WorkloadMeasure> workloads;
  workloads.push_back(MeasureWorkload("server", GenerateServerProgram(sp),
                                      {quick ? 800u : 6000u}));
  workloads.push_back(MeasureWorkload("churn", GenerateChurnProgram(cp),
                                      {quick ? 2000u : 20000u, 0}));

  for (const WorkloadMeasure& wm : workloads) {
    std::printf("\n%s workload\n", wm.name.c_str());
    std::printf("  %-14s %14s %12s %9s %9s %10s\n", "cell", "guest-cyc",
                "alloc-cyc", "allocs", "frees", "overhead");
    for (const CellMeasure& m : wm.cells) {
      std::printf("  %-14s %14llu %12llu %9llu %9llu %9.2f%%\n", m.name.c_str(),
                  static_cast<unsigned long long>(m.guest_cycles),
                  static_cast<unsigned long long>(m.alloc_cycles),
                  static_cast<unsigned long long>(m.allocs),
                  static_cast<unsigned long long>(m.frees), m.overhead_pct);
    }
    std::printf("  fast-path cycles vs pre-overhaul model: %llu vs %llu (-%.1f%%)\n",
                static_cast<unsigned long long>(wm.cells[0].alloc_cycles),
                static_cast<unsigned long long>(wm.old_model_cycles),
                wm.reduction_pct);
  }

  // The CI gates: per-feature budget and the overhaul's fast-path win.
  for (const WorkloadMeasure& wm : workloads) {
    for (const CellMeasure& m : wm.cells) {
      if (m.name == "all") {
        continue;  // the combined cell is informational, not budgeted
      }
      REDFAT_CHECK(m.overhead_pct < kFeatureBudgetPct);
    }
    REDFAT_CHECK(wm.reduction_pct >= kMinReductionPct);
  }

  std::string json = StrFormat("\"quick\":%s,\"feature_budget_pct\":%.1f,\"workloads\":[",
                               quick ? "true" : "false", kFeatureBudgetPct);
  for (size_t w = 0; w < workloads.size(); ++w) {
    const WorkloadMeasure& wm = workloads[w];
    json += StrFormat("%s{\"name\":\"%s\",\"old_model_cycles\":%llu,"
                      "\"reduction_pct\":%.2f,\"cells\":[",
                      w == 0 ? "" : ",", wm.name.c_str(),
                      static_cast<unsigned long long>(wm.old_model_cycles),
                      wm.reduction_pct);
    for (size_t i = 0; i < wm.cells.size(); ++i) {
      const CellMeasure& m = wm.cells[i];
      json += StrFormat(
          "%s{\"cell\":\"%s\",\"guest_cycles\":%llu,\"alloc_cycles\":%llu,"
          "\"allocs\":%llu,\"frees\":%llu,\"overhead_pct\":%.3f}",
          i == 0 ? "" : ",", m.name.c_str(),
          static_cast<unsigned long long>(m.guest_cycles),
          static_cast<unsigned long long>(m.alloc_cycles),
          static_cast<unsigned long long>(m.allocs),
          static_cast<unsigned long long>(m.frees), m.overhead_pct);
    }
    json += "]}";
  }
  json += "]";
  return WriteJsonRecord(args, "heap_throughput", json);
}

}  // namespace redfat
