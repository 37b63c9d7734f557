// Table 1: RedFat and Memcheck on the (synthetic) SPEC CPU2006 suite.
//
// For every benchmark:
//   * baseline: original binary, glibc-like allocator, ref input;
//   * profile phase on the train input -> allow-list (Fig. 5);
//   * six RedFat configurations (unoptimized, +elim, +batch, +merge, -size,
//     -reads), each hardened with the allow-list and run on the ref input;
//   * Memcheck (DBI redzone-only baseline) on the ref input.
//
// Slowdown factors are ratios of deterministic cycle counts. Coverage is
// the dynamic fraction of instrumented memory operations carrying the full
// (Redzone)+(LowFat) check, measured on the +merge configuration.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/dbi/memcheck.h"
#include "src/support/str.h"
#include "src/workloads/spec.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

struct Row {
  std::string name;
  double coverage = 0;
  uint64_t baseline_cycles = 0;
  double slow[6] = {};  // unopt, +elim, +batch, +merge, -size, -reads
  double memcheck = 0;
};

// The six RedFat columns as JSON fields, in table order.
std::string SlowdownJson(const double (&slow)[6]) {
  static const char* const kColumns[6] = {"unopt", "elim", "batch", "merge", "nosize", "noreads"};
  std::string json;
  for (int c = 0; c < 6; ++c) {
    json += StrFormat("%s\"%s\":%.4f", c == 0 ? "" : ",", kColumns[c], slow[c]);
  }
  return json;
}

}  // namespace

int RunTable1(const BenchArgs& args) {
  const RedFatOptions configs[6] = {RedFatOptions::Unoptimized(), RedFatOptions::Elim(),
                                    RedFatOptions::Batch(),       RedFatOptions::Merge(),
                                    RedFatOptions::NoSize(),      RedFatOptions::NoReads()};

  std::vector<Row> rows;
  for (const SpecBenchmark& bench : SpecSuite()) {
    const BinaryImage img = BuildSpecBenchmark(bench);
    Row row;
    row.name = bench.name;

    RunConfig ref;
    ref.inputs = RefInputs(bench.ref_iters);
    ref.policy = Policy::kLog;  // latent real bugs log and continue, as under Memcheck
    const RunOutcome base = RunImage(img, RuntimeKind::kBaseline, ref);
    REDFAT_CHECK(base.result.reason == HaltReason::kExit);
    row.baseline_cycles = base.result.cycles;

    const AllowList allow = ProfileAndAllow(img, TrainInputs(bench.train_iters));

    for (int c = 0; c < 6; ++c) {
      const InstrumentResult ir = MustInstrument(img, configs[c], &allow);
      const RunOutcome out = RunImage(ir.image, RuntimeKind::kRedFat, ref);
      REDFAT_CHECK(out.result.reason == HaltReason::kExit);
      REDFAT_CHECK(out.outputs == base.outputs);
      row.slow[c] =
          static_cast<double>(out.result.cycles) / static_cast<double>(base.result.cycles);
      if (c == 3) {  // +merge: the fully-checked configuration
        const CoverageStats cov = ComputeCoverage(out.counters, ir.sites);
        row.coverage = cov.FullFraction();
      }
    }

    const RunOutcome mc = RunMemcheck(img, ref);
    REDFAT_CHECK(mc.result.reason == HaltReason::kExit);
    row.memcheck =
        static_cast<double>(mc.result.cycles) / static_cast<double>(base.result.cycles);
    rows.push_back(row);
    std::fprintf(stderr, "  [table1] %-12s done\n", bench.name.c_str());
  }

  std::printf("\nTable 1: Performance of RedFat and Memcheck on the SPEC CPU2006 suite\n");
  std::printf("(synthetic reproduction; slowdown factors vs. uninstrumented baseline)\n\n");
  std::printf("%-12s %9s %10s %8s %8s %8s %8s %8s %8s %9s\n", "Binary", "coverage",
              "base(cyc)", "unopt", "+elim", "+batch", "+merge", "-size", "-reads",
              "Memcheck");
  std::vector<double> g[7];
  std::vector<double> gcov;
  std::string json_rows;
  for (const Row& r : rows) {
    std::printf("%-12s %8.1f%% %10llu %7.2fx %7.2fx %7.2fx %7.2fx %7.2fx %7.2fx %8.2fx\n",
                r.name.c_str(), 100.0 * r.coverage,
                static_cast<unsigned long long>(r.baseline_cycles), r.slow[0], r.slow[1],
                r.slow[2], r.slow[3], r.slow[4], r.slow[5], r.memcheck);
    for (int c = 0; c < 6; ++c) {
      g[c].push_back(r.slow[c]);
    }
    g[6].push_back(r.memcheck);
    gcov.push_back(r.coverage);
    json_rows += StrFormat(
        "%s{\"name\":%s,\"coverage\":%.4f,\"baseline_cycles\":%llu,\"memcheck\":%.4f,"
        "\"slowdown\":{%s}}",
        json_rows.empty() ? "" : ",", JsonStr(r.name).c_str(), r.coverage,
        static_cast<unsigned long long>(r.baseline_cycles), r.memcheck,
        SlowdownJson(r.slow).c_str());
  }
  double cov_mean = 0;
  for (double c : gcov) {
    cov_mean += c;
  }
  cov_mean /= static_cast<double>(gcov.size());
  std::printf("%-12s %8.1f%% %10s %7.2fx %7.2fx %7.2fx %7.2fx %7.2fx %7.2fx %8.2fx\n",
              "Geomean", 100.0 * cov_mean, "-", Geomean(g[0]), Geomean(g[1]), Geomean(g[2]),
              Geomean(g[3]), Geomean(g[4]), Geomean(g[5]), Geomean(g[6]));
  std::printf("\nPaper (real SPEC): geomean 6.78x / 5.50x / 5.06x / 4.18x / 3.81x / 1.55x;"
              " Memcheck 11.76x; mean coverage 72.6%%\n");

  double geo[6];
  for (int c = 0; c < 6; ++c) {
    geo[c] = Geomean(g[c]);
  }
  return WriteJsonRecord(
      args, "table1",
      StrFormat("\"rows\":[%s],\"geomean\":{\"coverage_mean\":%.4f,\"memcheck\":%.4f,"
                "\"slowdown\":{%s}}",
                json_rows.c_str(), cov_mean, Geomean(g[6]), SlowdownJson(geo).c_str()));
}

}  // namespace redfat
