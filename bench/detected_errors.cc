// §7.1 "Detected errors": both RedFat and Memcheck detect latent
// out-of-bounds read errors in the calculix and wrf Fortran benchmarks
// (4 array[-1] underflows in calculix's main, 1 overflow read in wrf).
#include <cstdio>
#include <set>
#include <string>

#include "bench/common.h"
#include "src/dbi/memcheck.h"
#include "src/support/str.h"
#include "src/workloads/spec.h"
#include "src/workloads/synth.h"

namespace redfat {

int RunDetectedErrors(const BenchArgs& args) {
  std::printf("\nDetected (real) errors in the SPEC suite, RedFat vs Memcheck\n\n");
  std::printf("%-12s %22s %22s %10s\n", "Binary", "RedFat error sites", "Memcheck reports",
              "paper");
  int rc = 0;
  std::string rows;
  for (const SpecBenchmark& bench : SpecSuite()) {
    const unsigned expected =
        bench.params.underflow_bug_sites + bench.params.overflow_bug_sites;
    if (expected == 0) {
      continue;
    }
    const BinaryImage img = BuildSpecBenchmark(bench);
    RunConfig ref;
    ref.inputs = RefInputs(bench.ref_iters);
    ref.policy = Policy::kLog;

    // RedFat: redzone-only configuration isolates real errors from any
    // low-fat false positives; the full config reports them too.
    RedFatOptions rz;
    rz.lowfat = false;
    const InstrumentResult ir = MustInstrument(img, rz);
    const RunOutcome run = RunImage(ir.image, RuntimeKind::kRedFat, ref);
    std::set<uint32_t> sites;
    for (const MemErrorReport& e : run.errors) {
      sites.insert(e.site);
    }

    const RunOutcome mc = RunMemcheck(img, ref);

    std::printf("%-12s %22zu %22zu %10u\n", bench.name.c_str(), sites.size(),
                mc.errors.size(), expected);
    rows += StrFormat("%s{\"name\":%s,\"redfat_error_sites\":%zu,\"memcheck_reports\":%zu,"
                      "\"expected\":%u}",
                      rows.empty() ? "" : ",", JsonStr(bench.name).c_str(), sites.size(),
                      mc.errors.size(), expected);
    if (sites.size() < expected || mc.errors.size() < expected) {
      rc = 1;
    }
  }
  std::printf("\nPaper: calculix has 4 read underflows (array[-1] in main), wrf 1 read\n"
              "overflow (interp_fcn); both tools detect them.\n");
  const int written = WriteJsonRecord(args, "detected_errors", "\"rows\":[" + rows + "]");
  return rc != 0 ? rc : written;
}

}  // namespace redfat
