// §7.1 "False positives": SPEC reruns with full (Redzone)+(LowFat) on every
// memory access (no profile-based allow-list).
//
// A false positive is a site reported under full-on checking that is NOT
// reported under redzone-only checking (the latter's reports are real
// errors: calculix's array[-1] underflows, wrf's overflow read). The bench
// prints, per benchmark: measured FP sites vs. the paper's count, and
// verifies the allow-list workflow eliminates every FP.
#include <cstdio>
#include <set>
#include <string>

#include "bench/common.h"
#include "src/support/str.h"
#include "src/workloads/spec.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

std::set<uint64_t> ReportedSiteAddrs(const RunOutcome& out,
                                     const std::vector<SiteRecord>& sites) {
  std::set<uint64_t> addrs;
  for (const MemErrorReport& e : out.errors) {
    addrs.insert(sites[e.site].addr);
  }
  return addrs;
}

}  // namespace

int RunFalsePositives(const BenchArgs& args) {
  std::printf("\nFalse positives under full-on (Redzone)+(LowFat) checking, per benchmark\n\n");
  std::printf("%-12s %10s %10s %12s %16s\n", "Binary", "FP sites", "(paper)", "real errors",
              "FPs w/ allowlist");
  unsigned total_fp = 0;
  unsigned total_fp_allow = 0;
  std::string rows;
  for (const SpecBenchmark& bench : SpecSuite()) {
    const BinaryImage img = BuildSpecBenchmark(bench);
    RunConfig ref;
    ref.inputs = RefInputs(bench.ref_iters);
    ref.policy = Policy::kLog;

    // Full-on: no allow-list.
    const InstrumentResult full = MustInstrument(img, RedFatOptions{});
    const RunOutcome full_run = RunImage(full.image, RuntimeKind::kRedFat, ref);
    const std::set<uint64_t> full_sites = ReportedSiteAddrs(full_run, full.sites);

    // Redzone-only: its reports are the real memory errors.
    RedFatOptions rz;
    rz.lowfat = false;
    const InstrumentResult rz_ir = MustInstrument(img, rz);
    const RunOutcome rz_run = RunImage(rz_ir.image, RuntimeKind::kRedFat, ref);
    const std::set<uint64_t> real_sites = ReportedSiteAddrs(rz_run, rz_ir.sites);

    unsigned fp = 0;
    for (uint64_t addr : full_sites) {
      if (real_sites.count(addr) == 0) {
        ++fp;
      }
    }

    // With the Fig. 5 workflow, FPs must vanish.
    const AllowList allow = ProfileAndAllow(img, TrainInputs(bench.train_iters));
    const InstrumentResult hard = MustInstrument(img, RedFatOptions{}, &allow);
    const RunOutcome hard_run = RunImage(hard.image, RuntimeKind::kRedFat, ref);
    const std::set<uint64_t> hard_sites = ReportedSiteAddrs(hard_run, hard.sites);
    unsigned fp_allow = 0;
    for (uint64_t addr : hard_sites) {
      if (real_sites.count(addr) == 0) {
        ++fp_allow;
      }
    }

    total_fp += fp;
    total_fp_allow += fp_allow;
    if (fp != 0 || bench.paper_fp_sites != 0 || !real_sites.empty()) {
      std::printf("%-12s %10u %10u %12zu %16u\n", bench.name.c_str(), fp,
                  bench.paper_fp_sites, real_sites.size(), fp_allow);
      rows += StrFormat("%s{\"name\":%s,\"fp_sites\":%u,\"paper_fp_sites\":%u,"
                        "\"real_error_sites\":%zu,\"fp_sites_allowlist\":%u}",
                        rows.empty() ? "" : ",", JsonStr(bench.name).c_str(), fp,
                        bench.paper_fp_sites, real_sites.size(), fp_allow);
    }
  }
  std::printf("\nTotal FP sites: %u (paper: 85 across 9 benchmarks); with allow-list: %u "
              "(paper: 0)\n",
              total_fp, total_fp_allow);
  const int written = WriteJsonRecord(
      args, "false_positives",
      StrFormat("\"rows\":[%s],\"total_fp_sites\":%u,\"total_fp_sites_allowlist\":%u",
                rows.c_str(), total_fp, total_fp_allow));
  return total_fp_allow == 0 ? written : 1;
}

}  // namespace redfat
