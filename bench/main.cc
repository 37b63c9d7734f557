// rfbench: the paper's evaluation (§7) and the design ablations, one
// subcommand per experiment.
//
//   rfbench <experiment> [--quick] [--out FILE]
//
// Every experiment prints its table on stdout, aborts (REDFAT_CHECK) or exits
// nonzero when one of its claims fails, and with --out writes one JSON record
// to FILE. --quick shrinks the host-timed experiments for smoke runs; the
// paper tables and ablation-checks have one size and ignore it.
#include <cstdio>
#include <cstring>

#include "bench/common.h"

namespace redfat {

int RunTable1(const BenchArgs& args);
int RunTable2(const BenchArgs& args);
int RunFalsePositives(const BenchArgs& args);
int RunDetectedErrors(const BenchArgs& args);
int RunFigure8(const BenchArgs& args);
int RunAblationChecks(const BenchArgs& args);
int RunAblationAllocator(const BenchArgs& args);
int RunRewriteThroughput(const BenchArgs& args);
int RunCheckTiering(const BenchArgs& args);
int RunHardenTiers(const BenchArgs& args);
int RunVmDispatch(const BenchArgs& args);
int RunObservability(const BenchArgs& args);
int RunDaemonCache(const BenchArgs& args);
int RunHeapThroughput(const BenchArgs& args);

namespace {

struct Experiment {
  const char* name;
  int (*run)(const BenchArgs&);
  const char* what;
};

constexpr Experiment kExperiments[] = {
    {"table1", RunTable1, "Table 1: SPEC CPU2006 slowdowns, coverage, Memcheck"},
    {"table2", RunTable2, "Table 2: non-incremental overflows (CVEs + Juliet CWE-122)"},
    {"false-positives", RunFalsePositives, "§7.1 false positives, with and without allow-list"},
    {"detected-errors", RunDetectedErrors, "§7.1 latent SPEC errors, RedFat vs Memcheck"},
    {"figure8", RunFigure8, "Fig. 8: Kraken write-only hardening overhead"},
    {"ablation-checks", RunAblationChecks, "check-design and redzone-implementation ablation"},
    {"ablation-allocator", RunAblationAllocator, "allocator host ns/op and modeled cycles"},
    {"rewrite-throughput", RunRewriteThroughput, "rewrite wall time across --jobs"},
    {"check-tiering", RunCheckTiering, "profile-guided check tiering"},
    {"harden-tiers", RunHardenTiers, "hardening-tier overhead budgets"},
    {"vm-dispatch", RunVmDispatch, "fast engine vs stepper host MIPS"},
    {"observability", RunObservability, "host cost of the observability sinks"},
    {"daemon-cache", RunDaemonCache, "rewrite-service miss, hit and re-tier latency"},
    {"heap-throughput", RunHeapThroughput, "guest-cycle price of each rheap feature"},
};

int Usage() {
  std::fprintf(stderr, "usage: rfbench <experiment> [--quick] [--out FILE]\n\nexperiments:\n");
  for (const Experiment& e : kExperiments) {
    std::fprintf(stderr, "  %-20s %s\n", e.name, e.what);
  }
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const Experiment* experiment = nullptr;
  for (const Experiment& e : kExperiments) {
    if (std::strcmp(argv[1], e.name) == 0) {
      experiment = &e;
      break;
    }
  }
  if (experiment == nullptr) {
    return Usage();
  }
  BenchArgs args;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc && argv[i + 1][0] != '\0') {
      args.out = argv[++i];
    } else {
      return Usage();
    }
  }
  return experiment->run(args);
}

}  // namespace
}  // namespace redfat

int main(int argc, char** argv) { return redfat::Main(argc, argv); }
