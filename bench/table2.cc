// Table 2: non-incremental bounds errors — CVE models + the 480-case
// Juliet-like CWE-122 suite.
//
// For every case, the attack input performs a redzone-skipping access:
//   * RedFat (full (Redzone)+(LowFat), hardening policy) must abort;
//   * Memcheck (redzone-only shadow checking) must see nothing;
// and the benign input must pass cleanly under the hardened binary (no
// false positives).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/dbi/memcheck.h"
#include "src/support/str.h"
#include "src/workloads/cve.h"

namespace redfat {
namespace {

struct Tally {
  unsigned redfat_detected = 0;
  unsigned memcheck_detected = 0;
  unsigned benign_clean = 0;
  unsigned total = 0;
};

Tally RunCases(const std::vector<VulnCase>& cases) {
  Tally t;
  for (const VulnCase& c : cases) {
    ++t.total;
    const InstrumentResult ir = MustInstrument(c.image, RedFatOptions{});

    RunConfig attack;
    attack.inputs = c.attack_inputs;
    attack.policy = Policy::kHarden;
    if (RunImage(ir.image, RuntimeKind::kRedFat, attack).result.reason ==
        HaltReason::kMemErrorAbort) {
      ++t.redfat_detected;
    }

    RunConfig mc_cfg;
    mc_cfg.inputs = c.attack_inputs;
    mc_cfg.policy = Policy::kLog;
    const RunOutcome mc = RunMemcheck(c.image, mc_cfg);
    if (!mc.errors.empty()) {
      ++t.memcheck_detected;
    }

    RunConfig benign;
    benign.inputs = c.benign_inputs;
    benign.policy = Policy::kHarden;
    if (RunImage(ir.image, RuntimeKind::kRedFat, benign).result.reason == HaltReason::kExit) {
      ++t.benign_clean;
    }
  }
  return t;
}

std::string TallyJson(const std::string& name, const Tally& t) {
  return StrFormat("{\"name\":%s,\"total\":%u,\"memcheck_detected\":%u,"
                   "\"redfat_detected\":%u,\"benign_clean\":%u}",
                   JsonStr(name).c_str(), t.total, t.memcheck_detected, t.redfat_detected,
                   t.benign_clean);
}

}  // namespace

int RunTable2(const BenchArgs& args) {
  std::printf("\nTable 2: CVEs/CWEs for non-incremental bounds errors\n\n");
  std::printf("%-34s %14s %14s %14s\n", "Entry", "Memcheck", "RedFat", "benign-clean");
  std::string entries;
  for (const VulnCase& c : CveCases()) {
    const Tally t = RunCases({c});
    std::printf("%-34s %8u/%u (%3.0f%%) %8u/%u (%3.0f%%) %11u/%u\n", c.name.c_str(),
                t.memcheck_detected, t.total, 100.0 * t.memcheck_detected / t.total,
                t.redfat_detected, t.total, 100.0 * t.redfat_detected / t.total,
                t.benign_clean, t.total);
    entries += TallyJson(c.name, t) + ",";
  }
  const Tally j = RunCases(JulietCwe122Cases());
  const char* const juliet = "CWE-122-Heap-Buffer (Juliet)";
  std::printf("%-34s %7u/%u (%3.0f%%) %7u/%u (%3.0f%%) %9u/%u\n", juliet,
              j.memcheck_detected, j.total, 100.0 * j.memcheck_detected / j.total,
              j.redfat_detected, j.total, 100.0 * j.redfat_detected / j.total, j.benign_clean,
              j.total);
  std::printf("\nPaper: Memcheck 0%% everywhere; RedFat 100%% everywhere (4 CVEs + 480 Juliet).\n");
  entries += TallyJson(juliet, j);
  return WriteJsonRecord(args, "table2", "\"entries\":[" + entries + "]");
}

}  // namespace redfat
