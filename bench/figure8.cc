// Figure 8: Chrome overhead using the Kraken benchmarks.
//
// Each kernel is embedded in a deliberately large binary (hundreds of
// instrumented-but-unreachable functions stand in for the 149 MB Chrome
// image) and hardened with (Redzone)+(LowFat) checking for all *write*
// operations (-reads, as in the paper's Chrome experiment). Also reports
// rewriting scalability: binary size, instrumented sites, trampoline bytes.
#include <cstdio>
#include <string>

#include "bench/common.h"
#include "src/support/str.h"
#include "src/workloads/kraken.h"
#include "src/workloads/synth.h"

namespace redfat {

int RunFigure8(const BenchArgs& args) {
  std::printf("\nFigure 8: Chrome/Kraken write-only hardening overhead\n\n");
  std::printf("%-26s %9s %10s %9s %11s %10s\n", "Benchmark", "overhead", "text(KB)",
              "sites", "tramp(KB)", "rewrite");
  std::vector<double> overheads;
  uint64_t total_text = 0;
  uint64_t total_tramp = 0;
  std::string rows;
  for (const KrakenBenchmark& bench : KrakenSuite()) {
    const BinaryImage img = BuildKrakenBenchmark(bench);
    RunConfig cfg;
    cfg.inputs = RefInputs(bench.iters);
    const RunOutcome base = RunImage(img, RuntimeKind::kBaseline, cfg);
    REDFAT_CHECK(base.result.reason == HaltReason::kExit);

    const double t0 = NowMs();
    const InstrumentResult ir = MustInstrument(img, RedFatOptions::NoReads());
    const double ms = NowMs() - t0;
    const RunOutcome hard = RunImage(ir.image, RuntimeKind::kRedFat, cfg);
    REDFAT_CHECK(hard.result.reason == HaltReason::kExit);
    REDFAT_CHECK(hard.outputs == base.outputs);

    const double overhead =
        static_cast<double>(hard.result.cycles) / static_cast<double>(base.result.cycles);
    overheads.push_back(overhead);
    total_text += img.TotalBytes();
    total_tramp += ir.rewrite_stats.trampoline_bytes;
    std::printf("%-26s %8.2fx %10.1f %9zu %11.1f %8.1fms\n", bench.name.c_str(), overhead,
                img.TotalBytes() / 1024.0, ir.plan_stats.trampolines,
                ir.rewrite_stats.trampoline_bytes / 1024.0, ms);
    rows += StrFormat("%s{\"name\":%s,\"overhead\":%.4f,\"text_bytes\":%llu,\"sites\":%zu,"
                      "\"tramp_bytes\":%llu,\"rewrite_ms\":%.3f}",
                      rows.empty() ? "" : ",", JsonStr(bench.name).c_str(), overhead,
                      static_cast<unsigned long long>(img.TotalBytes()),
                      ir.plan_stats.trampolines,
                      static_cast<unsigned long long>(ir.rewrite_stats.trampoline_bytes), ms);
  }
  std::printf("%-26s %8.2fx %10.1f %9s %11.1f\n", "Geomean / totals", Geomean(overheads),
              total_text / 1024.0, "-", total_tramp / 1024.0);
  std::printf("\nPaper: 1.28x geomean overhead on Kraken; Chrome (~149MB) rewrites "
              "successfully and runs stable.\n");
  return WriteJsonRecord(
      args, "figure8",
      StrFormat("\"rows\":[%s],\"geomean_overhead\":%.4f,\"total_text_bytes\":%llu,"
                "\"total_tramp_bytes\":%llu",
                rows.c_str(), Geomean(overheads), static_cast<unsigned long long>(total_text),
                static_cast<unsigned long long>(total_tramp)));
}

}  // namespace redfat
