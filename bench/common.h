// Shared helpers for the experiment harnesses (`rfbench <experiment>`).
#ifndef REDFAT_BENCH_COMMON_H_
#define REDFAT_BENCH_COMMON_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/harness.h"
#include "src/core/redfat.h"
#include "src/support/check.h"
#include "src/support/json.h"

namespace redfat {

// Fig. 5 step 1: instrument in profiling mode, run the test suite (train
// inputs), and distill the allow-list.
inline AllowList ProfileAndAllow(const BinaryImage& img, std::vector<uint64_t> train_inputs) {
  RedFatTool prof(RedFatOptions::Profile());
  Result<InstrumentResult> ir = prof.Instrument(img);
  REDFAT_CHECK(ir.ok());
  RunConfig cfg;
  cfg.inputs = std::move(train_inputs);
  cfg.policy = Policy::kLog;
  const RunOutcome out = RunImage(ir.value().image, RuntimeKind::kRedFat, cfg);
  REDFAT_CHECK(out.result.reason == HaltReason::kExit);
  return BuildAllowList(out.prof_counts, ir.value().sites);
}

inline InstrumentResult MustInstrument(const BinaryImage& img, const RedFatOptions& opts,
                                       const AllowList* allow = nullptr) {
  RedFatTool tool(opts);
  Result<InstrumentResult> r = tool.Instrument(img, allow);
  REDFAT_CHECK(r.ok());
  return std::move(r).value();
}

inline double Geomean(const std::vector<double>& xs) {
  if (xs.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (double x : xs) {
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

// The command line every experiment takes: `rfbench <name> [--quick] [--out FILE]`.
struct BenchArgs {
  bool quick = false;  // smaller workload and fewer reps, for smoke runs
  std::string out;     // where the JSON record goes; empty writes none
};

// Host wall-clock milliseconds on the steady clock.
inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// `s` as a JSON string value, quotes included.
inline std::string JsonStr(std::string_view s) {
  std::string out = "\"";  // appended in steps: GCC 12 -Wrestrict misfires on "lit" + rvalue
  out += JsonEscape(s);
  out += '"';
  return out;
}

// Writes `{"bench":"<bench>",<fields>}` and a newline to `args.out` and says so
// on stdout; writes nothing without --out. Returns 0, or 1 after naming the
// file on stderr when it cannot be written.
inline int WriteJsonRecord(const BenchArgs& args, std::string_view bench,
                           const std::string& fields) {
  if (args.out.empty()) {
    return 0;
  }
  std::string json = "{\"bench\":";
  json += JsonStr(bench);
  json += ",";
  json += fields;
  json += "}\n";
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  const bool written = f != nullptr && std::fputs(json.c_str(), f) >= 0;
  if (f == nullptr || std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "rfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", args.out.c_str());
  return 0;
}

}  // namespace redfat

#endif  // REDFAT_BENCH_COMMON_H_
