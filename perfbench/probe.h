// The benchmark's only doorway into the libraries: every call a workload
// makes into a layer goes through a Probe method, which times it, counts
// what the layer reports back, and — in a traced run — records a span for
// it. Spans live in memory until WriteTrace() at the end of the run.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/serve/service.h"
#include "src/support/trace.h"

namespace perfbench {

// Layers a span can belong to. kBench is the benchmark's own per-operation
// span, the parent of the layer calls one operation makes.
enum class Layer { kBench, kSetup, kRw, kPipeline, kVm, kServe };
inline constexpr size_t kNumLayers = 6;
const char* LayerName(Layer layer);

struct Span {
  std::string name;
  Layer layer = Layer::kBench;
  uint64_t op = 0;   // operation id, shared by every span of one operation
  int parent = -1;   // index of the enclosing span, -1 at top level
  double start_us = 0.0;
  double end_us = 0.0;
};

// A result together with the host time its call took.
template <typename T>
struct Timed {
  T value;
  double ms = 0.0;
};

class Probe {
 public:
  explicit Probe(bool tracing);

  void set_tracing(bool on) { tracing_ = on; }

  // Opens a per-operation span with a fresh operation id; spans opened
  // until the matching EndOp() belong to it.
  void BeginOp(const std::string& name);
  void EndOp();

  // --- layer calls ----------------------------------------------------------
  // Runs a workload generator (src/workloads) under the set-up layer.
  void Generate(const std::function<void()>& gen);
  redfat::AllowList Profile(const redfat::BinaryImage& image, std::vector<uint64_t> train);
  // Runs a hardened image with telemetry on and returns the snapshot JSON a
  // profile upload carries.
  std::string ProfileSnapshot(const redfat::BinaryImage& hardened, redfat::RuntimeKind runtime,
                              const redfat::RunConfig& config);
  Timed<redfat::InstrumentResult> Instrument(const redfat::BinaryImage& image,
                                             const redfat::RedFatOptions& opts,
                                             const redfat::AllowList* allow = nullptr);
  Timed<redfat::RunOutcome> Run(const redfat::BinaryImage& image, redfat::RuntimeKind runtime,
                                const redfat::RunConfig& config);
  Timed<redfat::Result<redfat::RewriteService::Outcome>> ServeRewrite(
      redfat::RewriteService& svc, const std::vector<uint8_t>& wire,
      const redfat::RedFatOptions& opts);
  Timed<redfat::Result<redfat::RewriteService::Outcome>> ServeUpload(
      redfat::RewriteService& svc, uint64_t image_hash, const redfat::RedFatOptions& opts,
      const std::string& profile_json);
  // Samples the service's cache occupancy once it has served its requests.
  void ServeFinished(const redfat::RewriteService& svc);

  // --- what the layers reported ---------------------------------------------
  // Named counts summed over every traced call since the last ResetCounts().
  const std::map<std::string, double>& counts() const { return counts_; }
  void ResetCounts() { counts_.clear(); }

  const std::vector<Span>& spans() const { return spans_; }
  // Self time per layer, in µs, over the spans from index `first` on.
  std::array<double, kNumLayers> SelfTimeUs(size_t first) const;
  // Renders every span as trace-event JSON, each with its operation id,
  // replays the pipeline passes through AppendPipelineTrace, and validates
  // the result.
  redfat::Result<std::string> WriteTrace() const;

 private:
  using Clock = std::chrono::steady_clock;

  double NowUs() const;
  int Open(const std::string& name, Layer layer);
  void Close(int index);
  // Counts, like spans, are recorded only while tracing.
  void Add(const std::string& name, double v) {
    if (tracing_) {
      counts_[name] += v;
    }
  }

  bool tracing_;
  Clock::time_point epoch_;
  uint64_t next_op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
  std::vector<int> op_stack_;
  // The passes of every traced Instrument call, re-based to the trace's
  // timeline, replayed into the trace file by WriteTrace.
  redfat::PipelineStats pipeline_passes_;
  std::map<std::string, double> counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
