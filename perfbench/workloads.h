// The three workloads. Each is an input set for the same three legs, so
// every end-to-end metric has a value on every workload:
//
//   * run leg    — baseline and hardened images run on the same inputs;
//                  hardened outputs must equal the baseline's;
//   * serve leg  — each image goes to a fresh in-process RewriteService
//                  (pool width 2): a cold miss, the same request again (a
//                  hit), then a profile upload (an incremental re-tier);
//                  every answer must be byte-identical to the offline
//                  Instrument result of the same request;
//   * detect leg — each case is hardened, run on its attack input (must end
//                  in kMemErrorAbort of the expected kind) and on its benign
//                  input (must exit).
//
// The workload decides how much of each leg there is. The legs a workload is
// not for are cut to a few items, just enough that every metric has a value
// (see README.md).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <sched.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/probe.h"
#include "perfbench/stats.h"

namespace perfbench {

struct Program {
  std::string name;
  redfat::BinaryImage base;
  redfat::InstrumentResult hard;
  redfat::RunConfig config;
};

struct ServeItem {
  std::string name;
  std::vector<uint8_t> wire;  // the request: serialized input image
  uint64_t input_bytes = 0;
  std::string profile_json;   // a telemetry snapshot of the hardened image
  std::vector<uint8_t> ref;         // offline Instrument(opts)
  std::vector<uint8_t> ref_tiered;  // offline Instrument(opts + profile)
};

struct Case {
  std::string name;
  redfat::BinaryImage image;
  std::vector<uint64_t> attack;
  std::vector<uint64_t> benign;
  redfat::ErrorKind expect = redfat::ErrorKind::kBounds;
};

struct Workload {
  std::string name;
  // Hardening of the programs and served images; the detection cases are
  // always hardened at the default (extensive) tier.
  redfat::ResolvedPolicy policy;
  redfat::ResolvedPolicy case_policy;
  std::vector<Program> programs;
  // kraken_serve runs its programs once per set-up rather than per pass:
  // its timed part is the rewrite service.
  bool programs_in_setup = false;
  std::vector<ServeItem> serve;
  std::vector<Case> cases;
  // Image bytes in and out of every hardening made in set-up.
  double in_bytes = 0.0;
  double out_bytes = 0.0;
  // The CPUs the process may use, as found at set-up.
  cpu_set_t cpus;
};

// What one pass over a leg set measured.
struct PassResult {
  // Run leg.
  std::vector<double> overheads;  // hardened / baseline guest cycles
  // Per program with executed checks: the dynamic full-check share.
  std::vector<double> coverage;
  // The hardened runs behind run_mips: guest instructions, and host ms per
  // program. They are the run leg's, except on kraken_serve, whose run leg
  // runs in set-up: there they are the detect leg's attack and benign runs.
  double hard_instructions = 0.0;
  std::vector<double> hard_ms;
  // Every guest run of the pass, for the determinism checks.
  uint64_t guest_instructions = 0;
  uint64_t guest_cycles = 0;
  // Serve leg: miss, hit and re-tier latencies.
  std::vector<double> rewrite_ms;
  double rewrite_bytes = 0.0;
  std::vector<double> hit_ms;
  std::vector<double> retier_ms;
  // Detect leg: host ms per case (instrument, attack run, benign run).
  uint64_t cases = 0;
  std::vector<double> case_ms;
  double case_in_bytes = 0.0;
  double case_out_bytes = 0.0;
  OpTally tally;
  double wall_ms = 0.0;
};

// Generates, profiles and hardens everything the workload's passes need;
// null for a name other than spec_ref, kraken_serve and heap_detect.
// `seed` is mixed into every generator seed; the same seed gives the same
// inputs. For kraken_serve the run leg executes here, into `setup_runs`.
std::unique_ptr<Workload> SetUp(const std::string& name, uint64_t seed, Probe& probe,
                                PassResult* setup_runs);

// One timed pass: the run leg (unless it runs in set-up), then the serve
// and detect legs, with the calling thread pinned to the `turn`-th CPU
// (modulo their number) of those the process may use.
//
// On a shared host one CPU can run the same loop almost twice as slowly as
// another for minutes at a time, and the scheduler keeps a busy thread where
// it is. Pinning pass after pass to each CPU in turn makes every run sample
// all of them. The service's worker thread is started with every CPU
// allowed, so the pool stays two CPUs wide.
PassResult RunPass(const Workload& w, Probe& probe, size_t turn);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
