// Synthetic workload generator.
//
// Generates deterministic guest programs that exercise the instrumentation
// the way compiled C/C++/Fortran does: heap objects accessed through
// base+index*scale+disp operands, tight inner loops, global/stack traffic,
// helper calls (direct and through function-pointer tables), allocator
// churn — and, optionally, the `(array - K)[i]` anti-idiom responsible for
// the paper's false positives, plus input-gated blocks that model code paths
// only reached by the `ref` workload (train-coverage gaps).
//
// Properties relied on by the experiments:
//   * all accesses are in-bounds (no real memory errors), so any report is
//     a false positive by construction — except anti-idiom sites, which are
//     valid accesses that always fail the LowFat component (§5 hypothesis);
//   * output (a checksum) is allocator-independent: pointer values never
//     flow into it and memory is deterministically initialized, so baseline
//     and hardened runs must produce identical outputs;
//   * the same binary serves train and ref: iteration count and a mode word
//     are runtime inputs (inputs[0] = outer iterations, inputs[1] = mode
//     bits; bit 0 enables the ref-only blocks).
#ifndef REDFAT_SRC_WORKLOADS_SYNTH_H_
#define REDFAT_SRC_WORKLOADS_SYNTH_H_

#include <cstdint>
#include <vector>

#include "src/bin/image.h"

namespace redfat {

struct SynthParams {
  uint64_t seed = 1;

  // Heap shape.
  unsigned num_objects = 8;
  uint64_t min_object_bytes = 64;    // rounded to 8
  uint64_t max_object_bytes = 1024;

  // Program shape: one outer loop (trip count = inputs[0]) whose body is
  // `block_len` generated units.
  unsigned block_len = 40;
  unsigned num_helpers = 3;  // helper functions (direct + indirect calls)

  // Unit mix, in percent (the remainder is register arithmetic).
  unsigned mem_pct = 30;      // single heap load/store units
  unsigned stream_pct = 4;    // stencil inner-loop units (lbm/milc-like)
  unsigned stencil_unroll = 4;  // same-shape accesses per stencil iteration
  unsigned global_pct = 8;    // absolute/stack operands (eliminable)
  unsigned call_pct = 6;      // helper call units
  unsigned churn_pct = 0;     // free+malloc+memset units

  // Of heap mem units: writes vs reads, indexed vs disp-only addressing.
  unsigned write_pct = 50;
  unsigned indexed_pct = 60;
  // Accesses emitted per loaded object pointer, 1..max (struct-field /
  // stencil patterns: the fodder for check batching and merging, Fig. 6).
  unsigned max_accesses_per_ptr = 3;
  // % of multi-access units that split their accesses across a second,
  // derived base register: still batchable, but not mergeable (different
  // operand shape). Models pointer-chasing integer code where consecutive
  // accesses rarely share a base (perlbench) vs. stencils that do (lbm).
  unsigned split_base_pct = 0;

  // Dead weight: unreachable-but-instrumented functions, to scale the
  // binary (the Chrome experiment). Costs rewrite work, not runtime.
  unsigned filler_funcs = 0;
  unsigned filler_units_per_func = 6;

  // Latent real bugs (§7.1 "Detected errors"): executed once, outside the
  // loop; reads whose result does NOT flow into the checksum.
  unsigned underflow_bug_sites = 0;  // array[-1]-style redzone read
  unsigned overflow_bug_sites = 0;   // one-past-the-end read

  // False-positive machinery.
  unsigned anti_idiom_sites = 0;  // distinct always-FP access sites
  unsigned anti_idiom_pct = 0;    // % of heap mem units routed through them

  // Train-coverage gaps: % of units wrapped in a mode-gated block only
  // executed when inputs[1] bit 0 is set (the "ref" input).
  unsigned ref_only_pct = 0;

  // Branchy control flow: every `branch_every` units, fork on a mode bit.
  unsigned branch_every = 8;
};

BinaryImage GenerateSynthProgram(const SynthParams& params);

// Server-style request/response workload: sustained-traffic heap behaviour
// that the loop-centric synth program does not model. A producer allocates
// variable-size "requests" (LCG-sized, deterministically filled) into a
// fixed-capacity ring queue; a consumer drains one whenever the queue
// reaches `consume_threshold`, walking the payload into the checksum and
// freeing it; leftovers drain at the end. Every allocation has a different
// lifetime than its neighbours (allocation churn with overlapping live
// ranges), exactly the malloc/free interleaving a server under steady
// traffic produces. inputs[0] = number of requests. The checksum is
// allocator-independent: payload bytes are deterministically written and
// pointer values never flow into it, so baseline and hardened runs must
// produce identical outputs (same property as GenerateSynthProgram).
struct ServerParams {
  uint64_t seed = 1;
  unsigned queue_slots = 16;        // ring capacity (>= 2)
  unsigned consume_threshold = 8;   // drain one when live >= this (1..slots)
  uint64_t min_request_bytes = 32;  // multiple of 8, >= 16 (two header words)
  unsigned size_mask = 63;          // extra payload words: lcg_bits & mask
};

BinaryImage GenerateServerProgram(const ServerParams& params);

// Forensics workload: a program with one deliberately-stale heap pointer,
// used to exercise the error-report pipeline (rfrun --error-report) end to
// end. It allocates `num_objects` same-size objects (deterministic payload,
// checksummed), frees the middle one — leaving its table slot stale on
// purpose — then branches on inputs[0]:
//   mode 0  benign: no bug; frees the rest and exits cleanly;
//   mode 1  use-after-free: one store through the stale pointer;
//   mode 2  double free: frees the victim a second time (diagnosed and
//           skipped by the VM when a forensic ring is attached; without one
//           memcheck reports it and the glibc-like baseline faults).
// The checksum is computed before the bug fires and never depends on
// pointer values, so mode 0 and mode 1 under Policy::kLog produce identical
// output across runtimes.
struct UafParams {
  uint64_t seed = 1;
  unsigned num_objects = 5;     // >= 2; victim = num_objects / 2
  uint64_t object_bytes = 64;   // rounded up to a multiple of 8
};

BinaryImage GenerateUafProgram(const UafParams& params);

// Fragmentation/churn workload: a bounded pointer table hammered by an LCG —
// each operation picks a random slot, frees whatever lives there (checksumming
// its header first) and allocates a fresh object of LCG-chosen size in its
// place. Object lifetimes are exponential-ish and sizes span many size
// classes, so the allocator's freelists see constant push/pop traffic: the
// workload rfbench heap-throughput uses to price the rheap fast path.
// inputs[0] = operations, inputs[1] = mode:
//   mode 0  benign churn; exits cleanly after the final drain;
//   mode 1  forged next pointer: frees the first object of an otherwise
//           untouched size class, overwrites the freed slot's in-guest
//           freelist link word (ptr-8) through a stale pointer, then
//           frees/reallocates enough neighbours that the allocator walks the
//           forged link — detected as kFreelistCorruption under
//           --rheap=prot-freelist (with or without quarantine);
//   mode 2  overlapping free: frees base+64 of a live object — a misaligned
//           interior pointer, also diagnosed under prot-freelist.
// The checksum is emitted before the bug tail and is allocator-independent
// (header words are functions of the LCG stream alone; pointer values never
// flow into it), so mode-0 output is identical across runtimes and rheap
// feature sets.
struct ChurnParams {
  uint64_t seed = 1;
  unsigned table_slots = 16;   // live-object table capacity (power of two)
  uint64_t min_bytes = 16;     // smallest object (multiple of 8)
  unsigned size_steps = 64;    // sizes: min_bytes + (lcg & (steps-1)) * 16
  unsigned tail_objects = 66;  // mode-1 victim chain; > the default
                               // quarantine depth so the drain path triggers
  uint64_t tail_bytes = 4080;  // mode-1/2 object size; lands in a size class
                               // the churn loop never touches (4096 total)
};

BinaryImage GenerateChurnProgram(const ChurnParams& params);

// Canonical inputs for the two-phase workflow.
std::vector<uint64_t> TrainInputs(uint64_t iters);  // mode bit 0 clear
std::vector<uint64_t> RefInputs(uint64_t iters);    // mode bit 0 set

}  // namespace redfat

#endif  // REDFAT_SRC_WORKLOADS_SYNTH_H_
