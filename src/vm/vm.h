// The rvm virtual machine: executes rfi code with deterministic cycle
// accounting.
//
// Cycles are the project's performance currency: every slowdown factor in
// the reproduced tables is a ratio of cycle counts. The cycle model is a
// single fixed cost table (CycleModel) applied uniformly to baseline and
// instrumented runs, so overheads are *emergent* from the extra instructions
// the instrumentation executes, not assumed.
#ifndef REDFAT_SRC_VM_VM_H_
#define REDFAT_SRC_VM_VM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/bin/image.h"
#include "src/isa/abi.h"
#include "src/isa/isa.h"
#include "src/support/rng.h"
#include "src/support/telemetry.h"
#include "src/vm/allocator.h"
#include "src/vm/memory.h"

namespace redfat {

class HistogramCell;
class SampleProfiler;
class TelemetryRegistry;
class TelemetryShard;
class TraceWriter;

struct Flags {
  bool zf = false;
  bool sf = false;
  bool cf = false;
  bool of = false;

  uint64_t Pack() const {
    return (zf ? 1u : 0u) | (sf ? 2u : 0u) | (cf ? 4u : 0u) | (of ? 8u : 0u);
  }
  void Unpack(uint64_t v) {
    zf = v & 1;
    sf = v & 2;
    cf = v & 4;
    of = v & 8;
  }
};

struct CpuState {
  uint64_t regs[kNumGprs] = {};
  uint64_t rip = 0;
  Flags flags;

  uint64_t Get(Reg r) const { return regs[RegIndex(r)]; }
  void Set(Reg r, uint64_t v) { regs[RegIndex(r)] = v; }
};

// The address a memory operand resolves to. `next_rip` anchors rip-relative
// operands (address of the following instruction, as on x86_64).
inline uint64_t ComputeEffectiveAddress(const CpuState& cpu, const MemOperand& mem,
                                        uint64_t next_rip) {
  uint64_t addr = static_cast<uint64_t>(static_cast<int64_t>(mem.disp));
  if (mem.base == Reg::kRip) {
    addr += next_rip;
  } else if (mem.has_base()) {
    addr += cpu.Get(mem.base);
  }
  if (mem.has_index()) {
    addr += cpu.Get(mem.index) << mem.scale_log2;
  }
  return addr;
}

// Deterministic per-operation cycle costs. One table for every run.
struct CycleModel {
  uint64_t basic = 1;         // ALU / mov / lea / nop
  uint64_t mem = 3;           // explicit load/store
  uint64_t mul = 3;           // imul / mulh
  uint64_t branch = 1;        // jmp / jcc (taken or not)
  uint64_t call_ret = 2;      // call / ret / indirect jumps
  uint64_t push_pop = 2;      // push/pop/pushf/popf
  uint64_t hostcall_base = 30;  // fixed cost of crossing the libc boundary
  uint64_t membyte_per8 = 1;  // memset/memcpy marginal cost per 8 bytes
};

// How Vm::Run dispatches guest instructions. There are two engines:
//
//   * kStep  — the reference interpreter: per-instruction fetch through an
//              address-keyed decode cache (an unordered_map lookup each
//              instruction). It is the bit-identity oracle, and it also runs
//              every observer-attached run (see set_observer), whatever
//              engine is selected.
//   * kBlock — the fast engine: straight-line decoded runs (terminated at
//              any control transfer, hostcall or trap) stored contiguously in
//              a direct-mapped, entry-address-keyed code cache, executed
//              through specialized opcode handlers, with direct superblock
//              chaining and hot-chain traces. The steady state makes zero map
//              lookups and classifies trampoline ranges per block, not per
//              instruction.
//
// The two engines are bit-identical by contract: instructions, cycles,
// explicit reads/writes, telemetry counters, trace slices, mem-error reports
// and prof counts all match exactly for any program (asserted by
// tests/vm_engine_test.cc). kStep stays selectable for differential testing.
enum class VmEngine { kStep, kBlock };

enum class HaltReason {
  kExit,          // guest called exit()
  kHlt,           // executed hlt
  kFault,         // decode fault / ud2 / rip into unmapped memory
  kInstrLimit,    // exceeded the configured instruction budget
  kMemErrorAbort, // instrumentation reported an error under Policy::kHarden
  kAssertFail,    // guest self-check failed (workload bug, not a detection)
};

// What to do when instrumentation reports a memory error (paper §4.2: the
// error() function aborts for hardening or logs for bug finding).
enum class Policy { kHarden, kLog };

struct MemErrorReport {
  uint32_t site = 0;
  ErrorKind kind = ErrorKind::kBounds;
  uint64_t rip = 0;
  uint64_t instruction_index = 0;
  // Faulting effective address, when the reporter could compute one. Trap
  // payloads carry only (site, kind), so trap-raised reports have no address;
  // DBI observers and the VM's own double-free interception do.
  uint64_t addr = 0;
  bool has_addr = false;
};

struct RunResult {
  HaltReason reason = HaltReason::kFault;
  uint64_t exit_status = 0;
  std::string fault_message;
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  // Explicit memory-operand accesses (load/store/storei) — the population
  // RedFat instruments. Stack push/pop/call traffic is excluded, as in the
  // paper's notion of "memory operands".
  uint64_t explicit_reads = 0;
  uint64_t explicit_writes = 0;
};

class Vm;

// Hook for dynamic-binary-instrumentation style baselines (Memcheck): runs
// before each instruction and returns extra cycles to charge.
class ExecObserver {
 public:
  virtual ~ExecObserver() = default;
  virtual uint64_t OnInstruction(Vm& vm, uint64_t addr, const Instruction& insn) = 0;
};

// Hook for allocation-provenance tracking (implemented by ForensicRing in
// src/heap/forensics.h): the VM reports every guest malloc/free when an
// observer is attached, and consults it to classify double frees and to
// measure how far a faulting address landed from tracked heap objects.
// Attaching one never changes guest-visible behaviour or modeled cycles on
// error-free runs.
class HeapObserver {
 public:
  virtual ~HeapObserver() = default;
  virtual void OnAlloc(uint64_t ptr, uint64_t size, uint64_t pc,
                       uint64_t instruction, uint64_t cycles, uint64_t epoch) = 0;
  virtual void OnFree(uint64_t ptr, uint64_t pc, uint64_t instruction,
                      uint64_t cycles, uint64_t epoch) = 0;
  // True when `ptr` is the exact base of an object that was freed and not
  // since reallocated — the double-free witness.
  virtual bool WasFreed(uint64_t ptr) const = 0;
  // Distance in bytes from `addr` to the nearest tracked payload (0 = inside
  // one). Returns false when nothing is tracked yet.
  virtual bool DistanceTo(uint64_t addr, uint64_t* distance) const = 0;
};

class Vm {
 public:
  explicit Vm(CycleModel model = CycleModel{}) : model_(model) {}

  // Maps all image sections and the stack; sets rip/rsp. Does not clear
  // profiling/error state (call ResetRunState for that).
  void LoadImage(const BinaryImage& image);

  void set_allocator(GuestAllocator* a) { allocator_ = a; }
  // A per-instruction observer (DBI baselines such as Memcheck, the debug
  // tier's shadow check). While one is attached, Run uses the stepper: the
  // fast engine's chained and specialized paths have no per-instruction hook.
  void set_observer(ExecObserver* o) { observer_ = o; }
  void set_policy(Policy p) { policy_ = p; }
  void set_inputs(std::vector<uint64_t> inputs) {
    inputs_ = std::move(inputs);
    input_pos_ = 0;
  }
  void set_rng_seed(uint64_t seed) { rng_ = Rng(seed); }
  void set_instruction_limit(uint64_t limit) { instruction_limit_ = limit; }
  void set_engine(VmEngine e) { engine_ = e; }
  VmEngine engine() const { return engine_; }

  // Host-side dispatch-layer statistics. These describe the engine, not the
  // guest: they are deliberately NOT part of the bit-identity contract (the
  // stepper has no chains to count) and are never written into an attached
  // TelemetryRegistry. rfrun --report surfaces them as vm.* counters.
  struct DispatchStats {
    uint64_t blocks_built = 0;        // superblock decodes (cold path)
    uint64_t code_cache_evictions = 0;  // direct-mapped collision rebuilds
    uint64_t block_chains = 0;        // block->block transfers via chain link
    uint64_t chain_exits = 0;         // chained execution re-entered dispatcher
    uint64_t links_patched = 0;       // successor links installed
    uint64_t traces_formed = 0;       // hot chains promoted to traces
    uint64_t trace_runs = 0;          // whole-trace executions
    uint64_t tlb_hits = 0;            // memory-TLB probes, all access paths
    uint64_t tlb_misses = 0;
    HistogramData trace_len;          // blocks per formed trace
  };
  DispatchStats dispatch_stats() const {
    DispatchStats d = dispatch_;
    d.tlb_hits = memory_.tlb_hits();
    d.tlb_misses = memory_.tlb_misses();
    return d;
  }

  // Fires `hook` every `every` executed guest instructions (at the exact
  // instruction boundary, identically under both engines), e.g. to cut
  // periodic telemetry snapshots. The hook runs on the VM thread between
  // instructions; it must not mutate guest state and charges no cycles.
  // every == 0 disables.
  void set_epoch_hook(uint64_t every, std::function<void()> hook) {
    epoch_every_ = every;
    epoch_hook_ = std::move(hook);
    epoch_next_ = instructions_ + every;
  }

  // Optional observability sinks; null (the default) disables the
  // corresponding tracking entirely. Neither affects modeled cycles — an
  // instrumented run executes the exact same guest work with or without
  // telemetry attached.
  void set_telemetry(TelemetryRegistry* t);
  void set_trace(TraceWriter* t) { trace_ = t; }
  // Interval sampling: one TakeSample call every sampler->period() executed
  // guest instructions, at the exact boundary under either engine. Charges
  // no cycles; null detaches.
  void set_sampler(SampleProfiler* s);
  // Allocation provenance sink + double-free detector; null detaches.
  void set_heap_observer(HeapObserver* o) { heap_obs_ = o; }
  // Optional keyed-site-id -> original-instruction-address map (see
  // telemetry.h ImageSiteKey). When set, trampoline/mem_error trace events
  // carry a `site_addr` arg linking the slice back to the disassembly.
  void set_site_addrs(const std::unordered_map<uint32_t, uint64_t>* m) {
    site_addrs_ = m;
  }

  RunResult Run();

  // --- state inspection ----------------------------------------------------
  Memory& memory() { return memory_; }
  const Memory& memory() const { return memory_; }
  CpuState& cpu() { return cpu_; }
  const CpuState& cpu() const { return cpu_; }
  const std::vector<uint64_t>& outputs() const { return outputs_; }
  const std::vector<MemErrorReport>& mem_errors() const { return mem_errors_; }
  const std::unordered_map<uint32_t, uint64_t>& counters() const { return counters_; }
  // Profiling events per site: {passes, fails}.
  struct ProfCounts {
    uint64_t passes = 0;
    uint64_t fails = 0;
  };
  const std::unordered_map<uint32_t, ProfCounts>& prof_counts() const { return prof_counts_; }
  const CycleModel& cycle_model() const { return model_; }
  // High-water mark of tracked live heap bytes (0 unless a heap histogram
  // sink or HeapObserver was attached for the whole run).
  uint64_t live_bytes_peak() const { return live_bytes_peak_; }

  // Reports a memory error on behalf of instrumentation (used both by kTrap
  // handling and by DBI observers). Returns true if the run must abort.
  // The three-argument form attaches the faulting effective address when the
  // caller could compute it (DBI observers can; trap payloads cannot).
  bool ReportMemError(uint32_t site, ErrorKind kind);
  bool ReportMemError(uint32_t site, ErrorKind kind, uint64_t addr);

  // Charged by observers/allocators for modeled work.
  void AddCycles(uint64_t c) { cycles_ += c; }

  // Is `addr` inside any loaded image's trampoline/inline-check section?
  // Public so DBI observers can skip instrumentation code (whose metadata
  // loads legitimately touch redzone-state memory).
  bool InTrampoline(uint64_t addr) const;

 private:
  struct TrampRange;

  // Decode-time specialization: the hottest opcode+operand shapes are
  // classified once per superblock build into a flat form that a dedicated
  // executor runs without re-inspecting the Instruction — register numbers
  // pre-indexed, rip-relative displacements folded to absolute (the anchor
  // next_rip is static per decoded instruction), direct branch targets
  // precomputed. kSGeneric routes everything else (hostcalls, traps, flag
  // stack ops, faulting opcodes) through the stepper's ExecuteOne, which is
  // also the bit-identity oracle for every specialized handler.
  enum SpecOp : uint8_t {
    kSGeneric = 0,
    kSNop,
    kSMovRI, kSMovRR, kSLea,
    kSLoad, kSStoreR, kSStoreI,
    kSAddRR, kSAddRI, kSSubRR, kSSubRI,
    kSAndRR, kSAndRI, kSOrRR, kSOrRI, kSXorRR, kSXorRI,
    kSShlRI, kSShrRI, kSSarRI,
    kSImulRR, kSImulRI, kSMulhRR,
    kSCmpRR, kSCmpRI, kSTestRR,
    kSCount,
    // cmp/test+jcc macro-op fusion: the compare executes its own semantics
    // AND the following Jcc in one step (two guest instructions). Only ever
    // the last two entries of a block (Jcc terminates it); when the
    // instruction budget can't cover both, the compare executes unfused.
    kSCmpRRJcc, kSCmpRIJcc, kSTestRRJcc,
    // Block terminators with precomputed (kSJmp/kSJcc/kSCall) targets.
    kSJmp, kSJcc, kSJmpR, kSCall, kSCallR, kSRet,
    kSPush, kSPop,
  };
  struct Spec {
    uint8_t op = kSGeneric;  // SpecOp
    uint8_t r0 = 0;          // pre-indexed GPR operands
    uint8_t r1 = 0;
    uint8_t base = 0xff;     // memory base GPR, 0xff = none/folded
    uint8_t idx = 0xff;      // memory index GPR, 0xff = none
    uint8_t scale = 0;       // index scale_log2
    uint8_t size = 8;        // memory access size in bytes
    uint8_t cond = 0;        // Cond for kSJcc and the fused forms
    int64_t imm = 0;         // sign-extended immediate / imm64 / shift count
    int64_t disp = 0;        // displacement; absolute when rip-rel was folded
    uint64_t target = 0;     // precomputed taken target (direct transfers)
    uint64_t next = 0;       // static fall-through address (insn end)
  };

  struct Exec {
    Instruction insn;
    unsigned length = 0;
    Spec spec;
  };

  // A superblock: decoded straight-line instruction run starting at `entry`.
  // Blocks end at the first control transfer / hostcall / trap / hlt (that
  // terminator is the block's last instruction), at a decode failure (the
  // undecodable instruction is NOT part of the block — re-dispatching at its
  // address reproduces the step engine's fault), at kMaxBlockInsns, and at
  // any trampoline/inline-region boundary, so one range classification holds
  // for the whole block.
  //
  // succ[] are the chain links (direct-linking a la DynamoRIO): [0] = the
  // fall-through/untaken successor, [1] = the taken/indirect-target successor
  // (a monomorphic inline cache for indirect transfers). Links are hints, not
  // truth: a link is followed only after validating `succ->entry` against the
  // actual next rip and `succ->range` against this block's range, so stale
  // links left behind by collision eviction or a rebuilt slot self-invalidate
  // without predecessor bookkeeping.
  struct Block {
    uint64_t entry = ~uint64_t{0};  // tag; ~0 = empty slot
    std::vector<Exec> execs;
    const TrampRange* range = nullptr;  // classification at entry (null = user code)
    uint64_t fall_rip = 0;          // address one past the last instruction
    Block* succ[2] = {nullptr, nullptr};
    uint32_t hits = 0;              // dispatcher entries; drives trace formation
    int32_t trace = -1;             // index into traces_ once promoted
  };
  static constexpr size_t kBlockCacheSize = 4096;  // direct-mapped; power of two
  static_assert((kBlockCacheSize & (kBlockCacheSize - 1)) == 0);
  static constexpr size_t kMaxBlockInsns = 128;

  // A trace: the concatenation of a hot chain's blocks into one straight-line
  // Exec run with interior guards. Owns copies of the member blocks' execs,
  // so collision eviction of a member block can't tear a live trace; segment
  // i must be entered at seg_entry[i] (the guard) or execution falls back to
  // the dispatcher with rip intact.
  struct Trace {
    uint64_t entry = 0;
    const TrampRange* range = nullptr;  // every segment shares it
    std::vector<Exec> execs;
    std::vector<uint32_t> seg_end;     // one past each segment's last exec
    std::vector<uint64_t> seg_entry;   // expected entry rip per segment
    std::vector<bool> seg_last_cf;     // segment ends with a control transfer
  };
  static constexpr uint32_t kTraceThreshold = 64;  // dispatches before recording
  static constexpr size_t kMaxTraceSegments = 16;
  static constexpr size_t kMaxTraceInsns = 512;
  static constexpr size_t kMaxTraces = 256;

  const Exec* FetchDecode(uint64_t addr, std::string* fault);
  // Returns the (possibly rebuilt) superblock entered at `addr`, or null on
  // an immediate decode fault (same message as FetchDecode's).
  Block* FetchBlock(uint64_t addr, std::string* fault);
  // Fills ex->spec from ex->insn as decoded at address `addr`.
  void BuildSpec(Exec* ex, uint64_t addr);
  void RunStepLoop(RunResult* res);
  void RunBlockLoop(RunResult* res);
  // Executes up to `budget` guest instructions from execs[0..count) through
  // the specialized handlers. Returns instructions executed (== execs
  // consumed, counting a fused pair as two of each). On return cpu_.rip is
  // materialized to the next instruction to execute.
  size_t ExecSpecs(Exec* execs, size_t count, size_t budget,
                   std::string* fault, bool* faulted);
  // Runs the trace (cpu_.rip == t.entry), looping while it closes on itself.
  // Returns false on a fault (message in *fault). Respects instruction/
  // sampler/epoch boundaries exactly, exiting mid-trace when one lands
  // inside a segment.
  bool ExecTrace(Trace& t, bool track_sb, std::string* fault);
  void BeginTraceRecording(Block* head);
  // Appends a fully-executed block to the in-progress recording; finishes
  // (bake or discard) when a stop condition hits. `next_rip` is where
  // execution goes after the block.
  void RecordTraceBlock(const Block& b, uint64_t next_rip);
  void FinishTraceRecording(bool bake);
  // Ordinal of the image whose trampoline section contains `addr`, or -1.
  int TrampImageAt(uint64_t addr) const;
  // The trampoline/inline-check range containing `addr`, or null.
  const TrampRange* TrampRangeAt(uint64_t addr) const;
  // Telemetry key for `site` in the current trampoline's image: plain in
  // single-image runs (back-compat), (image, site)-packed in multi-image
  // runs so per-library counters stay unambiguous (§7.4).
  uint32_t SiteKeyFor(uint32_t site) const;
  void OnCountSite(uint32_t site);       // telemetry bookkeeping for Op::kCount
  void FlushTrampolineVisit();           // close the current trampoline slice
  void TakeSampleNow();                  // sampler_ fires at this boundary
  // --metrics-epoch ordinal of the current instant (0 when epochs are off).
  uint64_t CurrentEpoch() const {
    return epoch_every_ != 0 ? instructions_ / epoch_every_ : 0;
  }
  bool ReportMemErrorImpl(uint32_t site, ErrorKind kind, uint64_t addr,
                          bool has_addr);
  uint64_t EffectiveAddress(const MemOperand& mem, uint64_t next_rip) const;
  void SetFlagsLogic(uint64_t result);
  bool EvalCond(Cond c) const;
  // Returns false if the run should halt; fills halt info.
  bool ExecuteOne(const Exec& ex, std::string* fault);
  bool DoHostCall(HostFn fn, std::string* fault);

  CycleModel model_;
  Memory memory_;
  CpuState cpu_;
  GuestAllocator* allocator_ = nullptr;
  ExecObserver* observer_ = nullptr;
  TelemetryRegistry* telemetry_ = nullptr;
  TelemetryShard* tshard_ = nullptr;  // this VM's shard of telemetry_
  TraceWriter* trace_ = nullptr;
  Policy policy_ = Policy::kHarden;
  Rng rng_{0x5eedULL};

  std::vector<uint64_t> inputs_;
  size_t input_pos_ = 0;
  std::vector<uint64_t> outputs_;
  std::vector<MemErrorReport> mem_errors_;
  // Latched by a TrapCode::kErrAddr prologue trap; consumed (and cleared)
  // by the kMemError trap that immediately follows it.
  uint64_t pending_err_addr_ = 0;
  bool pending_err_has_addr_ = false;
  std::unordered_map<uint32_t, uint64_t> counters_;
  std::unordered_map<uint32_t, ProfCounts> prof_counts_;
  std::unordered_map<uint64_t, Exec> icache_;     // step engine decode cache
  std::vector<Block> block_cache_;  // fast engine; kBlockCacheSize once used
  DispatchStats dispatch_;
  std::vector<std::unique_ptr<Trace>> traces_;  // stable across growth
  // In-progress trace recording (at most one at a time).
  bool trace_recording_ = false;
  Block* trace_head_ = nullptr;
  Trace trace_rec_;

  VmEngine engine_ = VmEngine::kBlock;
  uint64_t epoch_every_ = 0;
  uint64_t epoch_next_ = 0;
  std::function<void()> epoch_hook_;
  SampleProfiler* sampler_ = nullptr;
  uint64_t sampler_next_ = 0;  // instruction index of the next sample

  uint64_t instruction_limit_ = 200'000'000'000ULL;
  uint64_t instructions_ = 0;
  uint64_t cycles_ = 0;
  uint64_t explicit_reads_ = 0;
  uint64_t explicit_writes_ = 0;

  // Set while executing: halt requested by the current instruction.
  bool halt_ = false;
  HaltReason halt_reason_ = HaltReason::kHlt;
  uint64_t exit_status_ = 0;

  // --- telemetry-only state (untouched when no sink is attached) -----------
  // Trampoline sections of every loaded image; accumulated across LoadImage
  // calls (shared-object runs map several images into one address space).
  // Each range remembers which image (by load ordinal) owns it so per-site
  // counters can be keyed per image.
  struct TrampRange {
    uint64_t lo = 0;
    uint64_t hi = 0;
    uint32_t image = 0;
    // True for the image's inline-check (hot-tier) region: its visits are
    // attributed to SiteEvent::kInlineCycles instead of kTrampCycles.
    bool inline_region = false;
  };
  std::vector<TrampRange> tramp_ranges_;
  const std::unordered_map<uint32_t, uint64_t>* site_addrs_ = nullptr;
  uint32_t images_loaded_ = 0;   // LoadImage calls; the next image's ordinal
  bool t_in_tramp_ = false;      // rip currently inside a trampoline section
  bool t_inline_ = false;        // ... and that section is an inline-check region
  bool t_have_site_ = false;     // current visit has executed a Count yet
  uint32_t t_site_ = 0;          // last site counted in the current visit (plain id)
  uint32_t t_image_ = 0;         // image ordinal of the current trampoline
  uint64_t t_entry_cycles_ = 0;  // cycles_ when the current visit began
  uint64_t t_tramp_cycles_ = 0;  // total trampoline cycles, all visits
  uint64_t t_tramp_reported_ = 0;  // portion already pushed to the registry
  uint64_t t_inline_cycles_ = 0;   // total inline-check cycles, all visits
  uint64_t t_inline_reported_ = 0;  // portion already pushed to the registry
  uint64_t t_live_allocs_ = 0;   // malloc minus free (trace counter track)

  // Histogram cells (owned by telemetry_; fetched once in set_telemetry so
  // the hot paths cost one null check each when telemetry is detached).
  HistogramCell* h_tramp_visit_ = nullptr;     // vm.tramp_visit_cycles
  HistogramCell* h_superblock_len_ = nullptr;  // vm.superblock_len
  HistogramCell* h_malloc_bytes_ = nullptr;    // heap.malloc_bytes
  HistogramCell* h_live_bytes_ = nullptr;      // heap.live_bytes
  HistogramCell* h_live_objects_ = nullptr;    // heap.live_objects
  HistogramCell* h_alloc_lifetime_ = nullptr;  // heap.alloc_lifetime_cycles
  HistogramCell* h_error_distance_ = nullptr;  // vm.error_distance
  // Length of the current dynamic straight-line run (instructions executed
  // since the last control transfer) — the engine-invariant definition of
  // "superblock length", identical whether runs dispatch per-insn or
  // per-block.
  uint64_t sb_run_len_ = 0;

  // Heap bookkeeping for histograms + forensics: base -> {requested size,
  // cycles at allocation}. Maintained only while a heap histogram sink or a
  // HeapObserver is attached.
  struct LiveAlloc {
    uint64_t size = 0;
    uint64_t cycles = 0;
  };
  HeapObserver* heap_obs_ = nullptr;
  std::unordered_map<uint64_t, LiveAlloc> live_allocs_;
  uint64_t live_bytes_ = 0;
  uint64_t live_bytes_peak_ = 0;
};

}  // namespace redfat

#endif  // REDFAT_SRC_VM_VM_H_
