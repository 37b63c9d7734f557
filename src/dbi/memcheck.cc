#include "src/dbi/memcheck.h"

#include "src/support/check.h"

namespace redfat {

AllocOutcome Memcheck::Malloc(Memory& mem, uint64_t size) {
  const uint64_t ptr = heap_.Alloc(mem, size);
  if (ptr == 0) {
    return AllocOutcome{0, heapcost::kLegacyMalloc};
  }
  shadow_.Mark(ptr - kRedzoneSize, kRedzoneSize, ShadowState::kRedzone);
  shadow_.Mark(ptr, size, ShadowState::kAllocated);
  shadow_.Mark(ptr + size, kRedzoneSize, ShadowState::kRedzone);
  sizes_[ptr] = size;
  return AllocOutcome{ptr, heapcost::kLegacyMalloc + costs_.alloc_extra};
}

FreeOutcome Memcheck::Free(Memory& mem, uint64_t ptr) {
  (void)mem;
  if (ptr == 0) {
    return FreeOutcome{heapcost::kLegacyFree};
  }
  auto it = sizes_.find(ptr);
  REDFAT_CHECK(it != sizes_.end());
  shadow_.Mark(ptr, it->second, ShadowState::kFree);
  sizes_.erase(it);
  quarantine_.push_back(ptr);
  if (quarantine_.size() > quarantine_blocks_) {
    heap_.Free(quarantine_.front());
    quarantine_.pop_front();
  }
  return FreeOutcome{heapcost::kLegacyFree + costs_.alloc_extra};
}

uint64_t Memcheck::OnInstruction(Vm& vm, uint64_t addr, const Instruction& insn) {
  uint64_t cycles = costs_.dispatch;
  if (IsControlFlow(insn.op)) {
    cycles += costs_.branch_extra;
  }
  if (IsMemAccess(insn.op)) {
    const uint64_t ea =
        ComputeEffectiveAddress(vm.cpu(), insn.mem, addr + EncodedLength(insn.op));
    const ShadowState state = shadow_.QueryRange(ea, insn.mem.access_size());
    if (state == ShadowState::kRedzone) {
      vm.ReportMemError(0, ErrorKind::kBounds, ea);
    } else if (state == ShadowState::kFree) {
      vm.ReportMemError(0, ErrorKind::kUaf, ea);
    }
    cycles += costs_.shadow_check;
  }
  return cycles;
}

RunOutcome RunMemcheck(const BinaryImage& image, const RunConfig& config,
                       MemcheckCostModel costs) {
  Vm vm(config.model);
  Memcheck memcheck(costs);
  vm.set_allocator(&memcheck);
  vm.set_observer(&memcheck);
  vm.set_policy(config.policy);
  vm.set_inputs(config.inputs);
  vm.set_rng_seed(config.rng_seed);
  vm.set_instruction_limit(config.instruction_limit);
  if (config.metrics_epoch != 0 && config.on_epoch) {
    vm.set_epoch_hook(config.metrics_epoch, config.on_epoch);
  }
  vm.set_telemetry(config.telemetry);
  vm.set_trace(config.trace);
  vm.set_sampler(config.sampler);
  vm.set_heap_observer(config.forensics);
  vm.LoadImage(image);

  RunOutcome out;
  out.result = vm.Run();
  out.outputs = vm.outputs();
  out.errors = vm.mem_errors();
  out.counters = vm.counters();
  out.prof_counts = vm.prof_counts();
  out.touched_pages = vm.memory().TouchedPages();
  if (config.forensics != nullptr) {
    for (const MemErrorReport& e : out.errors) {
      out.forensic_reports.push_back(BuildForensicReport(
          e, *config.forensics, vm.memory(), nullptr, config.forensic_tier));
    }
  }
  return out;
}

}  // namespace redfat
