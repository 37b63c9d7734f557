// Disassembly and conservative control-flow recovery for stripped binaries.
//
// The rewriter has no symbols or relocations to lean on, so basic-block
// recovery is heuristic and deliberately *over-approximates* jump targets
// (paper §6: an over-approximation only shrinks batches, never breaks
// correctness). Recovered targets come from:
//   * direct rel32 branch/call targets;
//   * any imm64 constant (mov $imm64) that lands inside the text section
//     (jump tables / function-pointer material);
//   * any aligned u64 word in data sections that lands inside text.
#ifndef REDFAT_SRC_RW_DISASM_H_
#define REDFAT_SRC_RW_DISASM_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/bin/image.h"
#include "src/isa/isa.h"
#include "src/support/result.h"

namespace redfat {

struct DisasmInsn {
  uint64_t addr = 0;
  unsigned length = 0;
  Instruction insn;

  uint64_t end() const { return addr + length; }
};

struct Disassembly {
  uint64_t text_vaddr = 0;
  uint64_t text_end = 0;
  std::vector<DisasmInsn> insns;  // sorted by address (linear sweep)

  bool InText(uint64_t addr) const { return addr >= text_vaddr && addr < text_end; }
  // Index of the instruction starting at `addr`, or SIZE_MAX (mid-instruction
  // or outside the text).
  size_t IndexAt(uint64_t addr) const {
    const auto it = std::lower_bound(
        insns.begin(), insns.end(), addr,
        [](const DisasmInsn& di, uint64_t a) { return di.addr < a; });
    return it != insns.end() && it->addr == addr ? static_cast<size_t>(it - insns.begin())
                                                 : SIZE_MAX;
  }
};

// Linear-sweep disassembly of the text section. Serial, like every
// analysis pass (DESIGN.md §4.7: only the per-item passes use the pool).
Result<Disassembly> DisassembleText(const BinaryImage& image);

struct CfgInfo {
  // Addresses that some (recovered, over-approximated) control transfer may
  // target, sorted and unique. In-text entries are instruction boundaries;
  // out-of-text ones (an odd entry point, or the return site of a call that
  // ends the text) are kept for reporting.
  std::vector<uint64_t> jump_targets;
  // Per instruction (parallel to Disassembly::insns): 1 if its address is a
  // jump target. Instrumentation must not pun over these.
  std::vector<uint8_t> is_target;
  // Basic-block id per instruction (parallel to Disassembly::insns).
  std::vector<uint32_t> block_id;
  uint32_t num_blocks = 0;

  bool IsJumpTarget(uint64_t addr) const {
    return std::binary_search(jump_targets.begin(), jump_targets.end(), addr);
  }
};

// One serial pass collects the targets, one more assigns the block ids.
CfgInfo RecoverCfg(const Disassembly& dis, const BinaryImage& image);

}  // namespace redfat

#endif  // REDFAT_SRC_RW_DISASM_H_
