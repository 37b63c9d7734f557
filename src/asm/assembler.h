// A small assembler for rfi code: label management, forward references,
// imm64 address fixups, and one emit helper per instruction form.
//
// Used by the workload generators (to build guest "binaries") and by the
// RedFat check code generator (to build trampoline code).
//
// Position-dependent fields come in two kinds. Label fixups are resolved by
// Finish() against the base at that time. PC-relative fields that aim
// *outside* the buffer — the rel32 of JmpAbs/JccAbs/CallAbs and the disp32
// of rip-relative Load/Store/StoreI/Lea — are encoded immediately and
// remembered, so Rebase() can re-aim them when assembled code is placed at
// another address before Finish().
#ifndef REDFAT_SRC_ASM_ASSEMBLER_H_
#define REDFAT_SRC_ASM_ASSEMBLER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/isa/abi.h"
#include "src/isa/isa.h"

namespace redfat {

// Convenience builders for memory operands. SizeLog2: 0=byte .. 3=qword.
inline MemOperand MemAt(Reg base, int32_t disp, uint8_t size_log2 = 3) {
  MemOperand m;
  m.base = base;
  m.disp = disp;
  m.size_log2 = size_log2;
  return m;
}

inline MemOperand MemBIS(Reg base, Reg index, uint8_t scale_log2, int32_t disp,
                         uint8_t size_log2 = 3) {
  MemOperand m;
  m.base = base;
  m.index = index;
  m.scale_log2 = scale_log2;
  m.disp = disp;
  m.size_log2 = size_log2;
  return m;
}

inline MemOperand MemAbs(int32_t addr, uint8_t size_log2 = 3) {
  MemOperand m;
  m.disp = addr;
  m.size_log2 = size_log2;
  return m;
}

class Assembler {
 public:
  // `base_vaddr` is the virtual address the emitted bytes will be loaded at.
  explicit Assembler(uint64_t base_vaddr) : base_vaddr_(base_vaddr) {}

  using Label = uint32_t;

  Label NewLabel() {
    labels_.emplace_back();
    return static_cast<Label>(labels_.size() - 1);
  }

  // Binds `label` to the current position.
  void Bind(Label label);

  // Current virtual address (start of the next emitted instruction).
  uint64_t Here() const { return base_vaddr_ + bytes_.size(); }
  size_t SizeBytes() const { return bytes_.size(); }

  // --- instruction emitters ---------------------------------------------
  void Nop() { Emit({.op = Op::kNop}); }
  void Hlt() { Emit({.op = Op::kHlt}); }
  void Ud2() { Emit({.op = Op::kUd2}); }
  void Ret() { Emit({.op = Op::kRet}); }
  void Pushf() { Emit({.op = Op::kPushf}); }
  void Popf() { Emit({.op = Op::kPopf}); }

  void MovRI(Reg r, uint64_t imm) {
    Emit({.op = Op::kMovRI, .r0 = r, .imm = static_cast<int64_t>(imm)});
  }
  // mov r <- &label (imm64 fixup; used for jump tables / function pointers).
  void MovLabelAddr(Reg r, Label label);
  void MovRR(Reg dst, Reg src) { Emit({.op = Op::kMovRR, .r0 = dst, .r1 = src}); }

  void Load(Reg dst, const MemOperand& mem) { Emit({.op = Op::kLoad, .r0 = dst, .mem = mem}); }
  void Store(Reg src, const MemOperand& mem) {
    Emit({.op = Op::kStoreR, .r0 = src, .mem = mem});
  }
  void StoreI(const MemOperand& mem, int32_t imm) {
    Emit({.op = Op::kStoreI, .mem = mem, .imm = imm});
  }
  void Lea(Reg dst, const MemOperand& mem) { Emit({.op = Op::kLea, .r0 = dst, .mem = mem}); }

  void Add(Reg dst, Reg src) { Emit({.op = Op::kAddRR, .r0 = dst, .r1 = src}); }
  void AddI(Reg dst, int32_t imm) { Emit({.op = Op::kAddRI, .r0 = dst, .imm = imm}); }
  void Sub(Reg dst, Reg src) { Emit({.op = Op::kSubRR, .r0 = dst, .r1 = src}); }
  void SubI(Reg dst, int32_t imm) { Emit({.op = Op::kSubRI, .r0 = dst, .imm = imm}); }
  void Imul(Reg dst, Reg src) { Emit({.op = Op::kImulRR, .r0 = dst, .r1 = src}); }
  void ImulI(Reg dst, int32_t imm) { Emit({.op = Op::kImulRI, .r0 = dst, .imm = imm}); }
  void Mulh(Reg dst, Reg src) { Emit({.op = Op::kMulhRR, .r0 = dst, .r1 = src}); }
  void And(Reg dst, Reg src) { Emit({.op = Op::kAndRR, .r0 = dst, .r1 = src}); }
  void AndI(Reg dst, int32_t imm) { Emit({.op = Op::kAndRI, .r0 = dst, .imm = imm}); }
  void Or(Reg dst, Reg src) { Emit({.op = Op::kOrRR, .r0 = dst, .r1 = src}); }
  void OrI(Reg dst, int32_t imm) { Emit({.op = Op::kOrRI, .r0 = dst, .imm = imm}); }
  void Xor(Reg dst, Reg src) { Emit({.op = Op::kXorRR, .r0 = dst, .r1 = src}); }
  void XorI(Reg dst, int32_t imm) { Emit({.op = Op::kXorRI, .r0 = dst, .imm = imm}); }
  void ShlI(Reg r, uint8_t count) { Emit({.op = Op::kShlRI, .r0 = r, .imm = count}); }
  void ShrI(Reg r, uint8_t count) { Emit({.op = Op::kShrRI, .r0 = r, .imm = count}); }
  void SarI(Reg r, uint8_t count) { Emit({.op = Op::kSarRI, .r0 = r, .imm = count}); }
  void Shl(Reg r, Reg count) { Emit({.op = Op::kShlRR, .r0 = r, .r1 = count}); }
  void Shr(Reg r, Reg count) { Emit({.op = Op::kShrRR, .r0 = r, .r1 = count}); }

  void Cmp(Reg a, Reg b) { Emit({.op = Op::kCmpRR, .r0 = a, .r1 = b}); }
  void CmpI(Reg a, int32_t imm) { Emit({.op = Op::kCmpRI, .r0 = a, .imm = imm}); }
  void Test(Reg a, Reg b) { Emit({.op = Op::kTestRR, .r0 = a, .r1 = b}); }

  void Jmp(Label label) { EmitBranch({.op = Op::kJmp}, label); }
  void Jcc(Cond cond, Label label) { EmitBranch({.op = Op::kJcc, .cond = cond}, label); }
  void Call(Label label) { EmitBranch({.op = Op::kCall}, label); }
  // Direct branch to a known absolute address (e.g. back out of a
  // trampoline into the original code).
  void JmpAbs(uint64_t target);
  void JccAbs(Cond cond, uint64_t target);
  void CallAbs(uint64_t target);
  void JmpR(Reg r) { Emit({.op = Op::kJmpR, .r0 = r}); }
  void CallR(Reg r) { Emit({.op = Op::kCallR, .r0 = r}); }

  void Push(Reg r) { Emit({.op = Op::kPush, .r0 = r}); }
  void Pop(Reg r) { Emit({.op = Op::kPop, .r0 = r}); }

  void HostCall(HostFn fn) {
    Emit({.op = Op::kHostCall, .imm = static_cast<int64_t>(fn)});
  }
  void Trap(TrapCode code, uint32_t arg) {
    Emit({.op = Op::kTrap,
          .imm = static_cast<int64_t>(static_cast<uint64_t>(code) |
                                      (static_cast<uint64_t>(arg) << 8))});
  }
  void Count(uint32_t counter_id) {
    Emit({.op = Op::kCount, .imm = static_cast<int64_t>(counter_id)});
  }

  // Emits a pre-built instruction (used by the rewriter when relocating
  // displaced instructions).
  void Emit(const Instruction& insn);

  // Moves the code to `new_base` before Finish(): every recorded
  // out-of-buffer PC-relative field is re-aimed at its original absolute
  // target (CHECK-fails if it no longer fits in int32). Rip-relative
  // operands are assumed to address memory outside the buffer, which holds
  // for all relocated and check code. Bytes afterwards equal assembling the
  // same calls at `new_base`.
  void Rebase(uint64_t new_base);

  // Finalizes: applies all fixups. CHECK-fails on unbound labels.
  std::vector<uint8_t> Finish();

  uint64_t base_vaddr() const { return base_vaddr_; }

 private:
  struct Fixup {
    enum class Kind { kRel32, kAbs64 };
    Kind kind;
    size_t field_offset;  // where the 4/8-byte field lives in bytes_
    size_t insn_end;      // offset of the end of the instruction (rel32 anchor)
    Label label;
  };

  void EmitBranch(Instruction insn, Label label);
  void EmitAbsBranch(Instruction insn, uint64_t target);

  uint64_t base_vaddr_;
  std::vector<uint8_t> bytes_;
  std::vector<std::optional<uint64_t>> labels_;  // bound offset in bytes_
  std::vector<Fixup> fixups_;
  // Offsets in bytes_ of the int32 PC-relative fields that aim outside the
  // buffer (see Rebase).
  std::vector<size_t> external_rel_;
  bool finished_ = false;
};

}  // namespace redfat

#endif  // REDFAT_SRC_ASM_ASSEMBLER_H_
