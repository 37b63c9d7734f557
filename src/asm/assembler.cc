#include "src/asm/assembler.h"

#include "src/support/check.h"

namespace redfat {

namespace {

void PatchU32(std::vector<uint8_t>* bytes, size_t at, uint32_t v) {
  (*bytes)[at] = static_cast<uint8_t>(v);
  (*bytes)[at + 1] = static_cast<uint8_t>(v >> 8);
  (*bytes)[at + 2] = static_cast<uint8_t>(v >> 16);
  (*bytes)[at + 3] = static_cast<uint8_t>(v >> 24);
}

void PatchU64(std::vector<uint8_t>* bytes, size_t at, uint64_t v) {
  PatchU32(bytes, at, static_cast<uint32_t>(v));
  PatchU32(bytes, at + 4, static_cast<uint32_t>(v >> 32));
}

}  // namespace

void Assembler::Bind(Label label) {
  REDFAT_CHECK(label < labels_.size());
  REDFAT_CHECK(!labels_[label].has_value());
  labels_[label] = bytes_.size();
}

void Assembler::Emit(const Instruction& insn) {
  REDFAT_CHECK(!finished_);
  Encode(insn, &bytes_);
  if ((IsMemAccess(insn.op) || insn.op == Op::kLea) && insn.mem.rip_relative()) {
    // disp32 closes the memory operand: the last 4 bytes of the encoding,
    // or the 4 before StoreI's trailing imm32.
    external_rel_.push_back(bytes_.size() - (insn.op == Op::kStoreI ? 8 : 4));
  }
}

void Assembler::EmitBranch(Instruction insn, Label label) {
  REDFAT_CHECK(label < labels_.size());
  insn.imm = 0;
  const size_t start = bytes_.size();
  Emit(insn);
  const size_t end = bytes_.size();
  // rel32 field is the last 4 bytes of kJmp/kJcc/kCall encodings.
  fixups_.push_back(Fixup{Fixup::Kind::kRel32, end - 4, end, label});
  (void)start;
}

void Assembler::MovLabelAddr(Reg r, Label label) {
  REDFAT_CHECK(label < labels_.size());
  const size_t start = bytes_.size();
  MovRI(r, 0);
  // imm64 field is the last 8 bytes of the kMovRI encoding.
  fixups_.push_back(Fixup{Fixup::Kind::kAbs64, start + 2, bytes_.size(), label});
}

void Assembler::EmitAbsBranch(Instruction insn, uint64_t target) {
  const uint64_t end = Here() + EncodedLength(insn.op);
  const int64_t rel = static_cast<int64_t>(target) - static_cast<int64_t>(end);
  REDFAT_CHECK(rel >= INT32_MIN && rel <= INT32_MAX);
  insn.imm = rel;
  Emit(insn);
  // rel32 is the last 4 bytes of kJmp/kJcc/kCall encodings.
  external_rel_.push_back(bytes_.size() - 4);
}

void Assembler::JmpAbs(uint64_t target) { EmitAbsBranch({.op = Op::kJmp}, target); }

void Assembler::JccAbs(Cond cond, uint64_t target) {
  EmitAbsBranch({.op = Op::kJcc, .cond = cond}, target);
}

void Assembler::CallAbs(uint64_t target) { EmitAbsBranch({.op = Op::kCall}, target); }

void Assembler::Rebase(uint64_t new_base) {
  REDFAT_CHECK(!finished_);
  // The field's anchor (its instruction end) moves with the base, the target
  // does not: rel' = rel + old_base - new_base.
  const int64_t shift = static_cast<int64_t>(base_vaddr_ - new_base);
  for (const size_t at : external_rel_) {
    const uint8_t* p = bytes_.data() + at;
    const int32_t rel = static_cast<int32_t>(
        static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
        static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24);
    const int64_t moved = static_cast<int64_t>(rel) + shift;
    REDFAT_CHECK(moved >= INT32_MIN && moved <= INT32_MAX);
    PatchU32(&bytes_, at, static_cast<uint32_t>(static_cast<int32_t>(moved)));
  }
  base_vaddr_ = new_base;
}

std::vector<uint8_t> Assembler::Finish() {
  REDFAT_CHECK(!finished_);
  finished_ = true;
  for (const Fixup& f : fixups_) {
    REDFAT_CHECK(labels_[f.label].has_value());
    const uint64_t target = base_vaddr_ + *labels_[f.label];
    switch (f.kind) {
      case Fixup::Kind::kRel32: {
        const int64_t rel =
            static_cast<int64_t>(target) - static_cast<int64_t>(base_vaddr_ + f.insn_end);
        REDFAT_CHECK(rel >= INT32_MIN && rel <= INT32_MAX);
        PatchU32(&bytes_, f.field_offset, static_cast<uint32_t>(static_cast<int32_t>(rel)));
        break;
      }
      case Fixup::Kind::kAbs64:
        PatchU64(&bytes_, f.field_offset, target);
        break;
    }
  }
  return std::move(bytes_);
}

}  // namespace redfat
