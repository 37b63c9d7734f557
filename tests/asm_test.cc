#include <gtest/gtest.h>

#include "src/asm/assembler.h"
#include "src/bin/image.h"
#include "src/workloads/builder.h"

namespace redfat {
namespace {

TEST(Assembler, BackwardAndForwardBranches) {
  Assembler as(0x1000);
  auto fwd = as.NewLabel();
  auto back = as.NewLabel();
  as.Bind(back);
  as.Nop();
  as.Jmp(fwd);
  as.Jcc(Cond::kEq, back);
  as.Bind(fwd);
  as.Ret();
  const std::vector<uint8_t> bytes = as.Finish();
  // nop(1) jmp(5) jcc(6) ret(1)
  ASSERT_EQ(bytes.size(), 13u);
  Result<Decoded> jmp = Decode(bytes.data() + 1, 5);
  ASSERT_TRUE(jmp.ok());
  // jmp ends at offset 6; target (fwd) at offset 12 -> rel = +6.
  EXPECT_EQ(jmp.value().insn.imm, 6);
  Result<Decoded> jcc = Decode(bytes.data() + 6, 6);
  ASSERT_TRUE(jcc.ok());
  // jcc ends at offset 12; target (back) at 0 -> rel = -12.
  EXPECT_EQ(jcc.value().insn.imm, -12);
}

TEST(Assembler, MovLabelAddrProducesAbsoluteAddress) {
  Assembler as(0x4000);
  auto target = as.NewLabel();
  as.MovLabelAddr(Reg::kRax, target);
  as.Bind(target);
  as.Ret();
  const std::vector<uint8_t> bytes = as.Finish();
  Result<Decoded> mov = Decode(bytes.data(), bytes.size());
  ASSERT_TRUE(mov.ok());
  EXPECT_EQ(static_cast<uint64_t>(mov.value().insn.imm), 0x4000u + 10u);
}

TEST(Assembler, JmpAbsAndJccAbs) {
  Assembler as(0x2000);
  as.JmpAbs(0x2000);  // self-loop: rel = -5
  as.JccAbs(Cond::kNe, 0x3000);
  const std::vector<uint8_t> bytes = as.Finish();
  Result<Decoded> j = Decode(bytes.data(), bytes.size());
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value().insn.imm, -5);
  Result<Decoded> jcc = Decode(bytes.data() + 5, bytes.size() - 5);
  ASSERT_TRUE(jcc.ok());
  EXPECT_EQ(jcc.value().insn.imm, 0x3000 - (0x2000 + 5 + 6));
}

TEST(Assembler, HereTracksPosition) {
  Assembler as(0x100);
  EXPECT_EQ(as.Here(), 0x100u);
  as.Nop();
  EXPECT_EQ(as.Here(), 0x101u);
  as.MovRI(Reg::kRax, 0);
  EXPECT_EQ(as.Here(), 0x10bu);
}

TEST(AssemblerDeath, UnboundLabelChecks) {
  Assembler as(0);
  auto l = as.NewLabel();
  as.Jmp(l);
  EXPECT_DEATH(as.Finish(), "CHECK failed");
}

TEST(AssemblerDeath, DoubleBindChecks) {
  Assembler as(0);
  auto l = as.NewLabel();
  as.Bind(l);
  EXPECT_DEATH(as.Bind(l), "CHECK failed");
}

// Emits every position-dependent form: label branches and MovLabelAddr
// (resolved at Finish), and the out-of-buffer PC-relative fields that
// Rebase re-aims. Rip-relative displacements are computed from Here(), as
// relocation and check codegen do, so they aim at fixed absolute targets.
void EmitPositionDependentCode(Assembler& as) {
  const auto rip_to = [&as](Op op, uint64_t target) {
    const uint64_t next = as.Here() + EncodedLength(op);
    return MemAt(Reg::kRip, static_cast<int32_t>(static_cast<int64_t>(target) -
                                                 static_cast<int64_t>(next)));
  };
  auto fwd = as.NewLabel();
  auto back = as.NewLabel();
  auto fn = as.NewLabel();
  as.Bind(back);
  as.MovLabelAddr(Reg::kRax, fn);
  as.Jmp(fwd);
  as.Jcc(Cond::kNe, back);
  as.Call(fn);
  as.JmpAbs(0x400100);
  as.JccAbs(Cond::kUlt, 0x400200);
  as.CallAbs(0x400300);
  as.Load(Reg::kRbx, rip_to(Op::kLoad, 0x600000));
  as.Store(Reg::kRcx, rip_to(Op::kStoreR, 0x600008));
  as.StoreI(rip_to(Op::kStoreI, 0x600010), -7);
  as.Lea(Reg::kRdx, rip_to(Op::kLea, 0x600018));
  as.Load(Reg::kRsi, MemAt(Reg::kRbx, 16));  // not PC-relative: untouched
  as.Bind(fwd);
  as.Nop();
  as.Bind(fn);
  as.Ret();
}

TEST(Assembler, RebaseMatchesAssemblingAtTheNewBase) {
  for (const uint64_t b : {0x10400000ull, 0x10400000ull + 0x1234, 0x500000ull}) {
    Assembler direct(b);
    EmitPositionDependentCode(direct);
    Assembler moved(0x10400000);
    EmitPositionDependentCode(moved);
    moved.Rebase(b);
    EXPECT_EQ(moved.Here(), direct.Here());
    EXPECT_EQ(moved.Finish(), direct.Finish()) << std::hex << b;
  }
}

TEST(Assembler, RebaseTwiceComposes) {
  Assembler direct(0x20000000);
  EmitPositionDependentCode(direct);
  Assembler moved(0x10000000);
  EmitPositionDependentCode(moved);
  moved.Rebase(0x30000000);
  moved.Rebase(0x20000000);
  EXPECT_EQ(moved.Finish(), direct.Finish());
}

TEST(AssemblerDeath, RebaseOverflowingRel32Checks) {
  Assembler as(0x10000000);
  as.JmpAbs(0x400000);
  EXPECT_DEATH(as.Rebase(0x10000000ull + (3ull << 30)), "CHECK failed");
}

TEST(AssemblerDeath, RebaseOverflowingRipDispChecks) {
  Assembler as(0x10000000);
  as.Lea(Reg::kRax, MemAt(Reg::kRip, -0x1000));
  EXPECT_DEATH(as.Rebase(0x10000000ull + (3ull << 30)), "CHECK failed");
}

TEST(Image, SerializeRoundTrip) {
  ProgramBuilder pb;
  const uint64_t d = pb.AddDataU64({1, 2, 3});
  (void)d;
  pb.text().MovRI(Reg::kRax, 7);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  const std::vector<uint8_t> bytes = img.Serialize();
  Result<BinaryImage> back = BinaryImage::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value().entry, img.entry);
  ASSERT_EQ(back.value().sections.size(), img.sections.size());
  for (size_t i = 0; i < img.sections.size(); ++i) {
    EXPECT_EQ(back.value().sections[i].kind, img.sections[i].kind);
    EXPECT_EQ(back.value().sections[i].vaddr, img.sections[i].vaddr);
    EXPECT_EQ(back.value().sections[i].bytes, img.sections[i].bytes);
  }
}

TEST(Image, DeserializeRejectsCorruption) {
  ProgramBuilder pb;
  pb.EmitExit(0);
  std::vector<uint8_t> bytes = pb.Finish().Serialize();
  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(BinaryImage::Deserialize(bad_magic).ok());
  std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + 10);
  EXPECT_FALSE(BinaryImage::Deserialize(truncated).ok());
  std::vector<uint8_t> short_body = bytes;
  short_body.resize(short_body.size() - 1);
  EXPECT_FALSE(BinaryImage::Deserialize(short_body).ok());
}

TEST(Image, FindSectionAndTotals) {
  ProgramBuilder pb;
  pb.AddDataU64({42});
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  EXPECT_NE(img.FindSection(Section::Kind::kText), nullptr);
  EXPECT_NE(img.FindSection(Section::Kind::kData), nullptr);
  EXPECT_EQ(img.FindSection(Section::Kind::kTrampoline), nullptr);
  EXPECT_GT(img.TotalBytes(), 0u);
}

}  // namespace
}  // namespace redfat
