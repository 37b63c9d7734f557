// Deeper VM semantics: flag behaviour per operation class, memory access
// sizes and straddles, call depth, memcpy overlap, decode-fuzz robustness.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/heap/legacy_heap.h"
#include "src/support/rng.h"
#include "src/vm/vm.h"
#include "src/workloads/builder.h"

namespace redfat {
namespace {

// Runs a two-operand computation and returns (result, flags-pack output).
struct AluResult {
  uint64_t value = 0;
  uint64_t flags = 0;
};

AluResult RunAlu(Op op, uint64_t a, uint64_t b) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRax, a);
  as.MovRI(Reg::kRbx, b);
  as.Emit({.op = op, .r0 = Reg::kRax, .r1 = Reg::kRbx});
  as.Pushf();
  as.Pop(Reg::kRcx);
  as.MovRR(Reg::kRdi, Reg::kRax);
  as.HostCall(HostFn::kOutputU64);
  as.MovRR(Reg::kRdi, Reg::kRcx);
  as.HostCall(HostFn::kOutputU64);
  pb.EmitExit(0);
  Vm vm;
  vm.LoadImage(pb.Finish());
  const RunResult r = vm.Run();
  EXPECT_EQ(r.reason, HaltReason::kExit);
  return AluResult{vm.outputs().at(0), vm.outputs().at(1)};
}

constexpr uint64_t kZf = 1;
constexpr uint64_t kSf = 2;
constexpr uint64_t kCf = 4;
constexpr uint64_t kOf = 8;

TEST(VmFlags, AddCarryAndOverflow) {
  // Unsigned carry without signed overflow.
  AluResult r = RunAlu(Op::kAddRR, ~0ull, 1);
  EXPECT_EQ(r.value, 0u);
  EXPECT_TRUE(r.flags & kZf);
  EXPECT_TRUE(r.flags & kCf);
  EXPECT_FALSE(r.flags & kOf);
  // Signed overflow without carry: INT64_MAX + 1.
  r = RunAlu(Op::kAddRR, 0x7fffffffffffffffull, 1);
  EXPECT_TRUE(r.flags & kOf);
  EXPECT_FALSE(r.flags & kCf);
  EXPECT_TRUE(r.flags & kSf);
}

TEST(VmFlags, SubBorrowAndOverflow) {
  AluResult r = RunAlu(Op::kSubRR, 0, 1);  // borrow
  EXPECT_EQ(r.value, ~0ull);
  EXPECT_TRUE(r.flags & kCf);
  EXPECT_TRUE(r.flags & kSf);
  r = RunAlu(Op::kSubRR, 0x8000000000000000ull, 1);  // INT64_MIN - 1 overflows
  EXPECT_TRUE(r.flags & kOf);
  EXPECT_FALSE(r.flags & kCf);
}

TEST(VmFlags, LogicClearsCarryOverflow) {
  const AluResult r = RunAlu(Op::kXorRR, 0xffull, 0xffull);
  EXPECT_EQ(r.value, 0u);
  EXPECT_TRUE(r.flags & kZf);
  EXPECT_FALSE(r.flags & kCf);
  EXPECT_FALSE(r.flags & kOf);
}

TEST(VmFlags, CmpLeavesOperandsUntouched) {
  const AluResult r = RunAlu(Op::kCmpRR, 5, 9);
  EXPECT_EQ(r.value, 5u);
  EXPECT_TRUE(r.flags & kCf);  // 5 < 9 unsigned
}

TEST(VmFlags, ZeroShiftPreservesFlags) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRax, 1);
  as.CmpI(Reg::kRax, 1);  // ZF set
  as.ShlI(Reg::kRax, 0);  // must not disturb flags
  as.Pushf();
  as.Pop(Reg::kRdi);
  as.HostCall(HostFn::kOutputU64);
  pb.EmitExit(0);
  Vm vm;
  vm.LoadImage(pb.Finish());
  vm.Run();
  EXPECT_TRUE(vm.outputs().at(0) & kZf);
}

class StoreLoadSizes : public ::testing::TestWithParam<unsigned> {};

TEST_P(StoreLoadSizes, TruncatesAndZeroExtends) {
  const unsigned size_log2 = GetParam();
  ProgramBuilder pb;
  const uint64_t buf = pb.AddZeroData(32);
  Assembler& as = pb.text();
  as.MovRI(Reg::kRax, 0xf1f2f3f4f5f6f7f8ull);
  as.MovRI(Reg::kRbx, buf);
  // Pre-fill neighbors to prove the store touches only its bytes.
  as.MovRI(Reg::kRcx, ~0ull);
  as.Store(Reg::kRcx, MemAt(Reg::kRbx, 8));
  as.Store(Reg::kRax, MemAt(Reg::kRbx, 8, static_cast<uint8_t>(size_log2)));
  as.Load(Reg::kRdi, MemAt(Reg::kRbx, 8));
  as.HostCall(HostFn::kOutputU64);
  as.Load(Reg::kRdi, MemAt(Reg::kRbx, 8, static_cast<uint8_t>(size_log2)));
  as.HostCall(HostFn::kOutputU64);
  pb.EmitExit(0);
  Vm vm;
  vm.LoadImage(pb.Finish());
  vm.Run();
  const unsigned bytes = 1u << size_log2;
  const uint64_t mask = bytes == 8 ? ~0ull : ((uint64_t{1} << (8 * bytes)) - 1);
  const uint64_t expect_word = (~0ull & ~mask) | (0xf1f2f3f4f5f6f7f8ull & mask);
  EXPECT_EQ(vm.outputs().at(0), expect_word);
  EXPECT_EQ(vm.outputs().at(1), 0xf1f2f3f4f5f6f7f8ull & mask) << "loads zero-extend";
}

INSTANTIATE_TEST_SUITE_P(AllSizes, StoreLoadSizes, ::testing::Values(0u, 1u, 2u, 3u));

TEST(VmExec2, DeepRecursion) {
  // fib-style recursion depth 200: stack handling under repeated call/ret.
  ProgramBuilder pb;
  Assembler& as = pb.text();
  auto fn = as.NewLabel();
  auto done = as.NewLabel();
  as.MovRI(Reg::kRax, 0);
  as.MovRI(Reg::kRcx, 200);
  as.Call(fn);
  as.MovRR(Reg::kRdi, Reg::kRax);
  as.HostCall(HostFn::kExit);
  as.Bind(fn);
  as.CmpI(Reg::kRcx, 0);
  as.Jcc(Cond::kEq, done);
  as.AddI(Reg::kRax, 1);
  as.SubI(Reg::kRcx, 1);
  as.Call(fn);  // recurse
  as.Bind(done);
  as.Ret();
  Vm vm;
  vm.LoadImage(pb.Finish());
  const RunResult r = vm.Run();
  EXPECT_EQ(r.reason, HaltReason::kExit);
  EXPECT_EQ(r.exit_status, 200u);
}

TEST(VmExec2, MemcpyBetweenHeapObjects) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, 64);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kR12, Reg::kRax);
  as.MovRI(Reg::kRdi, 64);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kR13, Reg::kRax);
  as.MovRI(Reg::kRax, 0x4242424242424242ull);
  as.Store(Reg::kRax, MemAt(Reg::kR12, 16));
  as.MovRR(Reg::kRdi, Reg::kR13);
  as.MovRR(Reg::kRsi, Reg::kR12);
  as.MovRI(Reg::kRdx, 64);
  as.HostCall(HostFn::kMemcpy);
  as.Load(Reg::kRdi, MemAt(Reg::kR13, 16));
  as.HostCall(HostFn::kOutputU64);
  pb.EmitExit(0);
  Vm vm;
  GlibcLikeAllocator alloc;
  vm.set_allocator(&alloc);
  vm.LoadImage(pb.Finish());
  vm.Run();
  EXPECT_EQ(vm.outputs().at(0), 0x4242424242424242ull);
}

// Guest memcpy is memmove: runs the kMemcpy hostcall over a seeded window
// and compares the whole window against std::memmove on a host copy.
void ExpectGuestMemcpyMatchesMemmove(uint64_t dst_off, uint64_t src_off, uint64_t n) {
  constexpr uint64_t kWindow = 0x70000000;  // page-aligned guest window
  constexpr size_t kWindowBytes = 6 * Memory::kPageSize;
  std::vector<uint8_t> ref(kWindowBytes);
  for (size_t i = 0; i < ref.size(); ++i) {
    ref[i] = static_cast<uint8_t>(i * 131 + (i >> 12));  // distinct per page
  }
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, kWindow + dst_off);
  as.MovRI(Reg::kRsi, kWindow + src_off);
  as.MovRI(Reg::kRdx, n);
  as.HostCall(HostFn::kMemcpy);
  pb.EmitExit(0);
  Vm vm;
  vm.LoadImage(pb.Finish());
  vm.memory().WriteBytes(kWindow, ref.data(), ref.size());
  ASSERT_EQ(vm.Run().reason, HaltReason::kExit);
  std::memmove(ref.data() + dst_off, ref.data() + src_off, n);
  std::vector<uint8_t> got(kWindowBytes);
  vm.memory().ReadBytes(kWindow, got.data(), got.size());
  EXPECT_EQ(got, ref) << "dst+" << dst_off << " src+" << src_off << " n=" << n;
}

TEST(VmExec2, MemcpyOverlapForwardSpansPages) {
  // dst below src: a forward copy reads each byte before overwriting it.
  ExpectGuestMemcpyMatchesMemmove(1000, 3000, 3 * Memory::kPageSize + 517);
}

TEST(VmExec2, MemcpyOverlapBackwardSpansPages) {
  // dst inside (src, src + n): only a top-down copy keeps the source intact.
  ExpectGuestMemcpyMatchesMemmove(3000, 1000, 3 * Memory::kPageSize + 517);
  ExpectGuestMemcpyMatchesMemmove(1001, 1000, 4 * Memory::kPageSize);
}

TEST(VmExec2, MemcpyFromUntouchedSourceMaterializesOnlyDestination) {
  Memory mem;
  const uint64_t dst = 0x50000000 + 100;
  const uint64_t src = 0x60000000 + 300;
  const size_t n = 2 * Memory::kPageSize + 50;  // spans 3 destination pages
  std::vector<uint8_t> ref(n, 0xab);
  mem.WriteBytes(dst, ref.data(), n);
  ASSERT_EQ(mem.TouchedPages(), 3u);
  mem.Copy(dst, src, n);
  // The source stays absent, and reads as zeros.
  EXPECT_EQ(mem.TouchedPages(), 3u);
  const std::vector<uint8_t> untouched(n, 0);
  std::memmove(ref.data(), untouched.data(), n);
  std::vector<uint8_t> got(n, 0xff);
  mem.ReadBytes(dst, got.data(), n);
  EXPECT_EQ(got, ref);
  // Onto fresh memory: exactly the destination's pages appear.
  Memory fresh;
  fresh.Copy(dst, src, n);
  EXPECT_EQ(fresh.TouchedPages(), 3u);
}

TEST(VmExec2, IndirectJumpTable) {
  // switch via jump table in data (the pattern CFG recovery must survive).
  ProgramBuilder pb;
  Assembler& as = pb.text();
  auto case0 = as.NewLabel();
  auto case1 = as.NewLabel();
  auto table_done = as.NewLabel();
  const uint64_t table = pb.AddZeroData(16);
  as.MovLabelAddr(Reg::kR10, case0);
  as.Store(Reg::kR10, MemAbs(static_cast<int32_t>(table)));
  as.MovLabelAddr(Reg::kR10, case1);
  as.Store(Reg::kR10, MemAbs(static_cast<int32_t>(table + 8)));
  as.HostCall(HostFn::kInputU64);
  as.Load(Reg::kR10, MemBIS(Reg::kNone, Reg::kRax, 3, static_cast<int32_t>(table)));
  as.JmpR(Reg::kR10);
  as.Bind(case0);
  as.MovRI(Reg::kRdi, 100);
  as.Jmp(table_done);
  as.Bind(case1);
  as.MovRI(Reg::kRdi, 200);
  as.Bind(table_done);
  as.HostCall(HostFn::kExit);
  const BinaryImage img = pb.Finish();
  for (uint64_t input : {0ull, 1ull}) {
    Vm vm;
    vm.set_inputs({input});
    vm.LoadImage(img);
    const RunResult r = vm.Run();
    EXPECT_EQ(r.exit_status, input == 0 ? 100u : 200u);
  }
}

TEST(IsaFuzz, RandomBytesNeverCrashDecoder) {
  Rng rng(0xfade);
  uint8_t buf[16];
  for (int i = 0; i < 200000; ++i) {
    for (uint8_t& b : buf) {
      b = static_cast<uint8_t>(rng.Next());
    }
    Result<Decoded> d = Decode(buf, sizeof(buf));
    if (d.ok()) {
      // Whatever decodes must re-encode to the same prefix.
      std::vector<uint8_t> out;
      Encode(d.value().insn, &out);
      ASSERT_EQ(out.size(), d.value().length);
    }
  }
}

TEST(IsaFuzz, RandomProgramsNeverCrashVm) {
  // Executing random bytes must end in a fault/halt/limit, never a host
  // crash. (The Vm's own CHECKs would abort the test process.)
  Rng rng(0xfeed);
  for (int trial = 0; trial < 200; ++trial) {
    BinaryImage img;
    img.entry = kCodeBase;
    Section text;
    text.kind = Section::Kind::kText;
    text.vaddr = kCodeBase;
    for (int i = 0; i < 256; ++i) {
      text.bytes.push_back(static_cast<uint8_t>(rng.Next()));
    }
    img.sections.push_back(std::move(text));
    Vm vm;
    GlibcLikeAllocator alloc;
    vm.set_allocator(&alloc);
    vm.set_instruction_limit(5000);
    vm.LoadImage(img);
    const RunResult r = vm.Run();
    (void)r;  // any HaltReason is acceptable; surviving is the property
  }
}

}  // namespace
}  // namespace redfat
