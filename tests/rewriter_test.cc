#include <gtest/gtest.h>

#include "src/rw/rewriter.h"
#include "src/support/parallel.h"
#include "src/support/str.h"
#include "src/vm/vm.h"
#include "src/workloads/builder.h"

namespace redfat {
namespace {

RunResult RunImage(const BinaryImage& img, Vm& vm) {
  vm.LoadImage(img);
  return vm.Run();
}

// A payload that bumps a counter so tests can observe trampoline execution.
PayloadEmitter CountPayload(uint32_t id) {
  return [id](Assembler& as) { as.Count(id); };
}

TEST(Rewriter, RefusesImagesWithTrampolines) {
  ProgramBuilder pb;
  pb.EmitExit(0);
  BinaryImage img = pb.Finish();
  Section t;
  t.kind = Section::Kind::kTrampoline;
  t.vaddr = kTrampolineBase;
  img.sections.push_back(t);
  Rewriter rw(img);
  EXPECT_FALSE(rw.ok());
}

TEST(Rewriter, PatchedProgramBehavesIdentically) {
  ProgramBuilder pb;
  const uint64_t buf = pb.AddZeroData(64);
  Assembler& as = pb.text();
  as.MovRI(Reg::kRbx, buf);
  as.MovRI(Reg::kRax, 7);
  const uint64_t store_addr = as.Here();
  as.Store(Reg::kRax, MemAt(Reg::kRbx, 8));
  as.Load(Reg::kRdi, MemAt(Reg::kRbx, 8));
  as.HostCall(HostFn::kOutputU64);
  pb.EmitExit(5);
  const BinaryImage img = pb.Finish();

  Rewriter rw(img);
  ASSERT_TRUE(rw.ok()) << rw.error();
  RewriteStats stats;
  Result<BinaryImage> patched = rw.Apply({{store_addr, CountPayload(1)}}, &stats);
  ASSERT_TRUE(patched.ok()) << patched.error();
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(stats.trampolines, 1u);

  Vm vm0, vm1;
  const RunResult r0 = RunImage(img, vm0);
  const RunResult r1 = RunImage(patched.value(), vm1);
  EXPECT_EQ(r0.reason, HaltReason::kExit);
  EXPECT_EQ(r1.reason, HaltReason::kExit);
  EXPECT_EQ(r0.exit_status, r1.exit_status);
  EXPECT_EQ(vm0.outputs(), vm1.outputs());
  EXPECT_EQ(vm1.counters().at(1), 1u);
  EXPECT_GT(r1.cycles, r0.cycles) << "trampoline jumps cost cycles";
}

TEST(Rewriter, PunsOverShortInstructions) {
  // Patch a 2-byte mov: the 5-byte jmp overwrites following instructions,
  // which must be relocated into the trampoline.
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRax, 1);
  as.MovRI(Reg::kRcx, 2);
  const uint64_t patch_addr = as.Here();
  as.MovRR(Reg::kRbx, Reg::kRax);  // 2 bytes
  as.Add(Reg::kRbx, Reg::kRcx);    // 2 bytes
  as.Add(Reg::kRbx, Reg::kRcx);    // 2 bytes (span: 6 bytes >= 5)
  as.MovRR(Reg::kRdi, Reg::kRbx);
  as.HostCall(HostFn::kExit);
  const BinaryImage img = pb.Finish();

  Rewriter rw(img);
  ASSERT_TRUE(rw.ok());
  RewriteStats stats;
  Result<BinaryImage> patched = rw.Apply({{patch_addr, CountPayload(9)}}, &stats);
  ASSERT_TRUE(patched.ok()) << patched.error();
  Vm vm;
  const RunResult r = RunImage(patched.value(), vm);
  EXPECT_EQ(r.reason, HaltReason::kExit);
  EXPECT_EQ(r.exit_status, 5u);  // 1 + 2 + 2
  EXPECT_EQ(vm.counters().at(9), 1u);
}

TEST(Rewriter, SkipsWhenJumpTargetInsideSpan) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  auto mid = as.NewLabel();
  as.MovRI(Reg::kRax, 0);
  const uint64_t patch_addr = as.Here();
  as.MovRR(Reg::kRbx, Reg::kRax);  // 2 bytes; span would cover `mid`
  as.Bind(mid);
  as.AddI(Reg::kRax, 1);
  as.CmpI(Reg::kRax, 3);
  as.Jcc(Cond::kUlt, mid);
  as.MovRR(Reg::kRdi, Reg::kRax);
  as.HostCall(HostFn::kExit);
  const BinaryImage img = pb.Finish();

  Rewriter rw(img);
  ASSERT_TRUE(rw.ok());
  RewriteStats stats;
  Result<BinaryImage> patched = rw.Apply({{patch_addr, CountPayload(1)}}, &stats);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(stats.applied, 0u);
  EXPECT_EQ(stats.skipped_target_conflict, 1u);
  // Unpatched program still runs correctly.
  Vm vm;
  EXPECT_EQ(RunImage(patched.value(), vm).exit_status, 3u);
}

TEST(Rewriter, RelocatesBranchesInSpan) {
  // Punning over a jcc: the relocated jcc must still reach its target.
  ProgramBuilder pb;
  Assembler& as = pb.text();
  auto done = as.NewLabel();
  as.MovRI(Reg::kRax, 10);
  as.CmpI(Reg::kRax, 10);
  const uint64_t patch_addr = as.Here();
  as.MovRR(Reg::kRbx, Reg::kRax);  // 2 bytes
  as.Jcc(Cond::kEq, done);         // 6 bytes, relocated into trampoline
  as.MovRI(Reg::kRax, 0);          // skipped when branch taken
  as.Bind(done);
  as.MovRR(Reg::kRdi, Reg::kRax);
  as.HostCall(HostFn::kExit);
  const BinaryImage img = pb.Finish();

  Rewriter rw(img);
  ASSERT_TRUE(rw.ok());
  RewriteStats stats;
  Result<BinaryImage> patched = rw.Apply({{patch_addr, CountPayload(2)}}, &stats);
  ASSERT_TRUE(patched.ok()) << patched.error();
  EXPECT_EQ(stats.applied, 1u);
  Vm vm;
  EXPECT_EQ(RunImage(patched.value(), vm).exit_status, 10u);
}

TEST(Rewriter, RelocatesCallWithEmulatedReturnAddress) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  auto fn = as.NewLabel();
  auto over = as.NewLabel();
  as.Jmp(over);
  as.Bind(fn);
  as.AddI(Reg::kRax, 100);
  as.Ret();
  as.Bind(over);
  as.MovRI(Reg::kRax, 1);
  const uint64_t patch_addr = as.Here();
  as.MovRR(Reg::kRbx, Reg::kRax);  // 2 bytes: span swallows the call
  as.Call(fn);                     // must return to the *original* next insn
  as.MovRR(Reg::kRdi, Reg::kRax);
  as.HostCall(HostFn::kExit);
  const BinaryImage img = pb.Finish();

  Rewriter rw(img);
  ASSERT_TRUE(rw.ok());
  RewriteStats stats;
  Result<BinaryImage> patched = rw.Apply({{patch_addr, CountPayload(3)}}, &stats);
  ASSERT_TRUE(patched.ok()) << patched.error();
  Vm vm;
  const RunResult r = RunImage(patched.value(), vm);
  EXPECT_EQ(r.reason, HaltReason::kExit);
  EXPECT_EQ(r.exit_status, 101u);
}

TEST(Rewriter, RelocatesRipRelativeOperands) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  // Store to a rip-relative location, then read it back absolutely.
  const uint64_t patch_addr = as.Here();
  const uint64_t scratch = kCodeBase + 0x1000;  // inside text padding below
  // rip-relative store: disp = scratch - next_rip.
  {
    const uint64_t next = as.Here() + EncodedLength(Op::kStoreI);
    MemOperand m = MemAt(Reg::kRip, static_cast<int32_t>(scratch - next));
    as.StoreI(m, 42);
  }
  as.Load(Reg::kRdi, MemAbs(static_cast<int32_t>(scratch)));
  as.HostCall(HostFn::kExit);
  // Pad text so `scratch` is inside the section (loader maps it anyway, but
  // keep the write inside mapped bytes for tidiness).
  while (as.Here() < scratch + 16) {
    as.Nop();
  }
  BinaryImage img = pb.Finish();
  // Replace padding nops after the exit with ud2 so the disassembler is fine
  // but nothing executes them. (They are unreachable.)

  Rewriter rw(img);
  ASSERT_TRUE(rw.ok()) << rw.error();
  RewriteStats stats;
  Result<BinaryImage> patched = rw.Apply({{patch_addr, CountPayload(4)}}, &stats);
  ASSERT_TRUE(patched.ok()) << patched.error();
  EXPECT_EQ(stats.applied, 1u);
  Vm vm;
  const RunResult r = RunImage(patched.value(), vm);
  EXPECT_EQ(r.reason, HaltReason::kExit);
  EXPECT_EQ(r.exit_status, 42u) << "rip-relative disp must be rebased in the trampoline";
}

TEST(Rewriter, MultipleSitesInOneSpanShareTrampoline) {
  ProgramBuilder pb;
  const uint64_t buf = pb.AddZeroData(32);
  Assembler& as = pb.text();
  as.MovRI(Reg::kRbx, buf);
  const uint64_t site1 = as.Here();
  as.MovRR(Reg::kRax, Reg::kRbx);  // 2 bytes (site 1)
  const uint64_t site2 = as.Here();
  as.MovRR(Reg::kRcx, Reg::kRbx);  // 2 bytes (site 2, inside site 1's span)
  as.MovRR(Reg::kRdx, Reg::kRbx);  // 2 bytes
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();

  Rewriter rw(img);
  ASSERT_TRUE(rw.ok());
  RewriteStats stats;
  Result<BinaryImage> patched =
      rw.Apply({{site1, CountPayload(1)}, {site2, CountPayload(2)}}, &stats);
  ASSERT_TRUE(patched.ok()) << patched.error();
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_EQ(stats.trampolines, 1u);
  Vm vm;
  EXPECT_EQ(RunImage(patched.value(), vm).reason, HaltReason::kExit);
  EXPECT_EQ(vm.counters().at(1), 1u);
  EXPECT_EQ(vm.counters().at(2), 1u);
}

TEST(Rewriter, RejectsNonBoundaryAndDuplicateRequests) {
  ProgramBuilder pb;
  pb.text().MovRI(Reg::kRax, 0);  // 10 bytes
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  Rewriter rw(img);
  ASSERT_TRUE(rw.ok());
  const uint64_t a = kCodeBase;
  const uint64_t b = kCodeBase + 10;
  const auto error_of = [&](const std::vector<uint64_t>& addrs) {
    std::vector<PatchRequest> requests;
    for (const uint64_t addr : addrs) {
      requests.push_back({addr, CountPayload(0)});
    }
    Result<BinaryImage> r = rw.Apply(requests, nullptr);
    return r.ok() ? std::string("ok") : r.error();
  };
  const auto not_boundary = [](uint64_t addr) {
    return StrFormat("rewriter: request at 0x%llx is not an instruction boundary",
                     static_cast<unsigned long long>(addr));
  };
  const auto duplicate = [](uint64_t addr) {
    return StrFormat("rewriter: duplicate request at 0x%llx",
                     static_cast<unsigned long long>(addr));
  };
  EXPECT_EQ(error_of({a + 1}), not_boundary(a + 1));
  EXPECT_EQ(error_of({a, a}), duplicate(a));
  // The first offending request in request order decides the message.
  EXPECT_EQ(error_of({a, a, a + 1}), duplicate(a));
  EXPECT_EQ(error_of({a, a + 1, a}), not_boundary(a + 1));
  EXPECT_EQ(error_of({b, a, a + 3, b}), not_boundary(a + 3));
  EXPECT_EQ(error_of({a, b, b, a}), duplicate(b));
  EXPECT_EQ(error_of({b, a, a, b}), duplicate(a));
}

TEST(Rewriter, StrayJumpIntoPatchedBytesFaults) {
  // After patching, the bytes following the jmp are ud2 filler; a wild jump
  // into them must fault rather than execute stale bytes.
  ProgramBuilder pb;
  const uint64_t buf = pb.AddZeroData(16);
  Assembler& as = pb.text();
  as.MovRI(Reg::kRbx, buf);
  const uint64_t store_addr = as.Here();
  as.Store(Reg::kRax, MemAt(Reg::kRbx, 0));  // 9 bytes -> 4 bytes of filler
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  Rewriter rw(img);
  ASSERT_TRUE(rw.ok());
  Result<BinaryImage> patched = rw.Apply({{store_addr, CountPayload(1)}}, nullptr);
  ASSERT_TRUE(patched.ok());
  const Section* text = patched.value().FindSection(Section::Kind::kText);
  const uint64_t off = store_addr - text->vaddr;
  for (unsigned i = 5; i < 9; ++i) {
    EXPECT_EQ(text->bytes[off + i], static_cast<uint8_t>(Op::kUd2));
  }
}

// A payload with every position-dependent form check codegen uses: a
// rip-relative operand aimed at a fixed address and a label branch.
PayloadEmitter RipPayload(uint32_t id, uint64_t target) {
  return [id, target](Assembler& as) {
    const auto skip = as.NewLabel();
    as.Count(id);
    const uint64_t next = as.Here() + EncodedLength(Op::kLea);
    as.Lea(Reg::kR11, MemAt(Reg::kRip, static_cast<int32_t>(target - next)));
    as.Jcc(Cond::kEq, skip);
    as.Nop();
    as.Bind(skip);
  };
}

TEST(EmitTrampolines, IdenticalForEveryPoolWidth) {
  // Many short and long sites, with displaced branches, calls and
  // rip-relative operands, so spans pun, relocate and jump back.
  ProgramBuilder pb;
  const uint64_t buf = pb.AddZeroData(64);
  Assembler& as = pb.text();
  auto fn = as.NewLabel();
  auto top = as.NewLabel();
  std::vector<uint64_t> sites;
  as.MovRI(Reg::kRbx, buf);
  as.Bind(top);
  for (int i = 0; i < 40; ++i) {
    sites.push_back(as.Here());
    switch (i % 4) {
      case 0:
        as.Store(Reg::kRax, MemAt(Reg::kRbx, 8 * (i % 8)));
        break;
      case 1:
        as.MovRR(Reg::kRcx, Reg::kRbx);  // 2 bytes: puns over the next insn
        as.Jcc(Cond::kEq, top);
        break;
      case 2: {
        const uint64_t next = as.Here() + EncodedLength(Op::kLoad);
        as.Load(Reg::kRdx, MemAt(Reg::kRip, static_cast<int32_t>(buf - next)));
        break;
      }
      case 3:
        as.MovRR(Reg::kRsi, Reg::kRbx);
        as.Call(fn);
        break;
    }
  }
  pb.EmitExit(0);
  as.Bind(fn);
  as.Ret();
  const BinaryImage img = pb.Finish();

  Rewriter rw(img);
  ASSERT_TRUE(rw.ok()) << rw.error();
  std::vector<PatchRequest> requests;
  for (size_t i = 0; i < sites.size(); ++i) {
    requests.push_back({sites[i], RipPayload(static_cast<uint32_t>(i), buf + 8 * i)});
  }
  RewriteStats plan_stats;
  Result<std::vector<SpanPlan>> planned =
      PlanSpans(rw.disasm(), rw.cfg(), requests, &plan_stats);
  ASSERT_TRUE(planned.ok()) << planned.error();
  const std::vector<SpanPlan>& all = planned.value();
  ASSERT_GT(all.size(), 20u);

  // 0 spans, fewer spans than any pool's chunk count, and all of them.
  for (const size_t count : {size_t{0}, size_t{1}, size_t{3}, all.size()}) {
    const std::vector<SpanPlan> spans(all.begin(), all.begin() + count);
    // Reference: every span emitted back to back into one assembler.
    Assembler ref(kTrampolineBase);
    std::vector<uint64_t> ref_starts;
    size_t ref_applied = 0;
    for (const SpanPlan& span : spans) {
      ref_starts.push_back(ref.Here());
      ref_applied += EmitSpanTrampoline(rw.disasm(), ref, span, requests);
    }
    const std::vector<uint8_t> ref_bytes = ref.Finish();

    RewriteStats serial_stats;
    const TrampolineCode serial =
        EmitTrampolines(rw.disasm(), spans, requests, kTrampolineBase,
                        static_cast<ThreadPool*>(nullptr), &serial_stats);
    EXPECT_EQ(serial.bytes, ref_bytes) << count;
    EXPECT_EQ(serial.starts, ref_starts) << count;
    EXPECT_EQ(serial_stats.applied, ref_applied);
    EXPECT_EQ(serial_stats.trampolines, count);
    EXPECT_EQ(serial_stats.trampoline_bytes, ref_bytes.size());
    for (const unsigned jobs : {1u, 2u, 8u}) {
      ThreadPool pool(jobs);
      RewriteStats st;
      const TrampolineCode code =
          EmitTrampolines(rw.disasm(), spans, requests, kTrampolineBase, &pool, &st);
      EXPECT_EQ(code.bytes, ref_bytes) << count << " spans, " << jobs << " jobs";
      EXPECT_EQ(code.starts, ref_starts) << count << " spans, " << jobs << " jobs";
      EXPECT_EQ(st.applied, ref_applied);
      EXPECT_EQ(st.trampolines, count);
      EXPECT_EQ(st.trampoline_bytes, ref_bytes.size());
    }
  }
}

}  // namespace
}  // namespace redfat
