#include "src/core/codegen.h"

#include <algorithm>

#include "src/support/check.h"

namespace redfat {

namespace {

struct Scratch {
  Reg t0, t1, t2, t3;
};

// Picks 4 scratch registers for one check body: anything but rsp and the
// operand's own base/index. Registers appearing earlier in `preference`
// (dead registers first) are chosen first so that saves are minimized.
Scratch PickScratch(const PlannedCheck& check, const std::vector<Reg>& preference) {
  auto excluded = [&](Reg r) {
    return r == Reg::kRsp || r == check.mem.base || r == check.mem.index;
  };
  std::vector<Reg> picks;
  for (Reg r : preference) {
    if (!excluded(r) && std::find(picks.begin(), picks.end(), r) == picks.end()) {
      picks.push_back(r);
      if (picks.size() == 4) {
        break;
      }
    }
  }
  REDFAT_CHECK(picks.size() == 4);
  return Scratch{picks[0], picks[1], picks[2], picks[3]};
}

// Emits the ASAN-style alternative body (RedzoneImpl::kShadow): a shadow
// byte lookup for the redzone/UAF state, then (for full-check sites) a
// naive concatenated LowFat class-bounds check. This is the "simply
// concatenate the two schemas" design §4 argues against: two separate
// lookups, and no malloc-size metadata so padding overflows are invisible.
void EmitShadowCheckBody(Assembler& as, const PlannedCheck& check, const Scratch& s,
                         int32_t stack_bias) {
  const Reg t0 = s.t0;
  const Reg t1 = s.t1;
  const Reg t2 = s.t2;
  const Reg t3 = s.t3;
  const uint32_t site = check.member_sites.front();
  MemOperand lb = check.mem;
  lb.size_log2 = 0;
  if (lb.rip_relative()) {
    const uint64_t new_next = as.Here() + EncodedLength(Op::kLea);
    const int64_t adj = static_cast<int64_t>(lb.disp) +
                        static_cast<int64_t>(check.anchor_next) -
                        static_cast<int64_t>(new_next);
    REDFAT_CHECK(adj >= INT32_MIN && adj <= INT32_MAX);
    lb.disp = static_cast<int32_t>(adj);
  } else if (lb.base == Reg::kRsp) {
    lb.disp += stack_bias;
  }
  as.Lea(t0, lb);

  const auto done = as.NewLabel();
  const auto end = as.NewLabel();
  const auto err_bounds = as.NewLabel();
  const auto err_uaf = as.NewLabel();
  const auto lowfat_part = as.NewLabel();

  // state_shadow(ptr) = *(SHADOW_MAP + ptr/8)
  as.MovRR(t1, t0);
  as.ShrI(t1, 3);
  as.MovRI(t3, kGuestShadowBase);
  as.Load(t2, MemBIS(t3, t1, 0, 0, /*size_log2=*/0));
  as.Test(t2, t2);
  as.Jcc(Cond::kEq, lowfat_part);
  as.CmpI(t2, static_cast<int32_t>(GuestShadow::kFreed));
  as.Jcc(Cond::kEq, err_uaf);
  as.Jmp(err_bounds);

  as.Bind(lowfat_part);
  if (check.kind == CheckKind::kFull) {
    // Naive (LowFat) schema: class bounds only (no malloc size available).
    as.MovRR(t3, check.mem.base);
    as.MovRR(t1, t3);
    as.ShrI(t1, kRegionShift);
    as.CmpI(t1, static_cast<int32_t>(kNumRegions));
    as.Jcc(Cond::kUge, done);
    as.Load(t2, MemBIS(Reg::kNone, t1, 3, static_cast<int32_t>(kSizesTableAddr)));
    as.Test(t2, t2);
    as.Jcc(Cond::kEq, done);
    as.Load(t1, MemBIS(Reg::kNone, t1, 3, static_cast<int32_t>(kMagicsTableAddr)));
    as.Mulh(t3, t1);
    as.Imul(t3, t2);  // BASE (slot start)
    as.Cmp(t0, t3);
    as.Jcc(Cond::kUlt, err_bounds);
    as.Add(t3, t2);  // BASE + class size
    as.MovRR(t1, t0);
    as.AddI(t1, static_cast<int32_t>(check.access_len));
    as.Cmp(t1, t3);
    as.Jcc(Cond::kUgt, err_bounds);
  }
  as.Jmp(end);
  // t0 still holds LB (never clobbered after STEP 1), so the error stubs
  // can hand the faulting address to the VM for forensics.
  as.Bind(err_uaf);
  as.Trap(TrapCode::kErrAddr, static_cast<uint32_t>(t0));
  as.Trap(TrapCode::kMemError, PackErrorArg(site, ErrorKind::kUaf));
  as.Jmp(end);
  as.Bind(err_bounds);
  as.Trap(TrapCode::kErrAddr, static_cast<uint32_t>(t0));
  as.Trap(TrapCode::kMemError, PackErrorArg(site, ErrorKind::kBounds));
  as.Bind(done);
  as.Bind(end);
}

// Emits one check body. `stack_bias` is the number of bytes pushed by the
// save prologue (rsp-relative operands must be rebased).
void EmitCheckBody(Assembler& as, const PlannedCheck& check, const Scratch& s,
                   const RedFatOptions& opts, int32_t stack_bias) {
  if (opts.redzone_impl == RedzoneImpl::kShadow) {
    REDFAT_CHECK(opts.mode == RedFatOptions::Mode::kProduction);
    EmitShadowCheckBody(as, check, s, stack_bias);
    return;
  }
  const Reg t0 = s.t0;  // LB
  const Reg t1 = s.t1;  // region index -> magic -> metadata SIZE
  const Reg t2 = s.t2;  // low-fat size -> scratch for UB'
  const Reg t3 = s.t3;  // n (candidate pointer) -> BASE
  const uint32_t site = check.member_sites.front();
  const bool profile = opts.mode == RedFatOptions::Mode::kProfile;

  // STEP 1: LB = effective address of the (possibly widened) operand.
  MemOperand lb = check.mem;
  lb.size_log2 = 0;  // lea ignores the access size
  REDFAT_CHECK(lb.index != Reg::kRsp);
  if (lb.rip_relative()) {
    // Rebase the displacement: the lea executes inside the trampoline but
    // must produce the address the original instruction would have.
    const uint64_t new_next = as.Here() + EncodedLength(Op::kLea);
    const int64_t adj = static_cast<int64_t>(lb.disp) +
                        static_cast<int64_t>(check.anchor_next) -
                        static_cast<int64_t>(new_next);
    REDFAT_CHECK(adj >= INT32_MIN && adj <= INT32_MAX);
    lb.disp = static_cast<int32_t>(adj);
  } else if (lb.base == Reg::kRsp) {
    lb.disp += stack_bias;
  }
  as.Lea(t0, lb);

  const auto done = as.NewLabel();  // non-fat / passing exit
  const auto end = as.NewLabel();

  // STEP 2: BASE from the pointer (LowFat) with fallback to LB (Redzone).
  const auto got_base = as.NewLabel();
  if (check.kind == CheckKind::kFull) {
    const auto try_lb = as.NewLabel();
    as.MovRR(t3, check.mem.base);  // n = ptr
    as.MovRR(t1, t3);
    as.ShrI(t1, kRegionShift);
    as.CmpI(t1, static_cast<int32_t>(kNumRegions));
    as.Jcc(Cond::kUge, try_lb);
    as.Load(t2, MemBIS(Reg::kNone, t1, 3, static_cast<int32_t>(kSizesTableAddr)));
    as.Test(t2, t2);
    as.Jcc(Cond::kNe, got_base);
    as.Bind(try_lb);
  }
  as.MovRR(t3, t0);  // n = LB
  as.MovRR(t1, t3);
  as.ShrI(t1, kRegionShift);
  as.CmpI(t1, static_cast<int32_t>(kNumRegions));
  as.Jcc(Cond::kUge, done);
  as.Load(t2, MemBIS(Reg::kNone, t1, 3, static_cast<int32_t>(kSizesTableAddr)));
  as.Test(t2, t2);
  as.Jcc(Cond::kEq, done);  // non-fat pointer: over-approximate, pass
  as.Bind(got_base);

  // BASE = (n / size) * size via the shift-free magic multiply.
  as.Load(t1, MemBIS(Reg::kNone, t1, 3, static_cast<int32_t>(kMagicsTableAddr)));
  as.Mulh(t3, t1);  // q = high64(n * magic)
  as.Imul(t3, t2);  // BASE = q * size

  // STEP 3: metadata (state/size merged: SIZE==0 means Free).
  as.Load(t1, MemAt(t3, 0));

  // STEP 4: the checks.
  const auto err_meta = as.NewLabel();
  const auto err_bounds = as.NewLabel();
  const auto err_uaf = as.NewLabel();
  if (opts.size_hardening) {
    as.SubI(t2, static_cast<int32_t>(kRedzoneSize));
    as.Cmp(t1, t2);
    as.Jcc(Cond::kUgt, err_meta);
  }
  const int32_t len = static_cast<int32_t>(check.access_len);
  if (opts.merged_ub) {
    as.AddI(t3, static_cast<int32_t>(kRedzoneSize));  // BASE+16
    as.MovRR(t2, t0);
    as.Sub(t2, t3);
    as.ShlI(t2, 32);
    as.ShrI(t2, 32);  // zext32(LB - (BASE+16))
    as.Add(t2, t3);
    as.AddI(t2, len);  // UB'
    as.Add(t3, t1);    // BASE+16+SIZE
    as.Cmp(t2, t3);
    as.Jcc(Cond::kUgt, err_bounds);
  } else {
    as.Test(t1, t1);
    as.Jcc(Cond::kEq, err_uaf);
    as.AddI(t3, static_cast<int32_t>(kRedzoneSize));  // BASE+16
    as.Cmp(t0, t3);
    as.Jcc(Cond::kUlt, err_bounds);
    as.MovRR(t2, t0);
    as.AddI(t2, len);  // UB
    as.Add(t3, t1);    // BASE+16+SIZE
    as.Cmp(t2, t3);
    as.Jcc(Cond::kUgt, err_bounds);
  }

  // Passing fallthrough / error stubs / non-fat exit.
  if (profile && check.kind == CheckKind::kFull) {
    as.Trap(TrapCode::kProfPass, site);
    as.Jmp(end);
    as.Bind(err_meta);
    as.Bind(err_bounds);
    as.Bind(err_uaf);
    as.Trap(TrapCode::kProfFail, site);
    as.Jmp(end);
    as.Bind(done);
    as.Trap(TrapCode::kProfPass, site);  // non-fat: trivially safe
    as.Bind(end);
  } else {
    as.Jmp(end);
    // t0 still holds LB (never clobbered after STEP 1), so the error stubs
    // can hand the faulting address to the VM for forensics.
    as.Bind(err_meta);
    as.Trap(TrapCode::kErrAddr, static_cast<uint32_t>(t0));
    as.Trap(TrapCode::kMemError, PackErrorArg(site, ErrorKind::kMeta));
    as.Jmp(end);
    as.Bind(err_uaf);
    as.Trap(TrapCode::kErrAddr, static_cast<uint32_t>(t0));
    as.Trap(TrapCode::kMemError, PackErrorArg(site, ErrorKind::kUaf));
    as.Jmp(end);
    as.Bind(err_bounds);
    as.Trap(TrapCode::kErrAddr, static_cast<uint32_t>(t0));
    as.Trap(TrapCode::kMemError, PackErrorArg(site, ErrorKind::kBounds));
    as.Bind(done);
    as.Bind(end);
  }
}

}  // namespace

void EmitTrampolinePayload(Assembler& as, const PlannedTrampoline& tramp,
                           const ClobberInfo& clobbers, const RedFatOptions& opts) {
  // Zero-cycle dynamic coverage accounting, one counter per member site.
  for (const PlannedCheck& check : tramp.checks) {
    for (uint32_t site : check.member_sites) {
      as.Count(site);
    }
  }

  // Scratch preference order: dead registers first (free), then the rest.
  // Cold-tier trampolines are demoted to the save-all discipline: their
  // runtime cost is negligible by definition, and skipping the liveness
  // data keeps the wide demoted batches uniform.
  std::vector<Reg> preference;
  const bool use_clobbers = opts.clobber_analysis && tramp.tier != Tier::kCold;
  if (use_clobbers) {
    preference = clobbers.dead_regs;
  }
  for (int r = 0; r < kNumGprs; ++r) {
    const Reg reg = static_cast<Reg>(r);
    if (std::find(preference.begin(), preference.end(), reg) == preference.end()) {
      preference.push_back(reg);
    }
  }

  // Pre-pass: pick scratch per check; compute the union that needs saving.
  std::vector<Scratch> scratch;
  scratch.reserve(tramp.checks.size());
  std::vector<Reg> to_save;
  auto is_dead = [&](Reg r) {
    return use_clobbers && std::find(clobbers.dead_regs.begin(), clobbers.dead_regs.end(),
                                     r) != clobbers.dead_regs.end();
  };
  for (const PlannedCheck& check : tramp.checks) {
    const Scratch s = PickScratch(check, preference);
    for (Reg r : {s.t0, s.t1, s.t2, s.t3}) {
      if (!is_dead(r) && std::find(to_save.begin(), to_save.end(), r) == to_save.end()) {
        to_save.push_back(r);
      }
    }
    scratch.push_back(s);
  }
  const bool save_flags = !(use_clobbers && clobbers.flags_dead);

  // The guest may keep live data in the 128-byte red zone below rsp (leaf
  // spill slots); pushes would clobber it. Hop over it first — lea leaves
  // the flags untouched (the same trick E9Patch payloads use).
  const bool uses_stack = !to_save.empty() || save_flags;
  constexpr int32_t kStackRedZone = 128;
  if (uses_stack) {
    as.Lea(Reg::kRsp, MemAt(Reg::kRsp, -kStackRedZone));
  }
  for (Reg r : to_save) {
    as.Push(r);
  }
  if (save_flags) {
    as.Pushf();
  }
  const int32_t stack_bias = static_cast<int32_t>(
      (uses_stack ? kStackRedZone : 0) + 8 * (to_save.size() + (save_flags ? 1 : 0)));

  for (size_t i = 0; i < tramp.checks.size(); ++i) {
    EmitCheckBody(as, tramp.checks[i], scratch[i], opts, stack_bias);
  }

  if (save_flags) {
    as.Popf();
  }
  for (auto it = to_save.rbegin(); it != to_save.rend(); ++it) {
    as.Pop(*it);
  }
  if (uses_stack) {
    as.Lea(Reg::kRsp, MemAt(Reg::kRsp, kStackRedZone));
  }
}

}  // namespace redfat
