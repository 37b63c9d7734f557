#include "src/rw/liveness.h"

#include "src/support/check.h"
#include "src/support/parallel.h"

namespace redfat {

ClobberInfo ComputeClobbers(const Disassembly& dis, const CfgInfo& cfg, size_t index) {
  REDFAT_CHECK(index < dis.insns.size());
  ClobberInfo out;
  // First event wins: a register read before any write is live; a register
  // written first is dead at the instrumentation point (its old value is
  // never observed again). Unresolved registers are conservatively live.
  enum class State : uint8_t { kUnknown, kLive, kDead };
  State reg_state[kNumGprs] = {};
  State flags = State::kUnknown;
  const uint32_t block = cfg.block_id[index];
  std::vector<Reg> regs;
  for (size_t i = index; i < dis.insns.size() && cfg.block_id[i] == block; ++i) {
    const Instruction& in = dis.insns[i].insn;
    RegsRead(in, &regs);
    for (Reg r : regs) {
      State& s = reg_state[RegIndex(r)];
      if (s == State::kUnknown) {
        s = State::kLive;
      }
    }
    if (ReadsFlags(in.op) && flags == State::kUnknown) {
      flags = State::kLive;
    }
    RegsWritten(in, &regs);
    for (Reg r : regs) {
      State& s = reg_state[RegIndex(r)];
      if (s == State::kUnknown) {
        s = State::kDead;
      }
    }
    if (WritesFlags(in.op) && flags == State::kUnknown) {
      flags = State::kDead;
    }
    if (IsControlFlow(in.op)) {
      break;
    }
  }
  for (int r = 0; r < kNumGprs; ++r) {
    if (reg_state[r] == State::kDead) {
      out.dead_regs.push_back(static_cast<Reg>(r));
    }
  }
  out.flags_dead = flags == State::kDead;
  return out;
}

std::vector<ClobberInfo> ComputeClobbersMany(const Disassembly& dis, const CfgInfo& cfg,
                                             const std::vector<size_t>& indices,
                                             ThreadPool& pool) {
  std::vector<ClobberInfo> out(indices.size());
  pool.ParallelFor(indices.size(),
                   [&](size_t i) { out[i] = ComputeClobbers(dis, cfg, indices[i]); });
  return out;
}

}  // namespace redfat
