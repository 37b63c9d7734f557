#include "src/rw/rewriter.h"

#include <algorithm>
#include <optional>

#include "src/support/check.h"
#include "src/support/parallel.h"
#include "src/support/str.h"

namespace redfat {

namespace {

constexpr unsigned kJmpLen = 5;  // EncodedLength(Op::kJmp)

// Re-emits a displaced instruction at the assembler's current position,
// fixing up position-dependent fields. `old_next` is the address of the
// instruction following the original copy.
void RelocateInsn(Assembler& as, const DisasmInsn& di) {
  const uint64_t old_next = di.end();
  Instruction insn = di.insn;
  switch (insn.op) {
    case Op::kJmp:
      as.JmpAbs(old_next + static_cast<uint64_t>(insn.imm));
      return;
    case Op::kJcc:
      as.JccAbs(insn.cond, old_next + static_cast<uint64_t>(insn.imm));
      return;
    case Op::kCall: {
      // Emulate: push the *original* return address, then jump. lea is used
      // for the stack adjust because it leaves the flags untouched.
      const uint64_t target = old_next + static_cast<uint64_t>(insn.imm);
      REDFAT_CHECK(old_next <= INT32_MAX);  // code lives in the low 2 GiB
      as.Lea(Reg::kRsp, MemAt(Reg::kRsp, -8));
      as.StoreI(MemAt(Reg::kRsp, 0), static_cast<int32_t>(old_next));
      as.JmpAbs(target);
      return;
    }
    case Op::kCallR: {
      REDFAT_CHECK(old_next <= INT32_MAX);
      as.Lea(Reg::kRsp, MemAt(Reg::kRsp, -8));
      as.StoreI(MemAt(Reg::kRsp, 0), static_cast<int32_t>(old_next));
      as.JmpR(insn.r0);
      return;
    }
    default:
      break;
  }
  if (IsMemAccess(insn.op) || insn.op == Op::kLea) {
    if (insn.mem.rip_relative()) {
      const uint64_t new_next = as.Here() + EncodedLength(insn.op);
      const int64_t new_disp = static_cast<int64_t>(insn.mem.disp) +
                               static_cast<int64_t>(old_next) -
                               static_cast<int64_t>(new_next);
      REDFAT_CHECK(new_disp >= INT32_MIN && new_disp <= INT32_MAX);
      insn.mem.disp = static_cast<int32_t>(new_disp);
    }
  }
  as.Emit(insn);
}

}  // namespace

Result<std::vector<SpanPlan>> PlanSpans(const Disassembly& dis, const CfgInfo& cfg,
                                        const std::vector<PatchRequest>& requests,
                                        RewriteStats* stats) {
  REDFAT_CHECK(stats != nullptr);
  stats->requested = requests.size();

  // (instruction index, request index) pairs, sorted by instruction.
  // Validation reports the same error a scan in request order would: the
  // first non-boundary request, unless an earlier request repeats an
  // address.
  std::vector<std::pair<size_t, size_t>> sites;
  sites.reserve(requests.size());
  size_t bad = SIZE_MAX;
  for (size_t r = 0; r < requests.size(); ++r) {
    const size_t index = dis.IndexAt(requests[r].addr);
    if (index == SIZE_MAX) {
      bad = r;
      break;
    }
    sites.emplace_back(index, r);
  }
  std::sort(sites.begin(), sites.end());
  size_t dup = SIZE_MAX;
  for (size_t k = 1; k < sites.size(); ++k) {
    if (sites[k].first == sites[k - 1].first) {
      dup = std::min(dup, sites[k].second);
    }
  }
  if (dup != SIZE_MAX) {
    return Error(StrFormat("rewriter: duplicate request at 0x%llx",
                           static_cast<unsigned long long>(requests[dup].addr)));
  }
  if (bad != SIZE_MAX) {
    return Error(StrFormat("rewriter: request at 0x%llx is not an instruction boundary",
                           static_cast<unsigned long long>(requests[bad].addr)));
  }

  std::vector<SpanPlan> spans;
  size_t consumed_until = 0;  // sites below this index were merged into a prior span
  for (size_t k = 0; k < sites.size(); ++k) {
    const size_t start_index = sites[k].first;
    if (start_index < consumed_until) {
      continue;  // payload already emitted inside the covering span
    }

    // Build the overwrite span: enough whole instructions to cover the jmp.
    // `next` walks the later sites to find the payload of each slot.
    SpanPlan span;
    span.addr = dis.insns[start_index].addr;
    bool conflict_target = false;
    bool conflict_call = false;
    size_t next = k;
    for (size_t i = start_index; span.span_len < kJmpLen; ++i) {
      if (i >= dis.insns.size()) {
        break;
      }
      const DisasmInsn& di = dis.insns[i];
      if (i != start_index) {
        if (cfg.is_target[i] != 0) {
          conflict_target = true;
          break;
        }
        if (di.insn.op == Op::kCall || di.insn.op == Op::kCallR) {
          // Punning over a call is legal (we emulate it), but a call ends
          // with control leaving the trampoline: any span instructions after
          // it would be skipped. Only allow a call as the final span slot.
          conflict_call = true;
        }
      }
      span.insn_indices.push_back(i);
      while (next < sites.size() && sites[next].first < i) {
        ++next;
      }
      const bool has_site = next < sites.size() && sites[next].first == i;
      span.payloads.push_back(has_site ? sites[next].second : SIZE_MAX);
      span.span_len += di.length;
      if (conflict_call && span.span_len < kJmpLen) {
        break;  // call mid-span: remaining slots unreachable
      }
    }
    if (conflict_target) {
      ++stats->skipped_target_conflict;
      continue;
    }
    if (conflict_call && span.span_len < kJmpLen) {
      ++stats->skipped_call_span;
      continue;
    }
    if (span.span_len < kJmpLen) {
      ++stats->skipped_section_end;
      continue;
    }
    consumed_until = span.insn_indices.back() + 1;
    spans.push_back(std::move(span));
  }
  return spans;
}

size_t EmitSpanTrampoline(const Disassembly& dis, Assembler& as, const SpanPlan& span,
                          const std::vector<PatchRequest>& requests) {
  size_t applied = 0;
  for (size_t slot = 0; slot < span.insn_indices.size(); ++slot) {
    const DisasmInsn& di = dis.insns[span.insn_indices[slot]];
    if (span.payloads[slot] != SIZE_MAX) {
      requests[span.payloads[slot]].emit_payload(as);
      ++applied;
    }
    RelocateInsn(as, di);
  }
  const DisasmInsn& last = dis.insns[span.insn_indices.back()];
  const bool falls_through =
      !(last.insn.op == Op::kJmp || last.insn.op == Op::kJmpR || last.insn.op == Op::kRet ||
        last.insn.op == Op::kCall || last.insn.op == Op::kCallR ||
        last.insn.op == Op::kHlt);
  if (falls_through) {
    as.JmpAbs(last.end());
  }
  return applied;
}

TrampolineCode EmitTrampolines(const Disassembly& dis, const std::vector<SpanPlan>& spans,
                               const std::vector<PatchRequest>& requests,
                               uint64_t trampoline_base, ThreadPool* pool,
                               RewriteStats* stats) {
  RewriteStats local;
  RewriteStats& st = stats != nullptr ? *stats : local;
  const size_t n = spans.size();
  const size_t num_chunks = pool != nullptr && pool->jobs() > 1
                                ? std::min<size_t>(pool->jobs() * 4, std::max<size_t>(n, 1))
                                : 1;
  // Runs fn(c) for every chunk c >= first (on the pool when there is one).
  const auto for_chunks = [&](size_t first, const std::function<void(size_t)>& fn) {
    if (pool == nullptr) {
      for (size_t c = first; c < num_chunks; ++c) {
        fn(c);
      }
      return;
    }
    pool->ParallelFor(num_chunks - first, [&](size_t c) { fn(first + c); });
  };

  // Assemble contiguous chunks of spans, each at the region base; starts
  // hold chunk-relative offsets until the layout is known.
  TrampolineCode code;
  code.starts.assign(n, 0);
  std::vector<Assembler> chunks(num_chunks, Assembler(trampoline_base));
  std::vector<size_t> applied(num_chunks, 0);
  const auto first_span = [&](size_t c) { return c * n / num_chunks; };
  for_chunks(0, [&](size_t c) {
    Assembler& as = chunks[c];
    for (size_t i = first_span(c); i < first_span(c + 1); ++i) {
      code.starts[i] = as.SizeBytes();
      applied[c] += EmitSpanTrampoline(dis, as, spans[i], requests);
    }
  });

  // Lay the chunks out back to back (prefix sum).
  std::vector<uint64_t> chunk_base(num_chunks);
  uint64_t size = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    chunk_base[c] = trampoline_base + size;
    size += chunks[c].SizeBytes();
    st.applied += applied[c];
  }

  // Chunk 0 already sits at the region base and becomes the output buffer;
  // every later chunk is re-aimed at its final address and copied in.
  code.bytes = chunks[0].Finish();
  code.bytes.resize(size);
  for_chunks(1, [&](size_t c) {
    chunks[c].Rebase(chunk_base[c]);
    const std::vector<uint8_t> bytes = chunks[c].Finish();
    std::copy(bytes.begin(), bytes.end(),
              code.bytes.begin() + static_cast<ptrdiff_t>(chunk_base[c] - trampoline_base));
  });
  for (size_t c = 0; c < num_chunks; ++c) {
    for (size_t i = first_span(c); i < first_span(c + 1); ++i) {
      code.starts[i] += chunk_base[c];
    }
  }
  st.trampolines = n;
  st.trampoline_bytes = code.bytes.size();
  return code;
}

TrampolineCode EmitTrampolines(const Disassembly& dis, const std::vector<SpanPlan>& spans,
                               const std::vector<PatchRequest>& requests,
                               uint64_t trampoline_base, unsigned jobs, RewriteStats* stats) {
  jobs = ResolveJobs(jobs);
  std::optional<ThreadPool> pool;
  if (jobs > 1 && spans.size() > 1) {
    pool.emplace(jobs);
  }
  return EmitTrampolines(dis, spans, requests, trampoline_base,
                         pool.has_value() ? &*pool : nullptr, stats);
}

void PatchSpans(Section* text, const std::vector<SpanPlan>& spans,
                const std::vector<uint64_t>& tramp_starts, ThreadPool* pool) {
  REDFAT_CHECK(text != nullptr);
  REDFAT_CHECK(spans.size() == tramp_starts.size());
  // Each span overwrites its own disjoint byte range, so the per-span body
  // is schedule-independent.
  const auto patch_one = [&](size_t i) {
    const SpanPlan& span = spans[i];
    const uint64_t patch_off = span.addr - text->vaddr;
    const int64_t rel = static_cast<int64_t>(tramp_starts[i]) -
                        static_cast<int64_t>(span.addr + kJmpLen);
    REDFAT_CHECK(rel >= INT32_MIN && rel <= INT32_MAX);
    std::vector<uint8_t> jmp_bytes;
    Encode({.op = Op::kJmp, .imm = rel}, &jmp_bytes);
    REDFAT_CHECK(jmp_bytes.size() == kJmpLen);
    std::copy(jmp_bytes.begin(), jmp_bytes.end(), text->bytes.begin() + patch_off);
    for (unsigned f = kJmpLen; f < span.span_len; ++f) {
      text->bytes[patch_off + f] = static_cast<uint8_t>(Op::kUd2);
    }
  };
  if (pool != nullptr && pool->jobs() > 1 && spans.size() > 1) {
    pool->ParallelFor(spans.size(), patch_one);
  } else {
    for (size_t i = 0; i < spans.size(); ++i) {
      patch_one(i);
    }
  }
}

Rewriter::Rewriter(const BinaryImage& image) : image_(image) {
  if (image_.FindSection(Section::Kind::kTrampoline) != nullptr) {
    error_ = "rewriter: image already contains a trampoline section";
    return;
  }
  Result<Disassembly> dis = DisassembleText(image_);
  if (!dis.ok()) {
    error_ = dis.error();
    return;
  }
  disasm_ = std::move(dis).value();
  cfg_ = RecoverCfg(disasm_, image_);
  ok_ = true;
}

Result<BinaryImage> Rewriter::Apply(const std::vector<PatchRequest>& requests,
                                    RewriteStats* stats, uint64_t trampoline_base,
                                    unsigned jobs) {
  REDFAT_CHECK(ok_);
  RewriteStats local;
  RewriteStats& st = stats != nullptr ? *stats : local;
  st = RewriteStats{};

  Result<std::vector<SpanPlan>> planned = PlanSpans(disasm_, cfg_, requests, &st);
  if (!planned.ok()) {
    return Error(planned.error());
  }
  const std::vector<SpanPlan>& spans = planned.value();
  const TrampolineCode code =
      EmitTrampolines(disasm_, spans, requests, trampoline_base, jobs, &st);

  BinaryImage out = image_;
  Section* text = out.FindSection(Section::Kind::kText);
  REDFAT_CHECK(text != nullptr);
  PatchSpans(text, spans, code.starts);
  if (!code.bytes.empty()) {
    Section ts;
    ts.kind = Section::Kind::kTrampoline;
    ts.vaddr = trampoline_base;
    ts.bytes = code.bytes;
    out.sections.push_back(std::move(ts));
  }
  return out;
}

}  // namespace redfat
