#include "src/rw/disasm.h"

#include <algorithm>
#include <cstring>

#include "src/support/str.h"

namespace redfat {

Result<Disassembly> DisassembleText(const BinaryImage& image) {
  const Section* text = image.FindSection(Section::Kind::kText);
  if (text == nullptr) {
    return Error("disasm: image has no text section");
  }
  Disassembly dis;
  dis.text_vaddr = text->vaddr;
  dis.text_end = text->end_vaddr();
  const std::vector<uint8_t>& bytes = text->bytes;
  size_t off = 0;
  while (off < bytes.size()) {
    Result<Decoded> d = Decode(bytes.data() + off, bytes.size() - off);
    if (!d.ok()) {
      return Error(StrFormat("disasm at 0x%llx: %s",
                             static_cast<unsigned long long>(text->vaddr + off),
                             d.error().c_str()));
    }
    DisasmInsn di;
    di.addr = text->vaddr + off;
    di.length = d.value().length;
    di.insn = d.value().insn;
    dis.insns.push_back(di);
    off += di.length;
  }
  return dis;
}

CfgInfo RecoverCfg(const Disassembly& dis, const BinaryImage& image) {
  CfgInfo cfg;
  const size_t n = dis.insns.size();
  // (1) Direct branch/call targets and entry.
  std::vector<uint64_t>& targets = cfg.jump_targets;
  targets.push_back(image.entry);
  for (const DisasmInsn& di : dis.insns) {
    if (HasRel32(di.insn.op)) {
      const uint64_t target = di.end() + static_cast<uint64_t>(di.insn.imm);
      if (dis.InText(target)) {
        targets.push_back(target);
      }
      if (di.insn.op == Op::kCall) {
        targets.push_back(di.end());  // return site
      }
    }
    if (di.insn.op == Op::kCallR) {
      targets.push_back(di.end());
    }
    // (2) Code-pointer constants: potential indirect targets.
    if (di.insn.op == Op::kMovRI &&
        dis.InText(static_cast<uint64_t>(di.insn.imm))) {
      targets.push_back(static_cast<uint64_t>(di.insn.imm));
    }
  }
  // (3) Scan data sections for aligned words that look like code pointers.
  for (const Section& s : image.sections) {
    if (s.kind != Section::Kind::kData) {
      continue;
    }
    for (size_t off = 0; off + 8 <= s.bytes.size(); off += 8) {
      uint64_t w = 0;
      std::memcpy(&w, s.bytes.data() + off, 8);
      if (dis.InText(w)) {
        targets.push_back(w);
      }
    }
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  // Keep only targets that land on instruction boundaries; a "target" in the
  // middle of an instruction cannot be a real control-flow destination of
  // well-formed code, and treating it as one would forbid every patch. Both
  // lists are sorted, so one merge walk also flags the target instructions.
  cfg.is_target.assign(n, 0);
  size_t at = 0;
  size_t kept = 0;
  for (const uint64_t t : targets) {
    if (dis.InText(t)) {
      while (at < n && dis.insns[at].addr < t) {
        ++at;
      }
      if (at == n || dis.insns[at].addr != t) {
        continue;
      }
      cfg.is_target[at] = 1;
    }
    targets[kept++] = t;
  }
  targets.resize(kept);

  // Basic blocks: leaders are jump targets and fallthroughs of terminators.
  cfg.block_id.assign(n, 0);
  uint32_t block = 0;
  bool start_new = true;
  for (size_t i = 0; i < n; ++i) {
    if (start_new || cfg.is_target[i] != 0) {
      ++block;
    }
    cfg.block_id[i] = block;
    start_new = IsControlFlow(dis.insns[i].insn.op);
  }
  cfg.num_blocks = block + 1;
  return cfg;
}

}  // namespace redfat
