// rfobjdump — disassemble an RFBIN binary (objdump -d analogue).
//
//   rfobjdump [--cfg] [--sections] prog.rfbin
//
//   --cfg        annotate recovered basic-block leaders and jump targets
//   --sections   list sections only
#include <cstdio>
#include <cstring>
#include <string>

#include "src/rw/disasm.h"
#include "src/support/str.h"
#include "src/tools/tool_io.h"

namespace redfat {
namespace {

int Usage() {
  std::fprintf(stderr, "usage: rfobjdump [--cfg] [--sections] prog.rfbin\n");
  return 2;
}

const char* SectionKindName(Section::Kind k) {
  switch (k) {
    case Section::Kind::kText: return ".text";
    case Section::Kind::kData: return ".data";
    case Section::Kind::kTrampoline: return ".redfat.tramp";
    case Section::Kind::kInlineCheck: return ".redfat.inline";
  }
  return "?";
}

void DumpCode(const std::vector<uint8_t>& bytes, uint64_t vaddr, const CfgInfo* cfg) {
  size_t off = 0;
  while (off < bytes.size()) {
    const uint64_t addr = vaddr + off;
    Result<Decoded> d = Decode(bytes.data() + off, bytes.size() - off);
    if (!d.ok()) {
      std::printf("  %10llx:\t.byte 0x%02x\t; undecodable\n",
                  static_cast<unsigned long long>(addr), bytes[off]);
      ++off;
      continue;
    }
    const char* marker = "";
    if (cfg != nullptr && cfg->IsJumpTarget(addr)) {
      marker = "  <- jump target";
    }
    std::string text = ToString(d.value().insn);
    // Resolve rel32 branch targets to absolute addresses for readability.
    if (HasRel32(d.value().insn.op)) {
      const uint64_t target = addr + d.value().length +
                              static_cast<uint64_t>(d.value().insn.imm);
      text += StrFormat("   # 0x%llx", static_cast<unsigned long long>(target));
    }
    std::printf("  %10llx:\t%s%s\n", static_cast<unsigned long long>(addr), text.c_str(),
                marker);
    off += d.value().length;
  }
}

int Main(int argc, char** argv) {
  bool with_cfg = false;
  bool sections_only = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cfg") {
      with_cfg = true;
    } else if (arg == "--sections") {
      sections_only = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    return Usage();
  }
  Result<BinaryImage> image = LoadImageFile(path);
  if (!image.ok()) {
    std::fprintf(stderr, "rfobjdump: %s\n", image.error().c_str());
    return 1;
  }
  std::printf("%s: entry 0x%llx, %zu sections, %llu bytes\n\n", path.c_str(),
              static_cast<unsigned long long>(image.value().entry),
              image.value().sections.size(),
              static_cast<unsigned long long>(image.value().TotalBytes()));
  for (const Section& s : image.value().sections) {
    std::printf("%s @ 0x%llx (%zu bytes)\n", SectionKindName(s.kind),
                static_cast<unsigned long long>(s.vaddr), s.bytes.size());
  }
  if (sections_only) {
    return 0;
  }

  CfgInfo cfg;
  const CfgInfo* cfg_ptr = nullptr;
  Result<Disassembly> dis = DisassembleText(image.value());
  if (with_cfg && dis.ok()) {
    cfg = RecoverCfg(dis.value(), image.value());
    cfg_ptr = &cfg;
  }
  for (const Section& s : image.value().sections) {
    if (s.kind == Section::Kind::kData) {
      continue;
    }
    std::printf("\nDisassembly of %s:\n", SectionKindName(s.kind));
    DumpCode(s.bytes, s.vaddr, s.kind == Section::Kind::kText ? cfg_ptr : nullptr);
  }
  if (cfg_ptr != nullptr) {
    std::printf("\n%zu recovered jump targets, %u basic blocks\n", cfg.jump_targets.size(),
                cfg.num_blocks);
  }
  return 0;
}

}  // namespace
}  // namespace redfat

int main(int argc, char** argv) { return redfat::Main(argc, argv); }
