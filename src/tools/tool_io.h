// Shared file I/O helpers for the command-line tools.
#ifndef REDFAT_SRC_TOOLS_TOOL_IO_H_
#define REDFAT_SRC_TOOLS_TOOL_IO_H_

#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/bin/image.h"
#include "src/support/result.h"

namespace redfat {

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);
Status WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes);

Result<BinaryImage> LoadImageFile(const std::string& path);
Status SaveImageFile(const std::string& path, const BinaryImage& image);

// The whole file as one string (JSON snapshots).
Result<std::string> ReadWholeFile(const std::string& path);

// Text-file helpers for allow-lists ("0x<addr>" per line) and profile dumps
// ("<site> <passes> <fails>" per line).
Result<std::vector<std::string>> ReadLines(const std::string& path);

// The last path component ("dir/a.rfbin" -> "a.rfbin").
std::string BaseName(const std::string& path);

// Writes `text` to `path`; the conventional "-" writes to stdout instead.
Status WriteTextFile(const std::string& path, const std::string& text);

// True when argv[*i] is option `name` spelled `name=V` or `name V`; the
// second spelling consumes the next argument. *value is empty if V is
// missing.
bool MatchFlag(int argc, char** argv, int* i, std::string_view name, std::string* value);

// The destination of whichever of `flags` argv[*i] spells, or nullptr.
template <typename T, size_t N>
T* MatchFlags(int argc, char** argv, int* i, const std::pair<const char*, T*> (&flags)[N],
              std::string* value) {
  for (const auto& [name, dst] : flags) {
    if (MatchFlag(argc, argv, i, name, value)) {
      return dst;
    }
  }
  return nullptr;
}

// Reads all of `text` as a number of *out's type: an unsigned decimal or
// 0x-hex integer that fits, or a decimal floating-point value. A sign,
// stray characters or overflow leave *out alone and return false.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  std::from_chars_result r{};
  if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(text.data(), text.data() + text.size(), *out);
  } else {
    static_assert(std::is_unsigned_v<T>);
    const bool hex = text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
    text.remove_prefix(hex ? 2 : 0);
    r = std::from_chars(text.data(), text.data() + text.size(), *out, hex ? 16 : 10);
  }
  return r.ec == std::errc() && r.ptr == text.data() + text.size();
}

}  // namespace redfat

#endif  // REDFAT_SRC_TOOLS_TOOL_IO_H_
