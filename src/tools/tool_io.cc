#include "src/tools/tool_io.h"

#include <cstdio>

#include "src/support/str.h"

namespace redfat {

bool MatchFlag(int argc, char** argv, int* i, std::string_view name, std::string* value) {
  const std::string_view arg = argv[*i];
  if (arg.size() > name.size() && arg.substr(0, name.size()) == name &&
      arg[name.size()] == '=') {
    *value = arg.substr(name.size() + 1);
    return true;
  }
  if (arg != name) {
    return false;
  }
  *value = *i + 1 < argc ? argv[++*i] : "";
  return true;
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Error(StrFormat("cannot open %s for reading", path.c_str()));
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[65536];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) {
    return Error(StrFormat("read error on %s", path.c_str()));
  }
  return bytes;
}

Status WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Error(StrFormat("cannot open %s for writing", path.c_str()));
  }
  const size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool bad = n != bytes.size();
  std::fclose(f);
  if (bad) {
    return Error(StrFormat("short write to %s", path.c_str()));
  }
  return Status::Ok();
}

Result<BinaryImage> LoadImageFile(const std::string& path) {
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return Error(bytes.error());
  }
  return BinaryImage::Deserialize(bytes.value());
}

Status SaveImageFile(const std::string& path, const BinaryImage& image) {
  return WriteFileBytes(path, image.Serialize());
}

Result<std::string> ReadWholeFile(const std::string& path) {
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return Error(bytes.error());
  }
  return std::string(bytes.value().begin(), bytes.value().end());
}

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return Error(bytes.error());
  }
  std::vector<std::string> lines;
  std::string cur;
  for (uint8_t b : bytes.value()) {
    if (b == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(static_cast<char>(b));
    }
  }
  if (!cur.empty()) {
    lines.push_back(cur);
  }
  return lines;
}

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return Status::Ok();
  }
  return WriteFileBytes(path, std::vector<uint8_t>(text.begin(), text.end()));
}

}  // namespace redfat
