#include "src/support/json.h"

#include <algorithm>

#include "src/support/str.h"

namespace redfat {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const size_t k = std::string_view("\"\\\n\r\t").find(ch);
    if (k != std::string_view::npos) {
      out += '\\';
      out += "\"\\nrt"[k];
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += StrFormat("\\u%04x", static_cast<unsigned>(ch));
    } else {
      out += ch;
    }
  }
  return out;
}

bool JsonReader::Fail(const std::string& message) {
  if (!failed_) {
    failed_ = true;
    error_ = StrFormat("%s: %s at byte %zu", what_, message.c_str(), i_);
  }
  return false;
}

Status JsonReader::Finish() {
  Peek();  // skips trailing whitespace
  if (i_ != s_.size()) {
    Fail("trailing data");
  }
  return failed_ ? Status(Error(error_)) : Status::Ok();
}

bool JsonReader::Eat(char c) {
  Peek();  // skips whitespace
  if (failed_ || i_ == s_.size() || s_[i_] != c) {
    return false;
  }
  ++i_;
  return true;
}

bool JsonReader::Expect(char c) {
  return Eat(c) || Fail(i_ == s_.size() ? "unexpected end" : StrFormat("expected '%c'", c));
}

JsonType JsonReader::Peek() {
  i_ = std::min(s_.find_first_not_of(" \t\n\r", i_), s_.size());
  const char c = failed_ || i_ == s_.size() ? '\0' : s_[i_];
  switch (c) {
    case '{': return JsonType::kObject;
    case '[': return JsonType::kArray;
    case '"': return JsonType::kString;
    case 't':
    case 'f':
    case 'n': return JsonType::kLiteral;
    default: return c == '-' || (c >= '0' && c <= '9') ? JsonType::kNumber : JsonType::kInvalid;
  }
}

bool JsonReader::String(std::string* out) {
  if (!Expect('"')) {
    return false;
  }
  out->clear();
  while (true) {
    const size_t run = i_;
    while (i_ < s_.size() && s_[i_] != '"' && s_[i_] != '\\' &&
           static_cast<unsigned char>(s_[i_]) >= 0x20) {
      ++i_;
    }
    out->append(s_, run, i_ - run);
    if (i_ == s_.size()) {
      return Fail("unterminated string");
    }
    if (s_[i_] != '"' && s_[i_] != '\\') {
      return Fail("control character in string");
    }
    if (s_[i_++] == '"') {
      return true;
    }
    const char esc = i_ < s_.size() ? s_[i_++] : '\0';
    const size_t k = std::string_view("\"\\/bfnrt").find(esc);
    if (k != std::string_view::npos) {
      out->push_back("\"\\/\b\f\n\r\t"[k]);
      continue;
    }
    uint32_t cp = 0;
    const char* hex = s_.data() + i_;
    if (esc != 'u' || s_.size() - i_ < 4 ||
        std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4) {
      return Fail("bad escape");
    }
    i_ += 4;
    // One UTF-8 sequence per escape (a surrogate half becomes its own
    // 3-byte sequence), so every accepted string re-serializes.
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xc0 | cp >> 6));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out->push_back(static_cast<char>(0xe0 | cp >> 12));
      out->push_back(static_cast<char>(0x80 | (cp >> 6 & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }
}

const char* JsonReader::ScanNumber(bool unsigned_integer) {
  if (Peek() != JsonType::kNumber) {
    Fail(i_ == s_.size() ? "unexpected end" : "expected a number");
    return nullptr;
  }
  const char* p = s_.data() + i_;
  const char* end = s_.data() + s_.size();
  const auto digits = [&p, end] {
    const char* start = p;
    while (p < end && *p >= '0' && *p <= '9') {
      ++p;
    }
    return p != start;
  };
  const bool sign = *p == '-';
  p += sign ? 1 : 0;
  const char* int_start = p;
  bool ok = digits() && (*int_start != '0' || p == int_start + 1);  // no leading zeros
  const bool fraction = ok && p < end && *p == '.';
  if (fraction) {
    ++p;
    ok = digits();
  }
  const bool exponent = ok && p < end && (*p == 'e' || *p == 'E');
  if (exponent) {
    p += p + 1 < end && (p[1] == '+' || p[1] == '-') ? 2 : 1;
    ok = digits();
  }
  if (!ok || (unsigned_integer && (sign || fraction || exponent))) {
    Fail(ok ? "expected an unsigned integer" : "bad number");
    return nullptr;
  }
  return p;
}

bool JsonReader::Skip() {
  switch (Peek()) {
    case JsonType::kObject: return Object([this](const std::string&) { return Skip(); });
    case JsonType::kArray: return Array([this] { return Skip(); });
    case JsonType::kString: {
      std::string ignored;
      return String(&ignored);
    }
    case JsonType::kNumber: {
      const char* end = ScanNumber(false);
      if (end != nullptr) {
        i_ = static_cast<size_t>(end - s_.data());
      }
      return end != nullptr;
    }
    case JsonType::kLiteral:
      for (const std::string_view word : {"true", "false", "null"}) {
        if (s_.substr(i_, word.size()) == word) {
          i_ += word.size();
          return true;
        }
      }
      return Fail("bad literal");
    case JsonType::kInvalid: break;
  }
  return Fail(i_ == s_.size() ? "unexpected end" : "expected a value");
}

}  // namespace redfat
