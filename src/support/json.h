// The repo's one JSON module: the escaper every writer uses for names, and
// the bounded pull reader behind every parser (`--stats`, `--metrics` and
// profiles, trace validation).
//
// The reader is not a DOM. An object calls back once per key with the
// reader on the value, an array once per element, and each callback
// consumes exactly one value (a typed read or Skip()). The first failure
// sticks: every later read returns false and Finish() reports it. Contract:
// nesting deeper than kMaxDepth is an error (no input can exhaust the
// stack); integers are exact and a sign, fraction, exponent or a value that
// does not fit the destination is an error; strings decode every escape and
// reject raw control characters; Finish() rejects trailing data.
#ifndef REDFAT_SRC_SUPPORT_JSON_H_
#define REDFAT_SRC_SUPPORT_JSON_H_

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/support/result.h"

namespace redfat {

// `s` as the body of a JSON string literal: quote, backslash and control
// characters escaped, every other byte kept as is.
std::string JsonEscape(std::string_view s);

enum class JsonType { kObject, kArray, kString, kNumber, kLiteral, kInvalid };

class JsonReader {
 public:
  static constexpr int kMaxDepth = 64;

  // `what` prefixes every error ("metrics json"). `text` must outlive the reader.
  JsonReader(std::string_view text, const char* what) : s_(text), what_(what) {}

  // The type of the next value, judged by its first character.
  JsonType Peek();

  // on_key(const std::string& key) -> bool, once per member.
  template <typename F>
  bool Object(F&& on_key) {
    std::string key;
    return Members('{', '}', [&] { return String(&key) && Expect(':') && on_key(key); });
  }

  // on_element() -> bool, once per element.
  template <typename F>
  bool Array(F&& on_element) {
    return Members('[', ']', on_element);
  }

  bool String(std::string* out);

  // A double, or an unsigned integer read exactly into T.
  template <typename T>
  bool Number(T* out) {
    static_assert(std::is_floating_point_v<T> || std::is_unsigned_v<T>);
    const char* end = ScanNumber(std::is_unsigned_v<T>);
    if (end == nullptr) {
      return false;
    }
    if (std::from_chars(s_.data() + i_, end, *out).ec != std::errc()) {
      return Fail("number out of range");
    }
    i_ = static_cast<size_t>(end - s_.data());
    return true;
  }

  // Consumes one value of any type.
  bool Skip();

  // Records the error unless one is already set; always returns false.
  bool Fail(const std::string& message);

  Status Finish();

 private:
  bool Eat(char c);
  bool Expect(char c);
  // `open` item (',' item)* `close`, one nesting level deeper.
  template <typename F>
  bool Members(char open, char close, F&& item) {
    if (!Expect(open) || (++depth_ > kMaxDepth && !Fail("nesting too deep"))) {
      return false;
    }
    if (!Eat(close)) {
      do {
        if (!item()) {
          return false;
        }
      } while (Eat(','));
      if (!Expect(close)) {
        return false;
      }
    }
    --depth_;
    return true;
  }
  // The end of the number at the cursor, or nullptr after Fail.
  const char* ScanNumber(bool unsigned_integer);

  std::string_view s_;
  const char* what_;
  size_t i_ = 0;
  int depth_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace redfat

#endif  // REDFAT_SRC_SUPPORT_JSON_H_
