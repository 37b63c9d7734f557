#include "src/support/trace.h"

#include "src/support/json.h"
#include "src/support/str.h"

namespace redfat {

namespace {

std::string ArgsJson(const std::vector<TraceArg>& args) {
  std::string out = "{";
  for (size_t i = 0; i < args.size(); ++i) {
    out += StrFormat("%s\"%s\":%llu", i == 0 ? "" : ",", JsonEscape(args[i].key).c_str(),
                     static_cast<unsigned long long>(args[i].value));
  }
  out += "}";
  return out;
}

}  // namespace

bool TraceWriter::Admit() {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return false;
  }
  return true;
}

void TraceWriter::SetProcessName(int pid, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Admit()) {
    return;
  }
  // Metadata events carry the display name as args[0].key (rendered as the
  // string-valued "name" arg in ToJson, unlike the numeric args elsewhere).
  events_.push_back(
      Event{'M', "process_name", "__metadata", pid, 0, 0, 0, {TraceArg{name, 0}}});
}

void TraceWriter::SetThreadName(int pid, int tid, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Admit()) {
    return;
  }
  events_.push_back(
      Event{'M', "thread_name", "__metadata", pid, tid, 0, 0, {TraceArg{name, 0}}});
}

void TraceWriter::Complete(const std::string& name, const std::string& cat, int pid,
                           int tid, double ts_us, double dur_us,
                           std::vector<TraceArg> args) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Admit()) {
    return;
  }
  events_.push_back(Event{'X', name, cat, pid, tid, ts_us, dur_us, std::move(args)});
}

void TraceWriter::Instant(const std::string& name, const std::string& cat, int pid,
                          int tid, double ts_us, std::vector<TraceArg> args) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Admit()) {
    return;
  }
  events_.push_back(Event{'i', name, cat, pid, tid, ts_us, 0, std::move(args)});
}

void TraceWriter::Counter(const std::string& name, int pid, double ts_us,
                          uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Admit()) {
    return;
  }
  events_.push_back(
      Event{'C', name, "counter", pid, 0, ts_us, 0, {TraceArg{"value", value}}});
}

size_t TraceWriter::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

size_t TraceWriter::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string TraceWriter::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (i != 0) {
      out += ",";
    }
    out += StrFormat("{\"ph\":\"%c\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d", e.ph,
                     JsonEscape(e.name).c_str(), e.pid, e.tid);
    if (e.ph == 'M') {
      // Metadata events carry the display name in args.name.
      out += StrFormat(",\"args\":{\"name\":\"%s\"}",
                       JsonEscape(e.args.empty() ? "" : e.args[0].key).c_str());
      out += "}";
      continue;
    }
    out += StrFormat(",\"cat\":\"%s\",\"ts\":%.3f", JsonEscape(e.cat).c_str(), e.ts_us);
    if (e.ph == 'X') {
      out += StrFormat(",\"dur\":%.3f", e.dur_us);
    }
    if (e.ph == 'i') {
      out += ",\"s\":\"t\"";
    }
    if (e.ph == 'C' || !e.args.empty()) {
      out += ",\"args\":" + ArgsJson(e.args);
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

// --- validation ------------------------------------------------------------
//
// A walk over the shared JSON reader, independent of the emitters above so
// a bug in ToJson cannot hide from its own validator.
namespace {

bool ValidateEvent(JsonReader& r, size_t index) {
  if (r.Peek() != JsonType::kObject) {
    return r.Fail(StrFormat("event %zu is not an object", index));
  }
  std::string ph;
  bool name = false, pid = false, tid = false, ts = false, dur = false, args = false;
  // Notes whether the value under a checked key has the wanted type.
  const auto typed = [&r](JsonType want, bool* seen) {
    *seen = r.Peek() == want;
    return r.Skip();
  };
  const bool ok = r.Object([&](const std::string& key) {
    if (key == "ph") {
      return r.Peek() == JsonType::kString ? r.String(&ph) : r.Skip();
    }
    if (key == "name") return typed(JsonType::kString, &name);
    if (key == "pid") return typed(JsonType::kNumber, &pid);
    if (key == "tid") return typed(JsonType::kNumber, &tid);
    if (key == "ts") return typed(JsonType::kNumber, &ts);
    if (key == "dur") return typed(JsonType::kNumber, &dur);
    if (key == "args" && r.Peek() == JsonType::kObject) {
      return r.Object([&](const std::string&) {
        args = true;  // a counter needs at least one series
        return r.Skip();
      });
    }
    return r.Skip();
  });
  const char kind = ph.size() == 1 ? ph[0] : '\0';
  const char* bad = kind == '\0'           ? "missing/bad \"ph\""
                    : !name                ? "missing/bad \"name\""
                    : !pid || !tid         ? "missing/bad \"pid\"/\"tid\""
                    : kind == 'M'          ? nullptr  // metadata needs no timestamp
                    : !ts                  ? "missing/bad \"ts\""
                    : kind == 'X' && !dur  ? "complete event missing \"dur\""
                    : kind == 'C' && !args ? "counter event missing \"args\""
                                           : nullptr;
  return ok && (bad == nullptr || r.Fail(StrFormat("event %zu: %s", index, bad)));
}

}  // namespace

Status ValidateTraceEventJson(const std::string& json) {
  JsonReader r(json, "trace json");
  bool events = false;
  if (r.Peek() != JsonType::kObject) {
    r.Fail("root is not an object");
  }
  r.Object([&](const std::string& key) {
    if (key != "traceEvents") {
      return r.Skip();
    }
    events = r.Peek() == JsonType::kArray;
    size_t index = 0;
    return events ? r.Array([&] { return ValidateEvent(r, index++); }) : r.Skip();
  });
  if (!events) {
    r.Fail("missing traceEvents array");
  }
  return r.Finish();
}

}  // namespace redfat
