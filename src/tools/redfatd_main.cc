// redfatd — rewrite-as-a-service daemon.
//
//   redfatd --socket=PATH [--jobs=N] [--cache-bytes=N]
//
// Listens on a Unix-domain socket and serves framed rewrite requests (see
// src/serve/protocol.h) with a warm pipeline: one persistent worker pool,
// per-image analysis retained across requests, and a content-addressed
// artifact cache in front of the pipeline. Clients use
// `redfat --connect=PATH ...`, which transparently falls back to in-process
// rewriting when no daemon answers.
//
// Options:
//   --socket=PATH       socket to listen on (required). An existing live
//                       daemon on PATH is an error; a stale socket file is
//                       replaced.
//   --jobs=N            warm pool width shared by every request's pipeline
//                       (default 1; 0 = one per hardware thread)
//   --cache-bytes=N     LRU byte budget of the artifact cache (default
//                       256 MiB; 0 = unbounded). Suffixes K/M/G accepted.
//   --stats-on-exit     print the final stats JSON to stdout after the
//                       shutdown request drains
#include <cstdio>
#include <string>

#include "src/serve/daemon.h"
#include "src/tools/tool_io.h"

namespace redfat {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: redfatd --socket=PATH [--jobs=N] [--cache-bytes=N[K|M|G]]\n"
               "               [--stats-on-exit]\n");
  return 2;
}

// Parses "N", "Nk", "NM", "NG" (case-insensitive) into bytes.
bool ParseByteSize(std::string text, uint64_t* out) {
  const size_t unit = text.empty() ? std::string::npos : std::string("kKmMgG").find(text.back());
  const unsigned shift = unit == std::string::npos ? 0 : 10 * static_cast<unsigned>(unit / 2 + 1);
  text.resize(text.size() - (unit == std::string::npos ? 0 : 1));
  uint64_t n = 0;
  if (!ParseNumber(text, &n) || n > (~uint64_t{0} >> shift)) {
    return false;
  }
  *out = n << shift;
  return true;
}

int Main(int argc, char** argv) {
  Daemon::Config config;
  bool stats_on_exit = false;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (MatchFlag(argc, argv, &i, "--socket", &value)) {
      config.socket_path = value;
    } else if (MatchFlag(argc, argv, &i, "--jobs", &value)) {
      if (!ParseNumber(value, &config.service.jobs)) {
        return Usage();
      }
    } else if (MatchFlag(argc, argv, &i, "--cache-bytes", &value)) {
      if (!ParseByteSize(value, &config.service.cache_bytes)) {
        return Usage();
      }
    } else if (arg == "--stats-on-exit") {
      stats_on_exit = true;
    } else {
      return Usage();
    }
  }
  if (config.socket_path.empty()) {
    return Usage();
  }

  Daemon daemon(config);
  Status listening = daemon.Listen();
  if (!listening.ok()) {
    std::fprintf(stderr, "redfatd: %s\n", listening.error().c_str());
    return 1;
  }
  std::fprintf(stderr, "redfatd: listening on %s (jobs=%u, cache-bytes=%llu)\n",
               config.socket_path.c_str(), config.service.jobs,
               static_cast<unsigned long long>(config.service.cache_bytes));
  Status served = daemon.Serve();
  if (!served.ok()) {
    std::fprintf(stderr, "redfatd: %s\n", served.error().c_str());
    return 1;
  }
  if (stats_on_exit) {
    std::printf("%s\n", daemon.service().StatsJson().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace redfat

int main(int argc, char** argv) { return redfat::Main(argc, argv); }
