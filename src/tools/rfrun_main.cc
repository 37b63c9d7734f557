// rfrun — run an RFBIN guest binary under a chosen runtime binding.
//
//   rfrun [options] prog.rfbin [input-word ...]
//
// Options:
//   --runtime=baseline|redfat|redfat-shadow|redfat-debug|memcheck
//                          runtime binding (default: baseline).
//                          redfat-debug = libredfat semantics plus guest
//                          shadow-map maintenance (the debug tier's
//                          allocator)
//   --harden=TIER          select the runtime binding from a hardening
//                          policy tier (core/policy.h): none -> baseline,
//                          fast/extensive -> redfat, debug -> redfat-debug
//                          plus the DBI shadow-check observer classifying
//                          every uninstrumented access. Mutually exclusive
//                          with --runtime
//   --rheap=LIST           allocator hardening features for the redfat/
//                          redfat-debug runtimes: a comma list of
//                          prot-freelist, guard-memcpy, random,
//                          quarantine=N, or `none`. An explicit list is
//                          absolute (starts from everything off).
//                          Default precedence: --rheap flag, else the
//                          --harden tier's defaults, else the sitemap's
//                          "# rheap:" header, else every feature off
//                          (byte-identical to the historical allocator)
//   --policy=harden|log                                (default: harden)
//   --profile-dump FILE    write "<site> <passes> <fails>" lines (feed into
//                          `redfat --profile-data`)
//   --seed N               guest RNG seed
//   --limit N              instruction budget
//   --stats                print instruction/cycle/memory statistics
//   --metrics FILE         unified telemetry snapshot JSON: per-site check/
//                          hit/cycle counters, run counters, heap gauges
//                          ('-' = stdout)
//   --metrics-epoch=N      with --metrics FILE: additionally stream delta
//                          snapshots every N guest instructions, written to
//                          FILE with ".json" replaced by ".<epoch>.json"
//                          (0-based). Each epoch file holds only that
//                          epoch's new events, so merging every epoch with
//                          `redfat --merge-metrics` reproduces the one-shot
//                          FILE exactly
//   --engine=step|block    interpreter dispatch engine (default: block, the
//                          fast engine: chained, specialized superblocks;
//                          step is the reference per-instruction loop —
//                          results are bit-identical). --harden=debug and
//                          --runtime=memcheck attach a per-instruction
//                          observer and always run on step
//   --trace FILE           Chrome trace-event JSON of the run (trampoline
//                          slices, allocator events; guest cycles as µs)
//   --report               human-readable per-site report on stdout, joining
//                          runtime telemetry with --sitemap records and
//                          --pipeline-stats rewrite stats when given
//   --pipeline-stats FILE  `redfat --stats` JSON to join into --report
//   --lib FILE[:SITEMAP]   map FILE before the main program (repeatable;
//                          §7.4 shared-object runs). Libraries load in
//                          option order, the program loads last and keeps
//                          the entry point. Site counters are keyed per
//                          image, so --report stays unambiguous when both
//                          a library and the program are instrumented; the
//                          optional :SITEMAP joins that image's sites.
//   --sample-period=N      guest sampling profiler: take one sample every N
//                          executed instructions (deterministic, identical
//                          under either engine). Attribution uses the t_*
//                          trampoline state, so samples resolve to check
//                          sites without full counter telemetry
//   --profile-folded FILE  with --sample-period: collapsed-stack text
//                          ("image;region;frame count" lines; flamegraph
//                          compatible)
//   --profile-metrics FILE with --sample-period: telemetry-snapshot JSON
//                          synthesized from the samples alone — a cheap
//                          `redfat --profile=` input
//   --error-report FILE    memory-error forensics: track allocation/free
//                          provenance in a bounded ring, print a triage
//                          report (birth/death provenance, neighborhood hex
//                          dump, tier) for every detected error, and write
//                          the structured reports as JSON to FILE
//
// Guest outputs are printed one per line. Exit status: the guest's exit
// code; 134 if the run aborted on a detected memory error (like SIGABRT).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/forensics_report.h"
#include "src/core/harness.h"
#include "src/core/pipeline.h"
#include "src/core/policy.h"
#include "src/core/sitemap.h"
#include "src/dbi/memcheck.h"
#include "src/dbi/shadow_check.h"
#include "src/heap/forensics.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/support/trace.h"
#include "src/tools/tool_io.h"
#include "src/vm/profiler.h"

namespace redfat {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rfrun [--runtime=baseline|redfat|redfat-shadow|redfat-debug|"
               "memcheck]\n"
               "             [--harden=none|fast|extensive|debug]\n"
               "             [--rheap=prot-freelist,guard-memcpy,random,quarantine=N|none]\n"
               "             [--policy=harden|log] [--profile-dump FILE] [--sitemap FILE]\n"
               "             [--seed N] [--limit N] [--stats] [--metrics FILE]\n"
               "             [--metrics-epoch=N] [--engine=step|block]\n"
               "             [--trace FILE] [--report] [--pipeline-stats FILE]\n"
               "             [--lib FILE[:SITEMAP]]...\n"
               "             [--sample-period=N] [--profile-folded FILE]\n"
               "             [--profile-metrics FILE] [--error-report FILE]\n"
               "             prog.rfbin [input...]\n");
  return 2;
}

// A --lib argument: an image to map before the program, optionally with its
// own site map for --report joining.
struct LibSpec {
  std::string path;
  std::string sitemap;
};

LibSpec ParseLibSpec(const std::string& spec) {
  LibSpec lib;
  const size_t colon = spec.rfind(':');
  if (colon != std::string::npos && colon != 0) {
    lib.path = spec.substr(0, colon);
    lib.sitemap = spec.substr(colon + 1);
  } else {
    lib.path = spec;
  }
  return lib;
}

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

Result<std::vector<SiteRecord>> LoadSiteMapFile(
    const std::string& path, std::optional<HardenTier>* harden = nullptr,
    std::optional<RheapOptions>* rheap = nullptr) {
  Result<std::vector<std::string>> lines = ReadLines(path);
  if (!lines.ok()) {
    return Error(lines.error());
  }
  return ParseSiteMap(lines.value(), harden, rheap);
}

int Main(int argc, char** argv) {
  std::string runtime = "baseline";
  bool runtime_given = false;
  bool harden_given = false;
  HardenTier harden = HardenTier::kExtensive;
  std::optional<RheapOptions> rheap_flag;
  std::string policy = "harden";
  std::string profile_dump;
  std::string sitemap_path;
  std::string metrics_path;
  std::string trace_path;
  std::string pipeline_stats_path;
  std::string profile_folded_path;
  std::string profile_metrics_path;
  std::string error_report_path;
  uint64_t sample_period = 0;
  RunConfig cfg;
  bool stats = false;
  bool report = false;
  std::vector<LibSpec> libs;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--runtime=", 0) == 0) {
      runtime = arg.substr(10);
      runtime_given = true;
    } else if (arg.rfind("--harden=", 0) == 0) {
      Result<HardenTier> tier = ParseHardenTier(arg.substr(9));
      if (!tier.ok()) {
        std::fprintf(stderr, "rfrun: %s\n", tier.error().c_str());
        return 2;
      }
      harden = tier.value();
      harden_given = true;
    } else if (arg.rfind("--rheap=", 0) == 0) {
      Result<RheapOptions> opts = ParseRheapList(arg.substr(8));
      if (!opts.ok()) {
        std::fprintf(stderr, "rfrun: %s\n", opts.error().c_str());
        return 2;
      }
      rheap_flag = opts.value();
    } else if (arg.rfind("--policy=", 0) == 0) {
      policy = arg.substr(9);
    } else if (arg == "--profile-dump" && i + 1 < argc) {
      profile_dump = argv[++i];
    } else if (arg == "--sitemap" && i + 1 < argc) {
      sitemap_path = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      cfg.rng_seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--limit" && i + 1 < argc) {
      cfg.instruction_limit = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg.rfind("--metrics-epoch=", 0) == 0) {
      cfg.metrics_epoch = std::strtoull(arg.substr(16).c_str(), nullptr, 0);
    } else if (arg == "--metrics-epoch" && i + 1 < argc) {
      cfg.metrics_epoch = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg.rfind("--engine=", 0) == 0) {
      const std::string engine = arg.substr(9);
      if (engine == "step") {
        cfg.engine = VmEngine::kStep;
      } else if (engine == "block") {
        cfg.engine = VmEngine::kBlock;
      } else {
        return Usage();
      }
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--pipeline-stats" && i + 1 < argc) {
      pipeline_stats_path = argv[++i];
    } else if (arg == "--lib" && i + 1 < argc) {
      libs.push_back(ParseLibSpec(argv[++i]));
    } else if (arg.rfind("--lib=", 0) == 0) {
      libs.push_back(ParseLibSpec(arg.substr(6)));
    } else if (arg.rfind("--sample-period=", 0) == 0) {
      sample_period = std::strtoull(arg.substr(16).c_str(), nullptr, 0);
    } else if (arg == "--sample-period" && i + 1 < argc) {
      sample_period = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--profile-folded" && i + 1 < argc) {
      profile_folded_path = argv[++i];
    } else if (arg.rfind("--profile-folded=", 0) == 0) {
      profile_folded_path = arg.substr(17);
    } else if (arg == "--profile-metrics" && i + 1 < argc) {
      profile_metrics_path = argv[++i];
    } else if (arg.rfind("--profile-metrics=", 0) == 0) {
      profile_metrics_path = arg.substr(18);
    } else if (arg == "--error-report" && i + 1 < argc) {
      error_report_path = argv[++i];
    } else if (arg.rfind("--error-report=", 0) == 0) {
      error_report_path = arg.substr(15);
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty()) {
    return Usage();
  }
  if (harden_given && runtime_given) {
    std::fprintf(stderr,
                 "rfrun: --harden and --runtime both select the runtime binding; "
                 "pass one or the other\n");
    return 2;
  }
  if (rheap_flag.has_value()) {
    // The flag configures the hardened allocator family; reject bindings that
    // never construct one (defaulted baseline included) instead of silently
    // dropping the request.
    const bool hardened_runtime =
        harden_given ? harden != HardenTier::kNone
                     : runtime == "redfat" || runtime == "redfat-shadow" ||
                           runtime == "redfat-debug";
    if (!hardened_runtime) {
      std::fprintf(stderr,
                   "rfrun: --rheap configures the hardened allocator; select one "
                   "with --runtime=redfat|redfat-shadow|redfat-debug or "
                   "--harden=fast|extensive|debug (got %s%s)\n",
                   harden_given ? "--harden=" : "--runtime=",
                   harden_given ? HardenTierName(harden) : runtime.c_str());
      return 2;
    }
  }
  cfg.policy = policy == "log" ? Policy::kLog : Policy::kHarden;
  for (size_t i = 1; i < positional.size(); ++i) {
    cfg.inputs.push_back(std::strtoull(positional[i].c_str(), nullptr, 0));
  }

  Result<BinaryImage> image = LoadImageFile(positional[0]);
  if (!image.ok()) {
    std::fprintf(stderr, "rfrun: %s\n", image.error().c_str());
    return 1;
  }
  std::vector<BinaryImage> lib_images;
  lib_images.reserve(libs.size());
  for (const LibSpec& lib : libs) {
    Result<BinaryImage> li = LoadImageFile(lib.path);
    if (!li.ok()) {
      std::fprintf(stderr, "rfrun: %s\n", li.error().c_str());
      return 1;
    }
    lib_images.push_back(std::move(li).value());
  }

  // Site maps are needed before the run: trace-event `site_addr` args are
  // built from them. Index i holds library i's sites; index libs.size() the
  // program's (mirroring image load order, which fixes telemetry ordinals).
  std::vector<std::vector<SiteRecord>> image_sites(libs.size() + 1);
  std::vector<bool> have_image_sites(libs.size() + 1, false);
  // Resolved hardening tier per image, from the sitemap policy header
  // ("# harden: <tier>"); feeds --report's harden column.
  std::vector<std::optional<HardenTier>> image_harden(libs.size() + 1);
  for (size_t i = 0; i < libs.size(); ++i) {
    if (libs[i].sitemap.empty()) {
      continue;
    }
    Result<std::vector<SiteRecord>> parsed =
        LoadSiteMapFile(libs[i].sitemap, &image_harden[i]);
    if (!parsed.ok()) {
      std::fprintf(stderr, "rfrun: %s\n", parsed.error().c_str());
      return 1;
    }
    image_sites[i] = std::move(parsed).value();
    have_image_sites[i] = true;
  }
  std::optional<RheapOptions> sitemap_rheap;
  if (!sitemap_path.empty()) {
    Result<std::vector<SiteRecord>> parsed =
        LoadSiteMapFile(sitemap_path, &image_harden[libs.size()], &sitemap_rheap);
    if (!parsed.ok()) {
      std::fprintf(stderr, "rfrun: %s\n", parsed.error().c_str());
      return 1;
    }
    image_sites[libs.size()] = std::move(parsed).value();
    have_image_sites[libs.size()] = true;
  }
  // The main image's tier may also come from an explicit --harden flag.
  if (!image_harden[libs.size()].has_value() && harden_given) {
    image_harden[libs.size()] = harden;
  }
  // Allocator feature precedence: explicit --rheap, else the --harden tier's
  // defaults, else the rewrite-time "# rheap:" sitemap header, else every
  // feature off (byte-identical to the historical allocator).
  if (rheap_flag.has_value()) {
    cfg.rheap = *rheap_flag;
  } else if (harden_given) {
    cfg.rheap = RheapForTier(harden);
  } else if (sitemap_rheap.has_value()) {
    cfg.rheap = *sitemap_rheap;
  }
  const std::vector<SiteRecord>& sites = image_sites[libs.size()];
  const bool have_sites = have_image_sites[libs.size()];

  if ((!profile_folded_path.empty() || !profile_metrics_path.empty()) &&
      sample_period == 0) {
    std::fprintf(stderr,
                 "rfrun: --profile-folded/--profile-metrics need --sample-period=N\n");
    return 2;
  }

  // Attach the observability sinks only when requested: a plain run keeps
  // the VM's telemetry hooks on their null fast path.
  TelemetryRegistry telemetry;
  TraceWriter trace;
  SampleProfiler sampler(sample_period == 0 ? 1 : sample_period);
  ForensicRing forensics;
  if (!metrics_path.empty() || report) {
    cfg.telemetry = &telemetry;
  }
  if (sample_period != 0) {
    cfg.sampler = &sampler;
    for (size_t i = 0; i < libs.size(); ++i) {
      sampler.SetImageName(static_cast<uint32_t>(i), BaseName(libs[i].path));
    }
    sampler.SetImageName(static_cast<uint32_t>(libs.size()), BaseName(positional[0]));
  }
  if (!error_report_path.empty()) {
    cfg.forensics = &forensics;
    cfg.forensic_tier = image_harden[libs.size()].has_value()
                            ? HardenTierName(*image_harden[libs.size()])
                            : "";
  }
  if (!trace_path.empty() || cfg.forensics != nullptr) {
    if (!trace_path.empty()) {
      cfg.trace = &trace;
    }
    for (size_t i = 0; i < image_sites.size(); ++i) {
      cfg.image_sites.push_back(have_image_sites[i] ? &image_sites[i] : nullptr);
    }
  }

  // Streaming epochs: every N guest instructions, write the *delta* since
  // the previous epoch to "<metrics stem>.<epoch>.json". The final epoch —
  // the tail of the run plus the run-level counters/gauges the harness adds
  // after Vm::Run returns — is written once the run completes, so merging
  // every epoch file reproduces the one-shot --metrics snapshot.
  uint32_t epoch_index = 0;
  TelemetrySnapshot epoch_prev;
  bool epoch_write_failed = false;
  std::string epoch_stem;
  if (cfg.metrics_epoch != 0) {
    if (metrics_path.empty() || metrics_path == "-") {
      std::fprintf(stderr, "rfrun: --metrics-epoch requires --metrics FILE\n");
      return 2;
    }
    epoch_stem = metrics_path;
    const std::string suffix = ".json";
    if (epoch_stem.size() > suffix.size() &&
        epoch_stem.compare(epoch_stem.size() - suffix.size(), suffix.size(), suffix) == 0) {
      epoch_stem.resize(epoch_stem.size() - suffix.size());
    }
    cfg.telemetry = &telemetry;
    cfg.on_epoch = [&]() {
      const TelemetrySnapshot cur = telemetry.Snapshot();
      const std::string path = StrFormat("%s.%u.json", epoch_stem.c_str(), epoch_index);
      const Status s =
          WriteTextFile(path, DeltaTelemetrySnapshot(cur, epoch_prev).ToJson() + "\n");
      if (!s.ok()) {
        std::fprintf(stderr, "rfrun: %s\n", s.error().c_str());
        epoch_write_failed = true;
      }
      epoch_prev = cur;
      ++epoch_index;
    };
  }

  // The debug tier layers the DBI shadow-check observer over the hardened
  // run: every explicit access outside trampoline code is classified
  // against the guest shadow map the debug allocator maintains.
  ShadowCheckObserver debug_observer;
  if (harden_given && harden == HardenTier::kDebug) {
    cfg.observer = &debug_observer;
  }

  RunOutcome out;
  if (runtime == "memcheck" && !harden_given) {
    if (!libs.empty()) {
      std::fprintf(stderr, "rfrun: --lib is not supported under memcheck\n");
      return 2;
    }
    out = RunMemcheck(image.value(), cfg);
  } else {
    RuntimeKind kind;
    if (harden_given) {
      kind = RuntimeForTier(harden);
    } else if (runtime == "redfat") {
      kind = RuntimeKind::kRedFat;
    } else if (runtime == "redfat-shadow") {
      kind = RuntimeKind::kRedFatShadow;
    } else if (runtime == "redfat-debug") {
      kind = RuntimeKind::kRedFatDebug;
    } else if (runtime == "baseline") {
      kind = RuntimeKind::kBaseline;
    } else {
      return Usage();
    }
    std::vector<const BinaryImage*> images;
    for (const BinaryImage& li : lib_images) {
      images.push_back(&li);
    }
    images.push_back(&image.value());  // last: the program keeps the entry
    out = RunImages(images, kind, cfg);
  }

  for (uint64_t w : out.outputs) {
    std::printf("%llu\n", static_cast<unsigned long long>(w));
  }
  if (!out.forensic_reports.empty()) {
    // Forensics attached: the provenance-rich multi-line report replaces the
    // one-line description (its first line carries the same text).
    for (const ForensicReport& fr : out.forensic_reports) {
      std::fprintf(stderr, "rfrun: MEMORY ERROR:\n%s", FormatForensicReport(fr).c_str());
    }
  } else {
    for (const MemErrorReport& e : out.errors) {
      std::fprintf(stderr, "rfrun: MEMORY ERROR: %s\n",
                   DescribeError(e, have_sites ? &sites : nullptr).c_str());
    }
  }
  if (!error_report_path.empty()) {
    const Status s = WriteTextFile(
        error_report_path, ForensicReportsToJson(out.forensic_reports, forensics) + "\n");
    if (!s.ok()) {
      std::fprintf(stderr, "rfrun: %s\n", s.error().c_str());
      return 1;
    }
  }
  if (!profile_folded_path.empty()) {
    const Status s = WriteTextFile(profile_folded_path, sampler.ToFolded());
    if (!s.ok()) {
      std::fprintf(stderr, "rfrun: %s\n", s.error().c_str());
      return 1;
    }
  }
  if (!profile_metrics_path.empty()) {
    const Status s =
        WriteTextFile(profile_metrics_path, sampler.SynthesizeMetrics().ToJson() + "\n");
    if (!s.ok()) {
      std::fprintf(stderr, "rfrun: %s\n", s.error().c_str());
      return 1;
    }
  }
  if (!profile_dump.empty()) {
    std::string text;
    for (const auto& [site, counts] : out.prof_counts) {
      text += StrFormat("%u %llu %llu\n", site,
                        static_cast<unsigned long long>(counts.passes),
                        static_cast<unsigned long long>(counts.fails));
    }
    std::vector<uint8_t> bytes(text.begin(), text.end());
    const Status s = WriteFileBytes(profile_dump, bytes);
    if (!s.ok()) {
      std::fprintf(stderr, "rfrun: %s\n", s.error().c_str());
      return 1;
    }
  }
  if (stats) {
    std::fprintf(stderr, "rfrun: %llu instructions, %llu cycles, %llu reads, %llu writes, "
                 "%llu pages\n",
                 static_cast<unsigned long long>(out.result.instructions),
                 static_cast<unsigned long long>(out.result.cycles),
                 static_cast<unsigned long long>(out.result.explicit_reads),
                 static_cast<unsigned long long>(out.result.explicit_writes),
                 static_cast<unsigned long long>(out.touched_pages));
  }
  if (cfg.metrics_epoch != 0) {
    // The closing epoch: events since the last boundary plus the harness's
    // post-run vm.* counters and heap gauges.
    const TelemetrySnapshot cur = telemetry.Snapshot();
    const std::string path = StrFormat("%s.%u.json", epoch_stem.c_str(), epoch_index);
    const Status s =
        WriteTextFile(path, DeltaTelemetrySnapshot(cur, epoch_prev).ToJson() + "\n");
    if (!s.ok() || epoch_write_failed) {
      if (!s.ok()) {
        std::fprintf(stderr, "rfrun: %s\n", s.error().c_str());
      }
      return 1;
    }
  }
  if (!metrics_path.empty()) {
    const Status s = WriteTextFile(metrics_path, telemetry.Snapshot().ToJson() + "\n");
    if (!s.ok()) {
      std::fprintf(stderr, "rfrun: %s\n", s.error().c_str());
      return 1;
    }
  }
  if (!trace_path.empty()) {
    if (cfg.sampler != nullptr) {
      sampler.AppendTrace(trace);  // sample instants over the run's slices
    }
    const Status s = WriteTextFile(trace_path, trace.ToJson() + "\n");
    if (!s.ok()) {
      std::fprintf(stderr, "rfrun: %s\n", s.error().c_str());
      return 1;
    }
    if (trace.dropped() != 0) {
      std::fprintf(stderr, "rfrun: trace truncated: %zu events dropped\n",
                   trace.dropped());
    }
  }
  if (report) {
    PipelineStats pipeline;
    bool have_pipeline = false;
    if (!pipeline_stats_path.empty()) {
      Result<std::vector<uint8_t>> bytes = ReadFileBytes(pipeline_stats_path);
      if (!bytes.ok()) {
        std::fprintf(stderr, "rfrun: %s\n", bytes.error().c_str());
        return 1;
      }
      Result<PipelineStats> parsed = PipelineStatsFromJson(
          std::string(bytes.value().begin(), bytes.value().end()));
      if (!parsed.ok()) {
        std::fprintf(stderr, "rfrun: %s\n", parsed.error().c_str());
        return 1;
      }
      pipeline = std::move(parsed).value();
      have_pipeline = true;
    }
    // Per-image tables: telemetry keys decode to (image ordinal, site id);
    // ordinals follow load order — libraries first, the program last. Each
    // table carries its image's resolved hardening tier (sitemap policy
    // header or the --harden flag) for the report's harden column; a
    // single-image report without policy data is byte-identical to before.
    std::vector<ImageSiteTable> tables;
    for (size_t i = 0; i < libs.size(); ++i) {
      tables.push_back(ImageSiteTable{
          BaseName(libs[i].path), have_image_sites[i] ? &image_sites[i] : nullptr,
          image_harden[i].has_value() ? HardenTierName(*image_harden[i]) : ""});
    }
    tables.push_back(ImageSiteTable{
        BaseName(positional[0]), have_sites ? &sites : nullptr,
        image_harden[libs.size()].has_value()
            ? HardenTierName(*image_harden[libs.size()])
            : ""});
    // Overlay the host-side dispatch-layer stats on the report view only.
    // They never enter the registry itself (and are injected after the
    // --metrics files above were written): guest telemetry must stay
    // bit-identical across engines, and the stepper has no chains to count.
    TelemetrySnapshot snap = telemetry.Snapshot();
    const Vm::DispatchStats& d = out.dispatch;
    auto put = [&snap](const char* name, uint64_t v) {
      if (v != 0) {
        snap.counters[name] = v;
      }
    };
    put("vm.blocks_built", d.blocks_built);
    put("vm.block_chains", d.block_chains);
    put("vm.chain_exits", d.chain_exits);
    put("vm.code_cache_evictions", d.code_cache_evictions);
    put("vm.links_patched", d.links_patched);
    put("vm.traces_formed", d.traces_formed);
    put("vm.trace_runs", d.trace_runs);
    if (d.tlb_hits + d.tlb_misses != 0) {
      snap.gauges["vm.tlb_hit_rate"] =
          static_cast<double>(d.tlb_hits) /
          static_cast<double>(d.tlb_hits + d.tlb_misses);
    }
    if (d.trace_len.Count() != 0) {
      snap.histograms["vm.trace_len"] = d.trace_len;
    }
    const std::string text =
        FormatTelemetryReport(snap, tables,
                              have_pipeline ? &pipeline : nullptr, out.result.cycles);
    std::fputs(text.c_str(), stdout);
  }

  switch (out.result.reason) {
    case HaltReason::kExit:
      return static_cast<int>(out.result.exit_status);
    case HaltReason::kMemErrorAbort:
      return 134;
    case HaltReason::kHlt:
      return 0;
    case HaltReason::kInstrLimit:
      std::fprintf(stderr, "rfrun: instruction limit exceeded\n");
      return 124;
    default:
      std::fprintf(stderr, "rfrun: FAULT: %s\n", out.result.fault_message.c_str());
      return 139;
  }
}

}  // namespace
}  // namespace redfat

int main(int argc, char** argv) { return redfat::Main(argc, argv); }
