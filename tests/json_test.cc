// Tests for the shared JSON module (support/json.h) and the three parsers
// built on it: PipelineStatsFromJson (`--stats`), TelemetrySnapshotFromJson
// (`--metrics`, profiles) and ValidateTraceEventJson (`--trace`). Every
// hostile input must end in a typed error: deep nesting, out-of-range or
// non-integer numbers, trailing data and every truncation of a real output.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/core/harness.h"
#include "src/core/pipeline.h"
#include "src/core/redfat.h"
#include "src/support/json.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/support/trace.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

std::string ErrorOf(const Status& st) { return st.ok() ? "" : st.error(); }

// --- the reader -------------------------------------------------------------

TEST(JsonReader, DecodesEveryEscape) {
  JsonReader r(R"("a\"b\\c\/\n\r\t\b\f\u0001\u00e9\u20AC\ud800x")", "t");
  std::string s;
  ASSERT_TRUE(r.String(&s));
  EXPECT_TRUE(r.Finish().ok());
  // Each \u escape is one UTF-8 sequence, a lone surrogate half included.
  EXPECT_EQ(s, "a\"b\\c/\n\r\t\b\f\x01\xc3\xa9\xe2\x82\xac\xed\xa0\x80x");
}

TEST(JsonReader, RejectsMalformedStrings) {
  for (const char* bad : {"\"abc", "\"a\\", "\"\\q\"", "\"\\u12\"", "\"\\uzzzz\"",
                          "\"tab\there\"", "abc"}) {
    JsonReader r(bad, "t");
    std::string s;
    EXPECT_FALSE(r.String(&s)) << bad;
    EXPECT_FALSE(r.Finish().ok()) << bad;
  }
}

TEST(JsonReader, IntegersAreExact) {
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  JsonReader r("[0,18446744073709551615,9007199254740993]", "t");
  std::vector<uint64_t> got;
  ASSERT_TRUE(r.Array([&] { return r.Number(&got.emplace_back()); }));
  EXPECT_TRUE(r.Finish().ok());
  EXPECT_EQ(got, (std::vector<uint64_t>{0, max, 9007199254740993ull}));
}

TEST(JsonReader, NonIntegersAndOverflowAreTypedErrors) {
  for (const char* bad : {"-1", "-5", "1.5", "1e300", "1e30", "1E2", "18446744073709551616",
                          "01", "-", "1.", ".5", "+1", "0x10", "nan", "\"7\""}) {
    JsonReader r(bad, "t");
    uint64_t v = 0;
    const bool ok = r.Number(&v);
    EXPECT_FALSE(ok && r.Finish().ok()) << bad;
  }
  JsonReader narrow("4294967296", "t");
  uint32_t v32 = 0;
  EXPECT_FALSE(narrow.Number(&v32));
  EXPECT_NE(ErrorOf(narrow.Finish()).find("out of range"), std::string::npos);
}

TEST(JsonReader, DoublesFollowTheJsonGrammar) {
  JsonReader r("[-0.5,1e-3,2E+2,0,-7]", "t");
  std::vector<double> got;
  ASSERT_TRUE(r.Array([&] { return r.Number(&got.emplace_back()); }));
  EXPECT_TRUE(r.Finish().ok());
  EXPECT_EQ(got, (std::vector<double>{-0.5, 1e-3, 2e2, 0, -7}));
  JsonReader huge("1e400", "t");
  double d = 0;
  EXPECT_FALSE(huge.Number(&d));
}

TEST(JsonReader, SkipConsumesAnyValue) {
  JsonReader r(R"({"a":[1,{"b":null},true,false,"s",-2.5e3,[]],"c":{}} )", "t");
  EXPECT_TRUE(r.Skip());
  EXPECT_TRUE(r.Finish().ok());
  for (const char* bad : {"{\"a\" 1}", "[1 2]", "[1,]", "{,}", "tru", "nul", "{\"a\":}"}) {
    JsonReader b(bad, "t");
    EXPECT_FALSE(b.Skip() && b.Finish().ok()) << bad;
  }
}

TEST(JsonReader, ErrorsCarryThePrefixAndOffset) {
  JsonReader r("[1,2] x", "stats json");
  EXPECT_TRUE(r.Skip());
  EXPECT_EQ(ErrorOf(r.Finish()), "stats json: trailing data at byte 6");
}

TEST(JsonReader, NestingDepthIsCapped) {
  const std::string limit =
      std::string(JsonReader::kMaxDepth, '[') + std::string(JsonReader::kMaxDepth, ']');
  JsonReader shallow(limit, "t");
  EXPECT_TRUE(shallow.Skip());
  const std::string deep(1'000'000, '[');
  JsonReader r(deep, "t");
  EXPECT_FALSE(r.Skip());
  EXPECT_NE(ErrorOf(r.Finish()).find("nesting too deep"), std::string::npos);
}

TEST(JsonEscape, EscapesOnlyWhatJsonRequires) {
  EXPECT_EQ(JsonEscape("pipeline.disasm.ms"), "pipeline.disasm.ms");
  EXPECT_EQ(JsonEscape("q\"b\\n\nr\rt\t\x01\x1f\xc3\xa9"),
            "q\\\"b\\\\n\\nr\\rt\\t\\u0001\\u001f\xc3\xa9");
}

// --- the three entry points -------------------------------------------------

TEST(JsonEntryPoints, DeepNestingIsATypedError) {
  const std::string deep(1'000'000, '[');
  const Result<PipelineStats> stats = PipelineStatsFromJson("{\"passes\":" + deep);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.error().rfind("stats json:", 0), 0u) << stats.error();
  const Result<TelemetrySnapshot> snap = TelemetrySnapshotFromJson("{\"sites\":" + deep);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.error().rfind("metrics json:", 0), 0u) << snap.error();
  for (const std::string& doc : {deep, "{\"traceEvents\":" + deep, "{\"x\":" + deep}) {
    const Status st = ValidateTraceEventJson(doc);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().rfind("trace json:", 0), 0u) << st.error();
  }
}

TEST(JsonEntryPoints, IntegerFieldsRejectNonIntegers) {
  for (const char* v : {"-1", "-5", "1.5", "1e300", "1e30", "18446744073709551616"}) {
    for (const std::string& doc :
         {StrFormat("{\"counters\":{\"c\":%s}}", v), StrFormat("{\"gauge_seq\":{\"g\":%s}}", v),
          StrFormat("{\"sites\":[{\"id\":%s}]}", v),
          StrFormat("{\"sites\":[{\"id\":1,\"checks\":%s}]}", v),
          StrFormat("{\"histograms\":{\"h\":{\"sum\":%s}}}", v),
          StrFormat("{\"histograms\":{\"h\":{\"buckets\":{\"3\":%s}}}}", v)}) {
      EXPECT_FALSE(TelemetrySnapshotFromJson(doc).ok()) << doc;
    }
    for (const std::string& doc :
         {StrFormat("{\"jobs\":%s}", v), StrFormat("{\"passes\":[{\"items\":%s}]}", v),
          StrFormat("{\"passes\":[{\"changed\":%s}]}", v),
          StrFormat("{\"passes\":[{\"cycles_saved\":%s}]}", v)}) {
      EXPECT_FALSE(PipelineStatsFromJson(doc).ok()) << doc;
    }
  }
  EXPECT_FALSE(TelemetrySnapshotFromJson("{\"sites\":[{\"id\":4294967296}]}").ok());
  EXPECT_FALSE(PipelineStatsFromJson("{\"jobs\":4294967296}").ok());
  // Bucket keys name a slot of the frozen layout and nothing else.
  for (const char* key : {"252", "-1", "x", "", "1.0"}) {
    const std::string doc = StrFormat("{\"histograms\":{\"h\":{\"buckets\":{\"%s\":1}}}}", key);
    EXPECT_FALSE(TelemetrySnapshotFromJson(doc).ok()) << doc;
  }
}

TEST(JsonEntryPoints, KeepTheirContracts) {
  // Unknown numeric keys inside records are ignored; unknown top-level keys
  // are errors; start_ms is optional.
  const Result<PipelineStats> stats =
      PipelineStatsFromJson("{\"passes\":[{\"name\":\"x\",\"items\":2,\"future\":1}]}");
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats.value().passes[0].items, 2u);
  EXPECT_EQ(stats.value().passes[0].start_ms, 0.0);
  EXPECT_FALSE(PipelineStatsFromJson("{\"future\":1}").ok());
  const Result<TelemetrySnapshot> snap =
      TelemetrySnapshotFromJson("{\"sites\":[{\"id\":3,\"future\":9,\"checks\":4}]}");
  ASSERT_TRUE(snap.ok()) << snap.error();
  EXPECT_EQ(snap.value().FindSite(3)->checks(), 4u);
  EXPECT_FALSE(TelemetrySnapshotFromJson("{\"future\":{}}").ok());
  EXPECT_FALSE(TelemetrySnapshotFromJson("{\"histograms\":{\"h\":{\"max\":1}}}").ok());
}

TEST(JsonEntryPoints, TrailingDataIsRejected) {
  EXPECT_FALSE(PipelineStatsFromJson("{\"jobs\":1} {").ok());
  EXPECT_FALSE(TelemetrySnapshotFromJson("{\"counters\":{}}x").ok());
  EXPECT_FALSE(ValidateTraceEventJson("{\"traceEvents\":[]},").ok());
  EXPECT_TRUE(ValidateTraceEventJson("{\"traceEvents\":[]} \n").ok());
}

TEST(JsonEntryPoints, MaxCounterRoundTrips) {
  TelemetrySnapshot snap;
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  snap.counters["vm.cycles"] = max;
  snap.gauge_seq["g"] = max;
  snap.gauges["g"] = -0.25;
  snap.histograms["h"].sum = max;
  snap.histograms["h"].buckets[kNumHistogramBuckets - 1] = max;
  SiteTelemetry site;
  site.site = std::numeric_limits<uint32_t>::max();
  site.counts[0] = max;
  snap.sites.push_back(site);
  const Result<TelemetrySnapshot> back = TelemetrySnapshotFromJson(snap.ToJson());
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value().counters, snap.counters);
  EXPECT_EQ(back.value().gauge_seq, snap.gauge_seq);
  EXPECT_EQ(back.value().gauges, snap.gauges);
  EXPECT_EQ(back.value().histograms.at("h").sum, max);
  EXPECT_EQ(back.value().histograms.at("h").buckets, snap.histograms["h"].buckets);
  ASSERT_EQ(back.value().sites.size(), 1u);
  EXPECT_EQ(back.value().sites[0].site, site.site);
  EXPECT_EQ(back.value().sites[0].checks(), max);
  EXPECT_EQ(back.value().ToJson(), snap.ToJson());
}

TEST(JsonEntryPoints, EscapedNamesRoundTripThroughMerge) {
  const std::string weird = "q\"uote\\slash\nnl\ttab\x01\xc3\xa9";
  TelemetrySnapshot snap;
  snap.counters[weird] = 7;
  snap.gauges[weird] = 1.5;
  snap.gauge_seq[weird] = 3;
  snap.histograms[weird].buckets[4] = 2;
  const std::string json = snap.ToJson();
  const Result<TelemetrySnapshot> back = TelemetrySnapshotFromJson(json);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value().counters, snap.counters);
  EXPECT_EQ(back.value().gauges, snap.gauges);
  EXPECT_EQ(back.value().gauge_seq, snap.gauge_seq);
  ASSERT_EQ(back.value().histograms.count(weird), 1u);
  // `redfat --merge-metrics` re-serializes what it parsed: a fixed point.
  EXPECT_EQ(MergeTelemetrySnapshots({back.value()}).ToJson(), json);
  // A foreign \u escape decodes and is written back raw.
  const Result<TelemetrySnapshot> foreign =
      TelemetrySnapshotFromJson("{\"counters\":{\"\\u00e9\\/\":1}}");
  ASSERT_TRUE(foreign.ok()) << foreign.error();
  EXPECT_EQ(foreign.value().counters.count("\xc3\xa9/"), 1u);
  EXPECT_TRUE(TelemetrySnapshotFromJson(foreign.value().ToJson()).ok());

  PipelineStats stats;
  stats.passes.push_back(PassStats{});
  stats.passes[0].name = weird;
  const Result<PipelineStats> sback = PipelineStatsFromJson(stats.ToJson());
  ASSERT_TRUE(sback.ok()) << sback.error();
  EXPECT_EQ(sback.value().passes[0].name, weird);
}

// --- every truncation of a real output ----------------------------------------

struct RealOutputs {
  std::string stats;
  std::string metrics;
  std::string trace;
};

// A debug-tier rewrite and a benign run of the forensics workload, recorded
// exactly as `redfat --stats` and `rfrun --metrics/--trace` serialize them.
const RealOutputs& Outputs() {
  static const RealOutputs outputs = [] {
    const BinaryImage prog = GenerateUafProgram(UafParams{});
    RedFatOptions opts;
    const InstrumentResult ir = RedFatTool(opts).Instrument(prog).value();
    TelemetryRegistry reg;
    TraceWriter trace;
    RunConfig cfg;
    cfg.inputs = {0};
    cfg.telemetry = &reg;
    cfg.trace = &trace;
    (void)RunImage(ir.image, RuntimeKind::kRedFat, cfg);
    return RealOutputs{ir.pipeline_stats.ToJson(), reg.Snapshot().ToJson(), trace.ToJson()};
  }();
  return outputs;
}

TEST(JsonPrefixSweep, RealOutputsParse) {
  const RealOutputs& out = Outputs();
  EXPECT_TRUE(PipelineStatsFromJson(out.stats).ok());
  EXPECT_TRUE(TelemetrySnapshotFromJson(out.metrics).ok());
  EXPECT_TRUE(ValidateTraceEventJson(out.trace).ok());
  EXPECT_NE(out.metrics.find("\"histograms\""), std::string::npos);
  EXPECT_NE(out.trace.find("\"ph\":\"C\""), std::string::npos);
}

TEST(JsonPrefixSweep, EveryStrictPrefixIsATypedError) {
  const RealOutputs& out = Outputs();
  for (size_t n = 0; n < out.stats.size(); ++n) {
    const Result<PipelineStats> r = PipelineStatsFromJson(out.stats.substr(0, n));
    ASSERT_FALSE(r.ok()) << n;
    ASSERT_EQ(r.error().rfind("stats json:", 0), 0u) << r.error();
  }
  for (size_t n = 0; n < out.metrics.size(); ++n) {
    const Result<TelemetrySnapshot> r = TelemetrySnapshotFromJson(out.metrics.substr(0, n));
    ASSERT_FALSE(r.ok()) << n;
    ASSERT_EQ(r.error().rfind("metrics json:", 0), 0u) << r.error();
  }
  for (size_t n = 0; n < out.trace.size(); ++n) {
    const Status st = ValidateTraceEventJson(out.trace.substr(0, n));
    ASSERT_FALSE(st.ok()) << n;
    ASSERT_EQ(st.error().rfind("trace json:", 0), 0u) << st.error();
  }
}

}  // namespace
}  // namespace redfat
