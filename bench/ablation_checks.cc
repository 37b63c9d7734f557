// Check-design ablation (§4.2, §6 "additional low-level optimizations").
//
// Quantifies design choices DESIGN.md calls out, on a fixed mid-weight
// workload:
//   * merged-UB underflow trick vs. separate UAF/LB/UB compare chains;
//   * clobber analysis (dead registers/flags) vs. always save/restore;
//   * size-metadata hardening cost;
//   * trampoline anatomy: bytes of check code per instrumented site.
#include <cstdio>
#include <string>

#include "bench/common.h"
#include "src/support/str.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

struct Variant {
  const char* name;
  RedFatOptions opts;
};

}  // namespace

int RunAblationChecks(const BenchArgs& args) {
  SynthParams p;
  p.seed = 0xab1a7e;
  p.mem_pct = 35;
  p.stream_pct = 6;
  p.max_accesses_per_ptr = 4;
  const BinaryImage img = GenerateSynthProgram(p);
  RunConfig cfg;
  cfg.inputs = RefInputs(800);
  const RunOutcome base = RunImage(img, RuntimeKind::kBaseline, cfg);
  REDFAT_CHECK(base.result.reason == HaltReason::kExit);

  RedFatOptions no_merged_ub;
  no_merged_ub.merged_ub = false;
  RedFatOptions no_clobber;
  no_clobber.clobber_analysis = false;
  RedFatOptions no_size = RedFatOptions::NoSize();
  RedFatOptions everything_off;
  everything_off.merged_ub = false;
  everything_off.clobber_analysis = false;

  const Variant variants[] = {
      {"full (merged-UB + clobber + size)", RedFatOptions{}},
      {"separate UAF/LB/UB branches", no_merged_ub},
      {"no clobber analysis (always save)", no_clobber},
      {"no size-metadata hardening", no_size},
      {"no merged-UB, no clobber", everything_off},
  };

  std::printf("\nCheck-design ablation (fixed workload, lower is better)\n\n");
  std::printf("%-36s %9s %12s %14s\n", "Variant", "slowdown", "tramp bytes", "bytes/site");
  std::string variant_rows;
  for (const Variant& v : variants) {
    const InstrumentResult ir = MustInstrument(img, v.opts);
    const RunOutcome out = RunImage(ir.image, RuntimeKind::kRedFat, cfg);
    REDFAT_CHECK(out.result.reason == HaltReason::kExit);
    REDFAT_CHECK(out.outputs == base.outputs);
    const double slow =
        static_cast<double>(out.result.cycles) / static_cast<double>(base.result.cycles);
    std::printf("%-36s %8.2fx %12llu %14.1f\n", v.name, slow,
                static_cast<unsigned long long>(ir.rewrite_stats.trampoline_bytes),
                static_cast<double>(ir.rewrite_stats.trampoline_bytes) /
                    static_cast<double>(ir.plan_stats.checks_emitted));
    variant_rows += StrFormat(
        "%s{\"name\":%s,\"slowdown\":%.4f,\"tramp_bytes\":%llu,\"checks_emitted\":%zu}",
        variant_rows.empty() ? "" : ",", JsonStr(v.name).c_str(), slow,
        static_cast<unsigned long long>(ir.rewrite_stats.trampoline_bytes),
        ir.plan_stats.checks_emitted);
  }
  std::printf("\nExpected: the merged-UB trick and clobber analysis each shave cycles\n"
              "(the paper judges the branch removal \"worthwhile\", §4.2); disabling\n"
              "size hardening trades a little security for a little speed.\n");

  // --- redzone implementation ablation (§4.1) ----------------------------
  // The paper's metadata-in-redzone scheme vs. an ASAN-style shadow map
  // (naive concatenation of the two methodologies).
  std::printf("\nRedzone implementation ablation (§4.1)\n\n");
  std::printf("%-36s %9s %14s %14s\n", "Implementation", "slowdown", "guest pages",
              "padding OOB?");
  const InstrumentResult meta = MustInstrument(img, RedFatOptions{});
  const RunOutcome m = RunImage(meta.image, RuntimeKind::kRedFat, cfg);
  REDFAT_CHECK(m.outputs == base.outputs);
  RedFatOptions sh;
  sh.redzone_impl = RedzoneImpl::kShadow;
  const InstrumentResult shadow = MustInstrument(img, sh);
  const RunOutcome s = RunImage(shadow.image, RuntimeKind::kRedFatShadow, cfg);
  REDFAT_CHECK(s.outputs == base.outputs);
  struct Impl {
    const char* name;
    const RunOutcome& run;
    const char* padding_oob;
  };
  std::string impl_rows;
  for (const Impl& impl : {Impl{"metadata-in-redzone (RedFat)", m, "detected"},
                           Impl{"ASAN-style shadow (concatenated)", s, "missed"}}) {
    const double slow = static_cast<double>(impl.run.result.cycles) / base.result.cycles;
    std::printf("%-36s %8.2fx %14llu %14s\n", impl.name, slow,
                static_cast<unsigned long long>(impl.run.touched_pages), impl.padding_oob);
    impl_rows += StrFormat("%s{\"name\":%s,\"slowdown\":%.4f,\"guest_pages\":%llu}",
                           impl_rows.empty() ? "" : ",", JsonStr(impl.name).c_str(), slow,
                           static_cast<unsigned long long>(impl.run.touched_pages));
  }
  std::printf("\nThe shadow scheme needs separate bookkeeping (extra guest pages for the\n"
              "shadow map, O(size) marking per malloc/free) and loses exact malloc-size\n"
              "bounds, so overflows into allocation padding go undetected\n"
              "(tests/extensions_test.cc MissesPaddingOverflowUnlikeMetadataImpl).\n");
  return WriteJsonRecord(args, "ablation_checks",
                         "\"variants\":[" + variant_rows + "],\"redzone_impls\":[" +
                             impl_rows + "]");
}

}  // namespace redfat
