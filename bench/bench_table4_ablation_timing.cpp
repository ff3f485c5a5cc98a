// Table IV: Local NER vs Global NER per entity type per dataset —
// P/R/F1, percentage F1 gain, and execution times with the Global NER
// overhead. Paper shape: average macro-F1 gain ~47%; ORG/MISC gains
// ~170%+ (vs ~11%/~23% for PER/LOC); the time overhead of Global NER is
// small relative to Local NER.
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace nerglob;
  auto options = bench::DefaultBuildOptions();
  bench::PrintBanner("Table IV — Ablation: effectiveness & execution time");
  bench::PrintScaleNote(options);

  auto system = harness::BuildTrainedSystem(options);

  double macro_gain_sum = 0.0;
  double type_gain_sum[text::kNumEntityTypes] = {0, 0, 0, 0};
  int type_gain_count[text::kNumEntityTypes] = {0, 0, 0, 0};
  double stream_macro_gain = 0.0;
  double nonstream_macro_gain = 0.0;

  for (const std::string& dataset : bench::AllDatasets()) {
    auto run = harness::RunDataset(system, dataset, options.scale);
    const auto& local = run.stage_scores[0];
    const auto& global = run.stage_scores[3];
    std::printf("\n%s   Local %.2fs | Global(+) %.2fs | overhead %.2fs\n",
                dataset.c_str(), run.local_seconds, run.global_seconds,
                run.global_seconds);
    std::printf("  %-5s  %22s  %22s  %9s\n", "type", "Local  P / R / F1",
                "Global P / R / F1", "F1 gain");
    bench::PrintRule();
    for (int t = 0; t < text::kNumEntityTypes; ++t) {
      const auto& l = local.per_type[static_cast<size_t>(t)];
      const auto& g = global.per_type[static_cast<size_t>(t)];
      const double gain =
          l.f1 > 1e-9 ? 100.0 * (g.f1 - l.f1) / l.f1 : (g.f1 > 0 ? 100.0 : 0.0);
      std::printf("  %-5s  %6.2f / %.2f / %.2f   %6.2f / %.2f / %.2f   %+8.1f%%\n",
                  text::EntityTypeName(static_cast<text::EntityType>(t)),
                  l.precision, l.recall, l.f1, g.precision, g.recall, g.f1, gain);
      type_gain_sum[t] += gain;
      ++type_gain_count[t];
    }
    const double macro_gain =
        local.macro_f1 > 1e-9
            ? 100.0 * (global.macro_f1 - local.macro_f1) / local.macro_f1
            : 0.0;
    std::printf("  macro-F1: %.2f -> %.2f (%+.1f%%)\n", local.macro_f1,
                global.macro_f1, macro_gain);
    macro_gain_sum += macro_gain;
    if (dataset == "WNUT17" || dataset == "BTC") {
      nonstream_macro_gain += macro_gain / 2.0;
    } else {
      stream_macro_gain += macro_gain / 4.0;
    }
  }

  bench::PrintBanner("Table IV summary (ours vs paper)");
  std::printf("  average macro-F1 gain: %+.1f%%   (paper: +47.0%%)\n",
              macro_gain_sum / 6.0);
  const char* names[] = {"PER", "LOC", "ORG", "MISC"};
  const double paper_gains[] = {11.49, 22.58, 174.37, 173.39};
  for (int t = 0; t < text::kNumEntityTypes; ++t) {
    std::printf("  average %s F1 gain:  %+.1f%%   (paper: +%.1f%%)\n", names[t],
                type_gain_sum[t] / type_gain_count[t], paper_gains[t]);
  }
  std::printf("  streaming (D1-D4) macro gain: %+.1f%%  (paper: +49.9%%)\n",
              stream_macro_gain);
  std::printf("  non-streaming macro gain:     %+.1f%%  (paper: +41.4%%)\n",
              nonstream_macro_gain);
  std::printf("  shape check: streaming gain > non-streaming gain — %s\n",
              stream_macro_gain > nonstream_macro_gain ? "REPRODUCED"
                                                       : "NOT reproduced");
  return 0;
}
