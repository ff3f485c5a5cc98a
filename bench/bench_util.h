#ifndef NERGLOB_BENCH_BENCH_UTIL_H_
#define NERGLOB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "harness/experiment.h"

namespace nerglob::bench {

/// All evaluation datasets of the paper, in table order.
inline const std::vector<std::string>& AllDatasets() {
  static const auto& kDatasets = *new std::vector<std::string>{
      "D1", "D2", "D3", "D4", "WNUT17", "BTC"};
  return kDatasets;
}

/// Streaming subset (D1-D4).
inline const std::vector<std::string>& StreamingDatasets() {
  static const auto& kDatasets =
      *new std::vector<std::string>{"D1", "D2", "D3", "D4"};
  return kDatasets;
}

inline void PrintBanner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

/// One row of the Table III/V layout: system name + per-type F1 + macro.
inline void PrintSystemRow(const std::string& system,
                           const eval::NerScores& scores) {
  std::printf("  %-18s  PER %.2f  LOC %.2f  ORG %.2f  MISC %.2f  | macro %.2f\n",
              system.c_str(), scores.per_type[0].f1, scores.per_type[1].f1,
              scores.per_type[2].f1, scores.per_type[3].f1, scores.macro_f1);
}

/// Standard build: default options + environment-controlled scale/cache.
inline harness::BuildOptions DefaultBuildOptions() {
  harness::BuildOptions options;
  options.scale = harness::DefaultScale();
  options.cache_dir = harness::DefaultCacheDir();
  return options;
}

inline void PrintScaleNote(const harness::BuildOptions& options) {
  std::printf("(dataset scale %.2f of paper sizes; set NERGLOB_SCALE=1.0 for "
              "full-size runs)\n", options.scale);
}

}  // namespace nerglob::bench

#endif  // NERGLOB_BENCH_BENCH_UTIL_H_
