// Figure 3: CDF of the max-min QoE gap when a low-quality incident (1-s
// rebuffering, 4-s rebuffering, or a 4-s bitrate drop) is injected at
// different positions in the same video — whole-video and 12-second-window
// variants. Paper: 21 of 48 series exceed a 40% gap.
#include <cstdio>

#include "bench_util.h"
#include "media/dataset.h"
#include "util/stats.h"

using namespace sensei;

namespace {

// Builds the three §2.3 incident series for one video.
std::vector<std::vector<sim::RenderedVideo>> build_series(const media::EncodedVideo& video) {
  return {
      sim::rebuffer_series(video, 1.0),
      sim::rebuffer_series(video, 4.0),
      sim::bitrate_drop_series(video, 0, 1),  // 300 Kbps for one 4-s chunk
  };
}

double relative_gap(const std::vector<double>& qoe) {
  double lo = util::min_of(qoe), hi = util::max_of(qoe);
  return lo > 0 ? (hi - lo) / lo * 100.0 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {}, {}, "bench_fig3_qoe_gap_cdf");
  crowd::GroundTruthQoE oracle;
  media::Encoder encoder;
  std::vector<double> whole_video_gaps;
  std::vector<double> window_gaps;
  int over40 = 0, total = 0;
  uint64_t seed = 100;

  for (const auto& source : media::Dataset::test_set()) {
    media::EncodedVideo video = encoder.encode(source);
    for (auto& series : build_series(video)) {
      auto mos = bench::crowdsourced_mos(oracle, video, series, 12, seed++);
      double gap = relative_gap(mos);
      whole_video_gaps.push_back(gap);
      ++total;
      if (gap > 40.0) ++over40;

      // 12-second-window variant: gaps among positions within each window of
      // 3 chunks, stepped at 4-second boundaries.
      for (size_t start = 0; start + 3 <= mos.size(); start += 1) {
        std::vector<double> window(mos.begin() + static_cast<long>(start),
                                   mos.begin() + static_cast<long>(start + 3));
        window_gaps.push_back(relative_gap(window));
      }
    }
  }

  bench::print_cdf("Figure 3: max-min QoE gap CDF, whole video (48 series)",
                   whole_video_gaps);
  bench::print_cdf("Figure 3: max-min QoE gap CDF, 12-second windows", window_gaps);
  std::printf("series with gap > 40%%: %d of %d (paper: 21 of 48)\n", over40, total);
  std::printf("mean whole-video gap: %.1f%% (paper: ~42%% average, up to 121%%)\n",
              util::mean(whole_video_gaps));
  return 0;
}
