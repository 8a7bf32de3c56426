// Figure 5: rank correlation (Spearman) between QoE series generated with
// different incident types, per source video. The paper finds strong rank
// correlation across incident types, supporting the single-weight-per-chunk
// abstraction.
#include <cstdio>

#include "bench_util.h"
#include "media/dataset.h"
#include "util/stats.h"

using namespace sensei;

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {}, {}, "bench_fig5_rank_correlation");
  crowd::GroundTruthQoE oracle;
  media::Encoder encoder;

  std::printf("%s", util::banner(
                        "Figure 5: QoE rank correlation between quality incidents, "
                        "per source video")
                        .c_str());
  util::Table table({"video", "(a) 1-s vs 4-s rebuffering", "(b) 1-s rebuf vs bitrate drop"});
  std::vector<double> all_a, all_b;
  uint64_t seed = 500;
  for (const auto& source : media::Dataset::test_set()) {
    media::EncodedVideo video = encoder.encode(source);
    auto mos1 = bench::crowdsourced_mos(oracle, video, sim::rebuffer_series(video, 1.0),
                                        24, seed++);
    auto mos4 = bench::crowdsourced_mos(oracle, video, sim::rebuffer_series(video, 4.0),
                                        24, seed++);
    auto mosd = bench::crowdsourced_mos(oracle, video,
                                        sim::bitrate_drop_series(video, 0, 1), 24, seed++);
    double a = util::spearman(mos1, mos4);
    double b = util::spearman(mos1, mosd);
    all_a.push_back(a);
    all_b.push_back(b);
    table.add_row({source.name(), util::Table::format_double(a, 2),
                   util::Table::format_double(b, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("mean SRCC: (a)=%.2f (b)=%.2f (paper: both strongly positive)\n",
              util::mean(all_a), util::mean(all_b));
  return 0;
}
