// Figure 4: QoE vs incident position for three incident types on the
// Soccer1 clip. The paper's observation: absolute QoE depends on the
// incident, the *ranking over positions* does not.
#include <cstdio>

#include "bench_util.h"
#include "media/dataset.h"
#include "util/stats.h"

using namespace sensei;

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {}, {}, "bench_fig4_incident_positions");
  media::SourceVideo clip = media::Dataset::soccer1_clip();
  media::EncodedVideo video = media::Encoder().encode(clip);
  crowd::GroundTruthQoE oracle;

  auto rebuf1 = sim::rebuffer_series(video, 1.0);
  auto rebuf4 = sim::rebuffer_series(video, 4.0);
  auto drop = sim::bitrate_drop_series(video, 0, 1);

  auto mos1 = bench::crowdsourced_mos(oracle, video, rebuf1, 24, 41);
  auto mos4 = bench::crowdsourced_mos(oracle, video, rebuf4, 24, 42);
  auto mosd = bench::crowdsourced_mos(oracle, video, drop, 24, 43);

  std::printf("%s", util::banner("Figure 4: QoE vs incident position (Soccer1 clip)")
                        .c_str());
  util::Table table(
      {"position (s)", "(a) 1-s rebuffering", "(b) 4-s rebuffering", "(c) bitrate drop"});
  for (size_t i = 0; i < mos1.size(); ++i) {
    table.add_row(std::vector<double>{static_cast<double>(i) * 4.0, mos1[i], mos4[i],
                                      mosd[i]},
                  2);
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("4-s rebuffering is uniformly worse than 1-s: %s\n",
              util::mean(mos4) < util::mean(mos1) ? "yes" : "NO");
  std::printf("rank correlation (1-s vs 4-s rebuffering):  SRCC=%.2f\n",
              util::spearman(mos1, mos4));
  std::printf("rank correlation (1-s rebuf vs bitrate drop): SRCC=%.2f\n",
              util::spearman(mos1, mosd));
  std::printf("(paper: the ranking over positions is identical across incidents)\n");
  return 0;
}
