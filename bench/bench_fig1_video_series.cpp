// Figure 1: MOS of Soccer1 renderings with a 1-second rebuffering event at
// different positions. The paper reports a >40% gap between the best and
// worst positions, with the minimum at the goal.
#include <cstdio>

#include "bench_util.h"
#include "media/dataset.h"
#include "util/stats.h"

using namespace sensei;

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {}, {}, "bench_fig1_video_series");
  media::SourceVideo clip = media::Dataset::soccer1_clip();
  media::EncodedVideo video = media::Encoder().encode(clip);
  crowd::GroundTruthQoE oracle;

  auto series = sim::rebuffer_series(video, 1.0);
  // >30 ratings per rendering, as in §2.2's ground-truth protocol.
  auto mos = bench::crowdsourced_mos(oracle, video, series, 32, 1);

  std::printf("%s", util::banner(
                        "Figure 1: QoE (MOS) vs position of a 1-second rebuffering "
                        "(Soccer1 clip)")
                        .c_str());
  util::Table table({"rebuffer at (s)", "scene", "MOS", "true sensitivity"});
  for (size_t i = 0; i < series.size(); ++i) {
    table.add_row({util::Table::format_double(static_cast<double>(i) * 4.0, 0),
                   media::to_string(clip.chunk(i).kind),
                   util::Table::format_double(mos[i], 2),
                   util::Table::format_double(clip.chunk(i).sensitivity, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  double qmax = util::max_of(mos), qmin = util::min_of(mos);
  size_t worst = 0;
  for (size_t i = 0; i < mos.size(); ++i) {
    if (mos[i] == qmin) worst = i;
  }
  std::printf("max-min MOS gap: %.1f%% (paper: >40%% for this clip)\n",
              (qmax - qmin) / qmin * 100.0);
  std::printf("lowest MOS at chunk %zu (%s) — paper: during the goal\n", worst,
              media::to_string(clip.chunk(worst).kind).c_str());
  return 0;
}
