// Figure 13: QoE gain over BBA per source video (grouped by genre), averaged
// across traces. Paper: large variability across videos even within a genre.
#include <cstdio>

#include "bench_util.h"
#include "core/experiments.h"
#include "util/stats.h"
#include "util/table.h"

using namespace sensei;
using core::Experiments;

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {}, {}, "bench_fig13_per_video");
  const auto& videos = Experiments::videos();
  const auto& traces = Experiments::traces();
  const auto& weights = Experiments::weights();

  abr::BbaAbr bba;
  auto fugu = core::Sensei::make_fugu();
  auto sensei_fugu = core::Sensei::make_sensei_fugu();
  auto& pensieve = Experiments::pensieve();

  std::printf("%s", util::banner(
                        "Figure 13: QoE gain over BBA per source video (grouped by genre)")
                        .c_str());
  util::Table table({"video", "genre", "SENSEI %", "Pensieve %", "Fugu %"});
  const std::vector<double> none;
  std::vector<double> sensei_gains;
  for (size_t v = 0; v < videos.size(); ++v) {
    util::Accumulator g_sensei, g_pen, g_fugu;
    for (const auto& trace : traces) {
      double q_bba = Experiments::run(videos[v], trace, bba, none).true_qoe;
      if (q_bba < 0.02) continue;
      g_sensei.add((Experiments::run(videos[v], trace, *sensei_fugu, weights[v]).true_qoe -
                    q_bba) /
                   q_bba * 100.0);
      g_pen.add(
          (Experiments::run(videos[v], trace, pensieve, none).true_qoe - q_bba) / q_bba *
          100.0);
      g_fugu.add(
          (Experiments::run(videos[v], trace, *fugu, none).true_qoe - q_bba) / q_bba *
          100.0);
    }
    sensei_gains.push_back(g_sensei.mean());
    table.add_row({videos[v].source().name(),
                   media::to_string(videos[v].source().genre()),
                   util::Table::format_double(g_sensei.mean(), 1),
                   util::Table::format_double(g_pen.mean(), 1),
                   util::Table::format_double(g_fugu.mean(), 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("per-video SENSEI gain spread: sd=%.1f%% (paper: gains vary strongly even "
              "within a genre)\n",
              util::stddev(sensei_gains));
  return 0;
}
