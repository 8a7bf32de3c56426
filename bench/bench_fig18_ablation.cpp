// Figure 18: understanding SENSEI's improvements.
// (a) Impact of the base ABR logic: gains over BBA for Fugu and Pensieve,
//     vanilla vs SENSEI variants.
// (b) Breakdown of SENSEI's improvement: base ABR with KSQI objective ->
//     + sensitivity-weighted objective (bitrate adaptation only) ->
//     + new adaptation action (scheduled rebuffering) = full SENSEI.
#include <cstdio>

#include "bench_util.h"
#include "core/experiments.h"
#include "util/stats.h"
#include "util/table.h"

using namespace sensei;
using core::Experiments;

namespace {

// Median gain over BBA across the evaluation matrix (medians, as in Figure
// 12a's distribution view — means are dominated by a few catastrophic
// low-bandwidth sessions of the RL policies).
double median_gain_over_bba(sim::AbrPolicy& policy, bool use_weights) {
  const auto& videos = Experiments::videos();
  const auto& traces = Experiments::traces();
  const auto& weights = Experiments::weights();
  const std::vector<double> none;
  abr::BbaAbr bba;
  std::vector<double> gains;
  for (size_t v = 0; v < videos.size(); ++v) {
    for (const auto& trace : traces) {
      double q_bba = Experiments::run(videos[v], trace, bba, none).true_qoe;
      if (q_bba < 0.02) continue;
      double q =
          Experiments::run(videos[v], trace, policy, use_weights ? weights[v] : none)
              .true_qoe;
      gains.push_back((q - q_bba) / q_bba * 100.0);
    }
  }
  return util::median(gains);
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {}, {}, "bench_fig18_ablation");
  auto fugu = core::Sensei::make_fugu();
  auto sensei_fugu = core::Sensei::make_sensei_fugu();
  auto sensei_fugu_bitrate_only = core::Sensei::make_sensei_fugu_bitrate_only();
  auto& pensieve = Experiments::pensieve();
  auto& sensei_pensieve = Experiments::sensei_pensieve();

  std::printf("%s", util::banner("Figure 18a: impact of the base ABR logic").c_str());
  util::Table a({"base ABR", "base median gain over BBA %", "SENSEI median gain over BBA %"});
  a.add_row({"Fugu", util::Table::format_double(median_gain_over_bba(*fugu, false), 1),
             util::Table::format_double(median_gain_over_bba(*sensei_fugu, true), 1)});
  a.add_row({"Pensieve",
             util::Table::format_double(median_gain_over_bba(pensieve, false), 1),
             util::Table::format_double(median_gain_over_bba(sensei_pensieve, true), 1)});
  std::printf("%s\n", a.to_string().c_str());

  std::printf("%s", util::banner("Figure 18b: breakdown of SENSEI's improvement "
                                 "(Fugu base)")
                        .c_str());
  util::Table b({"configuration", "median gain over BBA %"});
  b.add_row({"base ABR w/ KSQI objective",
             util::Table::format_double(median_gain_over_bba(*fugu, false), 1)});
  b.add_row({"+ weighted objective (bitrate adaptation only)",
             util::Table::format_double(
                 median_gain_over_bba(*sensei_fugu_bitrate_only, true), 1)});
  b.add_row({"full SENSEI (+ scheduled rebuffering)",
             util::Table::format_double(median_gain_over_bba(*sensei_fugu, true), 1)});
  std::printf("%s", b.to_string().c_str());
  std::printf("\n(paper: both steps help; the objective change contributes more than "
              "the new action)\n");
  return 0;
}
