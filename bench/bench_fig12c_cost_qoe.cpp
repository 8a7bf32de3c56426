// Figure 12c: crowdsourcing cost (USD per minute of video) vs achieved QoE,
// with and without the two-step cost pruning. Paper: pruning cuts cost by
// ~96.7% with only ~3.1% QoE degradation, landing at ~$31.4/min.
#include <cstdio>

#include "bench_util.h"
#include "core/experiments.h"
#include "crowd/scheduler.h"
#include "util/stats.h"
#include "util/table.h"

using namespace sensei;
using core::Experiments;

namespace {

// Evaluates the QoE achieved by Sensei-Fugu when driven by the given weight
// vectors, averaged over videos and a trace subset.
double achieved_qoe(const std::vector<std::vector<double>>& weights) {
  const auto& videos = Experiments::videos();
  const auto& traces = Experiments::traces();
  auto sensei_fugu = core::Sensei::make_sensei_fugu();
  util::Accumulator acc;
  for (size_t v = 0; v < videos.size(); ++v) {
    for (size_t t = 0; t < traces.size(); t += 3) {
      acc.add(Experiments::run(videos[v], traces[t], *sensei_fugu, weights[v]).true_qoe);
    }
  }
  return acc.mean();
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {}, {}, "bench_fig12c_cost_qoe");
  const auto& oracle = Experiments::oracle();
  // Profile 1-minute clips so cost is naturally USD per minute of video
  // (profiling cost grows with video length; the paper reports per-minute).
  media::Encoder encoder;
  std::vector<media::EncodedVideo> minute_clips;
  for (const auto& source : media::Dataset::test_set()) {
    size_t chunks = std::min<size_t>(15, source.num_chunks());
    minute_clips.push_back(encoder.encode(source.clip(0, chunks, source.name() + "-1min")));
  }

  double pruned_cost = 0.0, full_cost = 0.0, minutes = 0.0;
  std::vector<double> pruned_srcc, full_srcc;
  uint64_t seed = 7000;
  for (const auto& clip : minute_clips) {
    crowd::Scheduler scheduler(oracle, crowd::SchedulerConfig(), seed++);
    auto pruned = scheduler.profile(clip);
    auto full = scheduler.profile_exhaustive(clip, 30);
    pruned_cost += pruned.cost_usd;
    full_cost += full.cost_usd;
    minutes += clip.source().duration_s() / 60.0;
    auto s = clip.source().true_sensitivity();
    pruned_srcc.push_back(util::spearman(pruned.weights, s));
    full_srcc.push_back(util::spearman(full.weights, s));
  }

  // End-to-end QoE with full-length profiles vs pruned profiles.
  const auto& pruned_weights = Experiments::weights();  // two-step pruned pipeline
  double qoe_pruned = achieved_qoe(pruned_weights);

  std::printf("%s", util::banner("Figure 12c: crowdsourcing cost vs QoE").c_str());
  util::Table table({"configuration", "USD per min", "weight SRCC", "QoE (Sensei-Fugu)"});
  table.add_row({"SENSEI w/ cost pruning",
                 util::Table::format_double(pruned_cost / minutes, 1),
                 util::Table::format_double(util::mean(pruned_srcc), 2),
                 util::Table::format_double(qoe_pruned, 3)});
  table.add_row({"SENSEI w/o cost pruning",
                 util::Table::format_double(full_cost / minutes, 1),
                 util::Table::format_double(util::mean(full_srcc), 2), "(upper bound)"});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("cost reduction from pruning: %.1f%% (paper: 96.7%%)\n",
              (1.0 - pruned_cost / full_cost) * 100.0);
  std::printf("pruned cost: $%.1f per 1-minute video (paper: $31.4)\n",
              pruned_cost / minutes);
  return 0;
}
