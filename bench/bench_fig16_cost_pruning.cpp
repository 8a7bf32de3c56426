// Figure 16: QoE-model accuracy (PLCC of inferred weights' model vs held-out
// MOS) as the scheduler's cost knobs are tightened: (a) bitrate levels B,
// (b) rebuffering levels F, (c) raters per video M, (d) filtering threshold
// alpha. Paper: each knob can be reduced to its "sweet spot" with <3%
// accuracy loss while cutting cost dramatically.
//
// Section 2 reproduces the §4.1 sanity check: MTurk-style MOS vs dense
// ("in-lab") rating agreement within a few percent.
#include <cstdio>

#include "bench_util.h"
#include "crowd/scheduler.h"
#include "media/dataset.h"
#include "qoe/sensei_qoe.h"
#include "util/stats.h"

using namespace sensei;

namespace {

struct SweepResult {
  double cost_usd = 0.0;
  double plcc = 0.0;
};

// Profiles the probe videos under `config`, then measures how well the
// resulting weighted model predicts held-out MOS of a mixed-incident series.
SweepResult evaluate(const crowd::SchedulerConfig& config, uint64_t seed) {
  crowd::GroundTruthQoE oracle;
  media::Encoder encoder;
  SweepResult out;
  std::vector<double> pred, truth;
  for (const char* name : {"Soccer1", "Tank", "Space"}) {
    auto source = media::Dataset::by_name(name);
    auto clip = encoder.encode(source.clip(0, 15, std::string(name) + "-probe"));
    crowd::Scheduler scheduler(oracle, config, seed++);
    auto profile = scheduler.profile(clip);
    out.cost_usd += profile.cost_usd;

    qoe::SenseiQoeModel model(profile.weights);
    auto holdout = sim::rebuffer_series(clip, 2.0);
    auto drops = sim::bitrate_drop_series(clip, 1, 2);
    holdout.insert(holdout.end(), drops.begin(), drops.end());
    for (const auto& v : holdout) {
      pred.push_back(model.predict(v));
      truth.push_back(oracle.score(v));
    }
  }
  out.plcc = util::pearson(pred, truth);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {}, {}, "bench_fig16_cost_pruning");
  std::printf("%s", util::banner("Figure 16: QoE model accuracy vs crowdsourcing cost")
                        .c_str());

  util::Table a({"(a) bitrate levels B", "cost USD", "PLCC"});
  for (size_t b : {1, 2, 4}) {
    crowd::SchedulerConfig cfg;
    cfg.bitrate_levels = b;
    auto r = evaluate(cfg, 160 + b);
    a.add_row({std::to_string(b), util::Table::format_double(r.cost_usd, 0),
               util::Table::format_double(r.plcc, 2)});
  }
  std::printf("%s\n", a.to_string().c_str());

  util::Table f({"(b) rebuffering levels F", "cost USD", "PLCC"});
  for (size_t fl : {1, 2, 4}) {
    crowd::SchedulerConfig cfg;
    cfg.rebuffer_levels = fl;
    auto r = evaluate(cfg, 170 + fl);
    f.add_row({std::to_string(fl), util::Table::format_double(r.cost_usd, 0),
               util::Table::format_double(r.plcc, 2)});
  }
  std::printf("%s\n", f.to_string().c_str());

  util::Table m({"(c) raters per video M1+M2", "cost USD", "PLCC"});
  for (size_t raters : {5, 10, 20, 30}) {
    crowd::SchedulerConfig cfg;
    cfg.m1 = raters;
    cfg.m2 = raters / 2;
    auto r = evaluate(cfg, 180 + raters);
    m.add_row({std::to_string(raters), util::Table::format_double(r.cost_usd, 0),
               util::Table::format_double(r.plcc, 2)});
  }
  std::printf("%s\n", m.to_string().c_str());

  util::Table al({"(d) filtering threshold alpha", "cost USD", "PLCC"});
  for (double alpha : {0.0, 0.06, 0.15, 0.3}) {
    crowd::SchedulerConfig cfg;
    cfg.alpha = alpha;
    auto r = evaluate(cfg, 190 + static_cast<uint64_t>(alpha * 100));
    al.add_row({util::Table::format_double(alpha, 2),
                util::Table::format_double(r.cost_usd, 0),
                util::Table::format_double(r.plcc, 2)});
  }
  std::printf("%s\n", al.to_string().c_str());

  // --- §4.1 sanity check: sparse crowdsourced MOS vs dense "in-lab" MOS. ---
  crowd::GroundTruthQoE oracle;
  media::Encoder encoder;
  auto clip = encoder.encode(media::Dataset::soccer1_clip());
  auto series = sim::rebuffer_series(clip, 1.0);
  auto mturk = bench::crowdsourced_mos(oracle, clip, series, 30, 901);
  auto inlab = bench::crowdsourced_mos(oracle, clip, series, 150, 902);
  double diff = 0.0;
  for (size_t i = 0; i < mturk.size(); ++i) {
    diff += std::abs(mturk[i] - inlab[i]) / std::max(0.05, inlab[i]);
  }
  std::printf("MTurk-style vs dense in-lab-style MOS: mean relative difference %.1f%% "
              "(paper: <3%%)\n",
              diff / mturk.size() * 100.0);
  return 0;
}
