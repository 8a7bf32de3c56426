// Figure 15: QoE prediction accuracy (PLCC/SRCC + scatter summary) of
// SENSEI's QoE model vs KSQI, LSTM-QoE and P.1203 on randomized renderings.
// Paper: SENSEI PLCC 0.85 / SRCC 0.84; baselines at or below 0.76 / 0.73.
#include <cstdio>

#include "bench_util.h"
#include "core/experiments.h"
#include "qoe/ksqi.h"
#include "qoe/lstm_qoe.h"
#include "qoe/metrics.h"
#include "qoe/p1203.h"
#include "qoe/sensei_qoe.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace sensei;
using core::Experiments;

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {}, {}, "bench_fig15_prediction");
  const auto& videos = Experiments::videos();
  const auto& oracle = Experiments::oracle();
  const auto& weights = Experiments::weights();

  // §7.3 protocol: per rendering, random bitrate per chunk plus a random
  // startup stall; 640 renderings split 400 train / 240 test.
  util::Rng rng(1503);
  std::vector<sim::RenderedVideo> renderings;
  std::vector<double> mos;
  std::vector<size_t> video_of;
  crowd::RaterPool raters(crowd::RaterConfig(), 88);
  const size_t total = 640;
  for (size_t i = 0; i < total; ++i) {
    size_t v = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(videos.size()) - 1));
    const auto& video = videos[v];
    std::vector<sim::RenderedChunk> chunks;
    for (size_t c = 0; c < video.num_chunks(); ++c) {
      size_t level = static_cast<size_t>(rng.uniform_int(0, 4));
      const auto& rep = video.rep(c, level);
      double stall = rng.chance(0.06) ? rng.uniform(0.5, 3.0) : 0.0;
      chunks.push_back({level, rep.bitrate_kbps, rep.visual_quality, stall});
    }
    sim::RenderedVideo rendered("rand-" + std::to_string(i), video.chunk_duration_s(),
                                std::move(chunks), video.source().chunks(),
                                rng.uniform_int(0, 2));
    double truth = oracle.score(rendered);
    double stars = 0.0;
    for (int k = 0; k < 12; ++k) {
      auto rater = raters.recruit();
      stars += raters.rate(rater, truth).stars;
    }
    renderings.push_back(std::move(rendered));
    mos.push_back(crowd::RaterPool::stars_to_unit(stars / 12.0));
    video_of.push_back(v);
  }

  const size_t train_n = 400;
  std::vector<sim::RenderedVideo> train(renderings.begin(),
                                        renderings.begin() + train_n);
  std::vector<double> train_mos(mos.begin(), mos.begin() + train_n);

  qoe::KsqiModel ksqi;
  qoe::P1203Model p1203;
  qoe::LstmQoeModel lstm(12, 30, 0.01, 27);
  ksqi.train(train, train_mos);
  p1203.train(train, train_mos);
  lstm.train(train, train_mos);

  std::vector<double> pred_sensei, pred_ksqi, pred_lstm, pred_p1203, truth;
  for (size_t i = train_n; i < total; ++i) {
    qoe::SenseiQoeModel sensei(weights[video_of[i]]);
    sensei.train(train, train_mos);
    pred_sensei.push_back(sensei.predict(renderings[i]));
    pred_ksqi.push_back(ksqi.predict(renderings[i]));
    pred_lstm.push_back(lstm.predict(renderings[i]));
    pred_p1203.push_back(p1203.predict(renderings[i]));
    truth.push_back(mos[i]);
  }

  std::printf("%s", util::banner(
                        "Figure 15: QoE prediction accuracy on 240 held-out renderings")
                        .c_str());
  util::Table table({"model", "PLCC", "SRCC", "RMSE"});
  auto add = [&](const char* name, const std::vector<double>& pred) {
    table.add_row({name, util::Table::format_double(util::pearson(pred, truth), 2),
                   util::Table::format_double(util::spearman(pred, truth), 2),
                   util::Table::format_double(util::rmse(pred, truth), 3)});
  };
  add("(a) SENSEI", pred_sensei);
  add("(b) KSQI", pred_ksqi);
  add("(c) LSTM-QoE", pred_lstm);
  add("(d) P.1203", pred_p1203);
  std::printf("%s", table.to_string().c_str());
  std::printf("\n(paper: SENSEI 0.85/0.84; KSQI 0.76/0.73; LSTM-QoE 0.60/0.63; "
              "P.1203 0.62/0.67)\n");
  return 0;
}
