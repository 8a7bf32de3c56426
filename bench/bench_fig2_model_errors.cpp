// Figure 2: QoE prediction error (x-axis) and fraction of discordant ABR
// pairs (y-axis) for the baseline QoE models vs SENSEI.
//
// Reproduces §2.2's protocol: 16 videos x 7 traces x 3 ABR algorithms =
// 336 rendered sessions, ground-truth MOS crowdsourced per rendering, models
// trained on one split and evaluated on the other.
#include <cstdio>

#include "abr/bba.h"
#include "bench_util.h"
#include "core/experiments.h"
#include "qoe/ksqi.h"
#include "qoe/lstm_qoe.h"
#include "qoe/metrics.h"
#include "qoe/p1203.h"
#include "qoe/sensei_qoe.h"
#include "util/stats.h"

using namespace sensei;
using core::Experiments;

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {}, {}, "bench_fig2_model_errors");
  const auto& videos = Experiments::videos();
  const auto& oracle = Experiments::oracle();
  const auto& weights = Experiments::weights();
  auto traces = net::TraceGenerator::motivation_set();

  // --- Render 336 sessions (16 videos x 7 traces x 3 ABRs). ---
  abr::BbaAbr bba;
  auto fugu = core::Sensei::make_fugu();
  auto& pensieve = Experiments::pensieve();
  std::vector<sim::AbrPolicy*> abrs = {&bba, fugu.get(), &pensieve};

  struct Cell {
    size_t video;
    std::vector<sim::RenderedVideo> renderings;  // one per ABR
    std::vector<double> mos;
  };
  std::vector<Cell> cells;
  sim::Player player;
  crowd::RaterPool raters(crowd::RaterConfig(), 77);
  for (size_t v = 0; v < videos.size(); ++v) {
    for (const auto& trace : traces) {
      Cell cell;
      cell.video = v;
      for (auto* abr : abrs) {
        auto session = player.stream(videos[v], trace, *abr);
        cell.renderings.push_back(session.to_rendered(videos[v]));
      }
      // Ground-truth MOS: mean of 30 simulated ratings per rendering.
      for (const auto& r : cell.renderings) {
        double truth = oracle.score(r);
        double stars = 0.0;
        for (int k = 0; k < 30; ++k) {
          auto rater = raters.recruit();
          stars += raters.rate(rater, truth).stars;
        }
        cell.mos.push_back(crowd::RaterPool::stars_to_unit(stars / 30.0));
      }
      cells.push_back(std::move(cell));
    }
  }

  // --- Train/test split over flattened renderings (paper: 315/21). ---
  std::vector<sim::RenderedVideo> all_videos;
  std::vector<double> all_mos;
  std::vector<std::vector<double>> all_weights;
  for (const auto& cell : cells) {
    for (size_t a = 0; a < cell.renderings.size(); ++a) {
      all_videos.push_back(cell.renderings[a]);
      all_mos.push_back(cell.mos[a]);
      all_weights.push_back(weights[cell.video]);
    }
  }
  const size_t n = all_videos.size();
  const size_t test_start = n - n / 16;  // hold out ~6% as in the paper (21/336)
  std::vector<sim::RenderedVideo> train(all_videos.begin(),
                                        all_videos.begin() + static_cast<long>(test_start));
  std::vector<double> train_mos(all_mos.begin(),
                                all_mos.begin() + static_cast<long>(test_start));
  std::vector<sim::RenderedVideo> test(all_videos.begin() + static_cast<long>(test_start),
                                       all_videos.end());
  std::vector<double> test_mos(all_mos.begin() + static_cast<long>(test_start),
                               all_mos.end());

  // --- Models. SENSEI uses each test rendering's own per-video weights. ---
  qoe::KsqiModel ksqi;
  qoe::P1203Model p1203;
  qoe::LstmQoeModel lstm(12, 30, 0.01, 26);
  ksqi.train(train, train_mos);
  p1203.train(train, train_mos);
  lstm.train(train, train_mos);

  auto sensei_predict = [&](const sim::RenderedVideo& v, size_t flat_index) {
    qoe::SenseiQoeModel model(all_weights[flat_index]);
    model.train(train, train_mos);  // affine calibration shared across videos
    return model.predict(v);
  };

  struct Row {
    std::string name;
    std::vector<double> pred_test;
    std::vector<std::vector<double>> pred_cells;  // per cell, per ABR
  };
  std::vector<Row> rows(4);
  rows[0].name = "SENSEI";
  rows[1].name = "KSQI";
  rows[2].name = "LSTM-QoE";
  rows[3].name = "P.1203";

  for (size_t i = test_start; i < n; ++i) {
    rows[0].pred_test.push_back(sensei_predict(all_videos[i], i));
    rows[1].pred_test.push_back(ksqi.predict(all_videos[i]));
    rows[2].pred_test.push_back(lstm.predict(all_videos[i]));
    rows[3].pred_test.push_back(p1203.predict(all_videos[i]));
  }
  // Discordant ABR pairs evaluated over all cells.
  std::vector<std::vector<qoe::AbrRankingCell>> ranking(4);
  for (size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    qoe::AbrRankingCell rc_sensei, rc_ksqi, rc_lstm, rc_p1203;
    for (size_t a = 0; a < cell.renderings.size(); ++a) {
      size_t flat = c * 3 + a;
      rc_sensei.true_qoe.push_back(cell.mos[a]);
      rc_ksqi.true_qoe.push_back(cell.mos[a]);
      rc_lstm.true_qoe.push_back(cell.mos[a]);
      rc_p1203.true_qoe.push_back(cell.mos[a]);
      rc_sensei.predicted_qoe.push_back(sensei_predict(cell.renderings[a], flat));
      rc_ksqi.predicted_qoe.push_back(ksqi.predict(cell.renderings[a]));
      rc_lstm.predicted_qoe.push_back(lstm.predict(cell.renderings[a]));
      rc_p1203.predicted_qoe.push_back(p1203.predict(cell.renderings[a]));
    }
    ranking[0].push_back(rc_sensei);
    ranking[1].push_back(rc_ksqi);
    ranking[2].push_back(rc_lstm);
    ranking[3].push_back(rc_p1203);
  }

  std::printf("%s", util::banner(
                        "Figure 2: QoE prediction error vs discordant ABR pairs "
                        "(336 rendered sessions)")
                        .c_str());
  util::Table table({"model", "relative error %", "discordant pairs %"});
  for (size_t m = 0; m < rows.size(); ++m) {
    double err = util::mean_relative_error(rows[m].pred_test, test_mos) * 100.0;
    double disc = qoe::discordant_pair_fraction(ranking[m]) * 100.0;
    table.add_row({rows[m].name, util::Table::format_double(err, 1),
                   util::Table::format_double(disc, 1)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\n(paper: SENSEI sits closest to the origin; even the best baseline has "
      ">10%% error and >10%% discordant pairs)\n");
  return 0;
}
