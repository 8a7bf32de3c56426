// Figure 17: QoE under increasing throughput variance — Gaussian noise of
// growing standard deviation added to one trace. Paper: SENSEI's QoE
// degrades with variance but keeps a clear gain over its base ABR.
// An appendix sweep over the weight-horizon h backs §5.1's choice of h = 5.
#include <cstdio>

#include "bench_util.h"
#include "core/experiments.h"
#include "util/stats.h"
#include "util/table.h"

using namespace sensei;
using core::Experiments;

namespace {

double mean_qoe(sim::AbrPolicy& policy, const net::ThroughputTrace& trace,
                bool use_weights) {
  const auto& videos = Experiments::videos();
  const auto& weights = Experiments::weights();
  const std::vector<double> none;
  util::Accumulator acc;
  for (size_t v = 0; v < videos.size(); ++v) {
    acc.add(Experiments::run(videos[v], trace, policy, use_weights ? weights[v] : none)
                .true_qoe);
  }
  return acc.mean();
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {}, {}, "bench_fig17_variance");
  net::ThroughputTrace base = Experiments::traces()[5];  // ~2 Mbps cellular

  auto fugu = core::Sensei::make_fugu();
  auto sensei_fugu = core::Sensei::make_sensei_fugu();
  auto& pensieve = Experiments::pensieve();
  auto& sensei_pensieve = Experiments::sensei_pensieve();

  std::printf("%s", util::banner("Figure 17: QoE under increasing bandwidth variance")
                        .c_str());
  util::Table table({"added noise sd (Kbps)", "Sensei-Fugu", "Fugu", "Sensei-Pensieve",
                     "Pensieve"});
  for (double sigma : {0.0, 300.0, 600.0, 900.0, 1200.0, 1500.0}) {
    auto trace = sigma > 0 ? base.with_noise(sigma, 1700 + static_cast<uint64_t>(sigma))
                           : base;
    table.add_row(std::vector<double>{sigma, mean_qoe(*sensei_fugu, trace, true),
                                      mean_qoe(*fugu, trace, false),
                                      mean_qoe(sensei_pensieve, trace, true),
                                      mean_qoe(pensieve, trace, false)},
                  3);
  }
  std::printf("%s\n", table.to_string().c_str());

  // Appendix: weight-horizon sweep (paper: QoE gains flatten beyond h = 4).
  std::printf("%s", util::banner("Horizon ablation: QoE vs weight horizon h").c_str());
  util::Table horizon_table({"h", "Sensei-Fugu QoE"});
  for (size_t h : {1, 2, 3, 4, 5, 6}) {
    abr::FuguConfig cfg;
    cfg.use_weights = true;
    cfg.rebuffer_options = {0.0, 1.0, 2.0};
    cfg.horizon = h;
    abr::FuguAbr policy(cfg);
    sim::PlayerConfig player_cfg;
    player_cfg.weight_horizon = h;
    const auto& videos = Experiments::videos();
    const auto& weights = Experiments::weights();
    sim::Player player(player_cfg);
    util::Accumulator acc;
    for (size_t v = 0; v < videos.size(); v += 2) {
      auto session = player.stream(videos[v], base, policy, weights[v]);
      acc.add(Experiments::oracle().score(session.to_rendered(videos[v])));
    }
    horizon_table.add_row(std::vector<double>{static_cast<double>(h), acc.mean()}, 3);
  }
  std::printf("%s", horizon_table.to_string().c_str());
  std::printf("\n(paper: gains flatten beyond a horizon of 4; h=5 is the default)\n");
  return 0;
}
