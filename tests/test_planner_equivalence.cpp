// Equivalence gate for the MPC planner: the branch-and-bound DpPlanner must
// reproduce the exhaustive recursion (the frozen oracle::ExhaustivePlanner)
// exactly — same (level, scheduled_rebuffer) decision and bit-identical
// value — across a seeded grid of observations, weights, and scenario sets,
// and whole sessions and experiment grids must stay bit-identical between
// the two at any thread count.
#include "abr/planner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "abr/fugu.h"
#include "core/experiments.h"
#include "core/runner.h"
#include "media/dataset.h"
#include "net/trace_gen.h"
#include "oracle/oracle.h"
#include "sim/player.h"
#include "util/rng.h"

namespace sensei::abr {
namespace {

class PlannerEquivalence : public ::testing::Test {
 protected:
  media::EncodedVideo video_ = media::Encoder().encode(
      media::SourceVideo::generate("PlannerEq", media::Genre::kSports, 120));
};

struct GridCase {
  sim::AbrObservation obs;
  std::vector<net::ThroughputScenario> scenarios;
  std::vector<double> rebuffer_options;
  bool use_weights = false;
  size_t horizon = 5;
  qoe::ChunkQualityParams chunk;
};

// Seeded grid spanning buffers, positions (incl. end-of-video), levels,
// scenario counts/spreads, weights, and both rebuffer-action sets, then a
// low-bandwidth band of `low_band_cases`: 100-400 kbps forecasts against
// 0-8 s of buffer, three scenarios, horizon 5. There most plans stall and
// distinct prefixes round to equal sums (fl(a + c) == fl(b + c) with a < b),
// so the band catches a search that settles such ties differently from the
// reference's left-to-right walk.
std::vector<GridCase> seeded_grid(const media::EncodedVideo& video, uint64_t seed,
                                  size_t cases_per_combo, size_t low_band_cases) {
  util::Rng rng(seed);
  std::vector<GridCase> grid;
  for (size_t horizon : {1, 2, 3, 4, 5}) {
    for (bool use_weights : {false, true}) {
      for (bool stall_actions : {false, true}) {
        for (size_t i = 0; i < cases_per_combo; ++i) {
          GridCase c;
          c.horizon = horizon;
          c.use_weights = use_weights;
          c.rebuffer_options =
              stall_actions ? std::vector<double>{0.0, 1.0, 2.0} : std::vector<double>{0.0};
          c.obs.video = &video;
          c.obs.num_chunks = video.num_chunks();
          // Bias a few cases to the tail so the chunk-exhaustion leaf fires.
          c.obs.next_chunk = rng.chance(0.25)
                                 ? video.num_chunks() - 1 - static_cast<size_t>(
                                       rng.uniform_int(0, 2))
                                 : static_cast<size_t>(rng.uniform_int(
                                       0, static_cast<int>(video.num_chunks()) - 1));
          c.obs.buffer_s = rng.uniform(0.0, 28.0);
          c.obs.last_level = static_cast<size_t>(
              rng.uniform_int(0, static_cast<int>(video.ladder().level_count()) - 1));
          size_t num_scen = rng.chance(0.5) ? 3 : 8;
          c.scenarios = net::triangular_scenarios(num_scen, rng.uniform(250.0, 6500.0),
                                       rng.uniform(0.05, 0.8));
          if (use_weights) {
            for (size_t d = 0; d < horizon; ++d)
              c.obs.future_weights.push_back(rng.uniform(0.5, 2.8));
          }
          grid.push_back(std::move(c));
        }
      }
    }
  }
  for (size_t i = 0; i < low_band_cases; ++i) {
    GridCase c;
    c.horizon = 5;
    c.use_weights = rng.chance(0.5);
    c.rebuffer_options =
        i % 2 == 1 ? std::vector<double>{0.0, 1.0, 2.0} : std::vector<double>{0.0};
    c.obs.video = &video;
    c.obs.num_chunks = video.num_chunks();
    c.obs.next_chunk = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int>(video.num_chunks()) - 6));
    c.obs.buffer_s = rng.uniform(0.0, 8.0);
    c.obs.last_level = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int>(video.ladder().level_count()) - 1));
    c.scenarios = net::triangular_scenarios(3, rng.uniform(100.0, 400.0), rng.uniform(0.05, 0.8));
    if (c.use_weights) {
      for (size_t d = 0; d < c.horizon; ++d) c.obs.future_weights.push_back(rng.uniform(0.5, 2.8));
    }
    grid.push_back(std::move(c));
  }
  return grid;
}

PlanQuery make_query(const GridCase& c) {
  PlanQuery q;
  q.obs = &c.obs;
  q.scenarios = c.scenarios.data();
  q.num_scenarios = c.scenarios.size();
  q.horizon = c.horizon;
  q.rebuffer_options = c.rebuffer_options.data();
  q.num_rebuffer_options = c.rebuffer_options.size();
  q.use_weights = c.use_weights;
  q.weight_shrinkage = 0.8;
  q.chunk = c.chunk;
  double prev_vq = c.obs.next_chunk > 0
                       ? c.obs.video->visual_quality(c.obs.next_chunk - 1, c.obs.last_level)
                       : c.obs.video->visual_quality(0, 0);
  q.prev_visual_quality = prev_vq;
  return q;
}

TEST_F(PlannerEquivalence, DpMatchesExhaustiveBitIdenticalOnSeededGrid) {
  oracle::ExhaustivePlanner reference;
  DpPlanner dp;
  auto grid = seeded_grid(video_, 0xfeed5eed, 6, 400);
  ASSERT_FALSE(grid.empty());
  for (size_t i = 0; i < grid.size(); ++i) {
    PlanQuery q = make_query(grid[i]);
    PlanResult a = reference.plan(q);
    PlanResult b = dp.plan(q);
    SCOPED_TRACE("case " + std::to_string(i) + " horizon " +
                 std::to_string(grid[i].horizon));
    EXPECT_EQ(a.best_level, b.best_level);
    EXPECT_EQ(a.best_rebuffer_s, b.best_rebuffer_s);
    EXPECT_EQ(a.best_value, b.best_value);
    EXPECT_EQ(a.nostall_level, b.nostall_level);
    EXPECT_EQ(a.nostall_value, b.nostall_value);
  }
}

// Runs every case through the oracle and the DP and requires the same
// decision and bit-identical values.
void expect_dp_matches_oracle(const std::vector<GridCase>& cases, const char* what) {
  oracle::ExhaustivePlanner reference;
  DpPlanner dp;
  for (size_t i = 0; i < cases.size(); ++i) {
    PlanQuery q = make_query(cases[i]);
    PlanResult a = reference.plan(q);
    PlanResult b = dp.plan(q);
    SCOPED_TRACE(std::string(what) + " case " + std::to_string(i));
    EXPECT_EQ(a.best_level, b.best_level);
    EXPECT_EQ(a.best_rebuffer_s, b.best_rebuffer_s);
    EXPECT_EQ(a.best_value, b.best_value);
    EXPECT_EQ(a.nostall_level, b.nostall_level);
    EXPECT_EQ(a.nostall_value, b.nostall_value);
  }
}

// The edges of DpPlanner's stall-aware bound: the buffer ceiling must add
// the largest root rebuffer option wherever it sits in the list, hold at the
// 30 s cap, follow the max(1, kbps) clamp of sub-1 kbps forecasts and skip
// nothing for zero-probability scenarios; the bound must stay admissible
// where the stall penalty vanishes (beta_rebuf = 0, the edge of pruning) or
// stops saturating (rebuf_saturation = 0), and where pruning is off
// (a negative beta_rebuf). Each family is a seeded low-to-mid band of
// forecasts against short buffers, where most plans stall.
TEST_F(PlannerEquivalence, DpMatchesExhaustiveOnStallBoundEdges) {
  util::Rng rng(0x57a11b0d);
  const size_t L = video_.ladder().level_count();
  auto base_case = [&](double buffer_s) {
    GridCase c;
    c.horizon = 5;
    c.use_weights = rng.chance(0.5);
    c.rebuffer_options = {0.0, 1.0, 2.0};
    c.obs.video = &video_;
    c.obs.num_chunks = video_.num_chunks();
    c.obs.next_chunk = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int>(video_.num_chunks()) - 6));
    c.obs.buffer_s = buffer_s;
    c.obs.last_level = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(L) - 1));
    c.scenarios = net::triangular_scenarios(3, rng.uniform(100.0, 2500.0), rng.uniform(0.05, 0.8));
    if (c.use_weights) {
      for (size_t d = 0; d < c.horizon; ++d) c.obs.future_weights.push_back(rng.uniform(0.5, 2.8));
    }
    return c;
  };
  const size_t n = 24;

  // A cheap first chunk before sensitive ones on a link that stalls: there
  // a scheduled rebuffer often wins, so a ceiling that added any option but
  // the largest would prune the winning plan.
  std::vector<GridCase> unsorted;
  for (size_t i = 0; i < 4 * n; ++i) {
    GridCase c = base_case(rng.uniform(0.0, 4.0));
    c.rebuffer_options = i % 3 == 0   ? std::vector<double>{2.0, 0.0, 1.0}
                         : i % 3 == 1 ? std::vector<double>{1.0, 2.0, 0.0}
                                      : std::vector<double>{0.0, 2.0, 1.0};
    c.use_weights = true;
    c.obs.future_weights = {0.5, 2.8, 2.8, 2.8, 2.8};
    c.scenarios = net::triangular_scenarios(3, rng.uniform(150.0, 1500.0), rng.uniform(0.05, 0.5));
    unsorted.push_back(std::move(c));
  }
  expect_dp_matches_oracle(unsorted, "unsorted rebuffer options");

  std::vector<GridCase> capped;
  for (size_t i = 0; i < n; ++i) {
    GridCase c = base_case(30.0);
    c.scenarios = net::triangular_scenarios(3, rng.uniform(100.0, 6500.0), rng.uniform(0.05, 0.8));
    capped.push_back(std::move(c));
  }
  expect_dp_matches_oracle(capped, "buffer at the 30 s cap");

  std::vector<GridCase> sub_kbps;
  for (size_t i = 0; i < n; ++i) {
    GridCase c = base_case(rng.uniform(0.0, 30.0));
    c.scenarios = {{0.25, 0.3}, {0.0, 0.2}, {rng.uniform(300.0, 3000.0), 0.5}};
    if (i % 2 == 1) c.scenarios[1].kbps = -40.0;
    sub_kbps.push_back(std::move(c));
  }
  expect_dp_matches_oracle(sub_kbps, "scenario kbps below 1");

  std::vector<GridCase> zero_prob;
  for (size_t i = 0; i < n; ++i) {
    GridCase c = base_case(rng.uniform(0.0, 8.0));
    // A slow zero-probability scenario must not tighten the bound past a
    // path it cannot affect; a fast one must not loosen it.
    c.scenarios = {{rng.uniform(80.0, 400.0), 0.0},
                   {rng.uniform(400.0, 2500.0), 1.0},
                   {rng.uniform(2500.0, 8000.0), 0.0}};
    zero_prob.push_back(std::move(c));
  }
  expect_dp_matches_oracle(zero_prob, "zero-probability scenarios");

  std::vector<GridCase> penalty_edges;
  for (size_t i = 0; i < 3 * n; ++i) {
    GridCase c = base_case(rng.uniform(0.0, 8.0));
    if (i % 3 == 0) c.chunk.beta_rebuf = 0.0;
    if (i % 3 == 1) c.chunk.rebuf_saturation = 0.0;
    if (i % 3 == 2) c.chunk.beta_rebuf = -0.5;  // pruning off
    penalty_edges.push_back(std::move(c));
  }
  expect_dp_matches_oracle(penalty_edges, "stall penalty edges");

  // The low-band tie grid of seeded_grid, with weights and three rebuffer
  // options on every case (SENSEI-Fugu's production setting).
  std::vector<GridCase> low_band;
  for (size_t i = 0; i < 4 * n; ++i) {
    GridCase c = base_case(rng.uniform(0.0, 8.0));
    c.use_weights = true;
    c.obs.future_weights.clear();
    for (size_t d = 0; d < c.horizon; ++d) c.obs.future_weights.push_back(rng.uniform(0.5, 2.8));
    c.scenarios = net::triangular_scenarios(3, rng.uniform(100.0, 400.0), rng.uniform(0.05, 0.8));
    low_band.push_back(std::move(c));
  }
  expect_dp_matches_oracle(low_band, "weighted low band");
}

// The search's work on the seeded grid, as a deterministic number: a change
// to DpPlanner's bound or incumbent seeds moves this pin, and the change
// records the old and new count. The stall-free bound that the stall-aware
// one replaced expanded 1,444,052 nodes here.
TEST_F(PlannerEquivalence, DpNodesExpandedPinnedOnSeededGrid) {
  DpPlanner dp;
  auto grid = seeded_grid(video_, 0xfeed5eed, 6, 400);
  EXPECT_EQ(dp.nodes_expanded(), 0u);
  for (const GridCase& c : grid) {
    PlanQuery q = make_query(c);
    dp.plan(q);
  }
  EXPECT_EQ(dp.nodes_expanded(), 280058u);
}

TEST_F(PlannerEquivalence, DpRejectsBufferQuantum) {
  // The exact planner has no buffer quantum; bucketed planning is vi's. A
  // nonzero quantum is refused, naming the planner that takes one.
  for (double quantum : {0.25, 1.0, 2.0}) {
    try {
      make_planner(PlannerKind::kDp, quantum);
      ADD_FAILURE() << "make_planner(kDp, " << quantum << ") did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("planner=vi"), std::string::npos) << e.what();
    }
    EXPECT_NE(make_planner(PlannerKind::kVi, quantum), nullptr);
  }
  EXPECT_NE(make_planner(PlannerKind::kDp, 0.0), nullptr);
}

TEST_F(PlannerEquivalence, DpValueMonotonicInInitialBuffer) {
  // More starting buffer can only help: the optimal lookahead value must be
  // nondecreasing in the observed buffer level, all else equal.
  DpPlanner dp;
  util::Rng rng(0xb0ffe4);
  for (size_t trial = 0; trial < 20; ++trial) {
    GridCase c;
    c.horizon = 5;
    c.rebuffer_options = std::vector<double>{0.0, 1.0, 2.0};
    c.obs.video = &video_;
    c.obs.num_chunks = video_.num_chunks();
    c.obs.next_chunk = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int>(video_.num_chunks()) - 6));
    c.obs.last_level = static_cast<size_t>(rng.uniform_int(0, 4));
    c.scenarios = net::triangular_scenarios(5, rng.uniform(300.0, 5000.0), rng.uniform(0.1, 0.7));
    double prev = -1e18;
    for (double buffer = 0.0; buffer <= 24.0; buffer += 2.0) {
      c.obs.buffer_s = buffer;
      PlanQuery q = make_query(c);
      double value = dp.plan(q).best_value;
      EXPECT_GE(value, prev - 1e-12) << "buffer " << buffer << " trial " << trial;
      prev = value;
    }
  }
}

TEST_F(PlannerEquivalence, SteadyStateHotPathStopsAllocating) {
  DpPlanner dp;
  GridCase c;
  c.horizon = 5;
  c.rebuffer_options = std::vector<double>{0.0, 1.0, 2.0};
  c.use_weights = true;
  c.obs.video = &video_;
  c.obs.num_chunks = video_.num_chunks();
  c.obs.next_chunk = 3;
  c.obs.buffer_s = 7.5;
  c.obs.last_level = 2;
  c.obs.future_weights = {1.4, 0.8, 2.1, 1.0, 0.6};
  c.scenarios = net::triangular_scenarios(8, 2400.0, 0.4);
  // One pass over the observation sweep reaches the arena's high-water
  // mark; a second identical pass must not allocate another byte.
  auto sweep = [&] {
    for (int i = 0; i < 50; ++i) {
      c.obs.buffer_s = 0.5 * static_cast<double>(i % 40);
      c.obs.next_chunk = static_cast<size_t>(i % 20);
      PlanQuery q = make_query(c);
      dp.plan(q);
    }
  };
  sweep();
  size_t warm = dp.arena_bytes();
  sweep();
  EXPECT_EQ(dp.arena_bytes(), warm);
}

TEST_F(PlannerEquivalence, FullSessionsIdenticalAcrossPlanners) {
  auto traces = std::vector<net::ThroughputTrace>{
      net::TraceGenerator::cellular("cell", 1200, 600.0, 5),
      net::TraceGenerator::broadband("bb", 2600, 600.0, 9),
  };
  std::vector<double> weights(video_.num_chunks(), 0.8);
  for (size_t i = 10; i < 16 && i < weights.size(); ++i) weights[i] = 2.4;

  for (bool sensei_mode : {false, true}) {
    for (const auto& trace : traces) {
      FuguConfig cfg;
      cfg.use_weights = sensei_mode;
      if (sensei_mode) cfg.rebuffer_options = std::vector<double>{0.0, 1.0, 2.0};
      cfg.planner = PlannerKind::kDp;
      FuguAbr dp_abr(cfg);
      FuguAbr ex_abr(cfg, std::make_unique<oracle::ExhaustivePlanner>());
      sim::Player player;
      auto s_dp = player.stream(video_, trace, dp_abr, sensei_mode ? weights : std::vector<double>{});
      auto s_ex = player.stream(video_, trace, ex_abr, sensei_mode ? weights : std::vector<double>{});
      ASSERT_EQ(s_dp.chunks().size(), s_ex.chunks().size());
      for (size_t i = 0; i < s_dp.chunks().size(); ++i) {
        const auto& a = s_dp.chunks()[i];
        const auto& b = s_ex.chunks()[i];
        EXPECT_EQ(a.level, b.level) << "chunk " << i;
        EXPECT_EQ(a.scheduled_rebuffer_s, b.scheduled_rebuffer_s) << "chunk " << i;
        EXPECT_EQ(a.rebuffer_s, b.rebuffer_s) << "chunk " << i;
        EXPECT_EQ(a.buffer_after_s, b.buffer_after_s) << "chunk " << i;
        EXPECT_EQ(a.download_time_s, b.download_time_s) << "chunk " << i;
      }
    }
  }
}

// ExperimentRunner grids must be bit-identical between the DP and the
// exhaustive oracle, and across thread counts — the end-to-end determinism
// contract the figure benches rely on.
TEST(PlannerGridDeterminism, GridBitIdenticalAcrossPlannersAndThreads) {
  std::vector<media::EncodedVideo> videos;
  videos.push_back(media::Encoder().encode(
      media::SourceVideo::generate("GridEqA", media::Genre::kNature, 120)));
  videos.push_back(media::Encoder().encode(
      media::SourceVideo::generate("GridEqB", media::Genre::kGaming, 120)));
  std::vector<net::ThroughputTrace> traces = {
      net::TraceGenerator::cellular("cellA", 900, 600.0, 3),
      net::TraceGenerator::broadband("bbB", 3000, 600.0, 4),
  };
  std::vector<std::vector<double>> weights;
  for (const auto& v : videos) {
    std::vector<double> w(v.num_chunks(), 1.0);
    for (size_t i = 5; i < w.size(); i += 7) w[i] = 2.2;
    weights.push_back(std::move(w));
  }

  // SENSEI-Fugu as the registry builds it, on the DP or on the oracle.
  auto make = [](bool exhaustive) -> std::unique_ptr<sim::AbrPolicy> {
    auto dp = core::Sensei::make_sensei_fugu({});
    if (!exhaustive) return dp;
    return std::make_unique<FuguAbr>(dp->config(),
                                     std::make_unique<oracle::ExhaustivePlanner>());
  };
  auto run = [&](bool exhaustive, size_t threads) {
    core::ExperimentRunner runner(threads);
    return core::Experiments::run_grid(
        videos, traces, [&make, exhaustive] { return make(exhaustive); }, weights, runner);
  };

  auto base = run(true, 1);
  for (bool exhaustive : {true, false}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      auto got = run(exhaustive, threads);
      ASSERT_EQ(got.size(), base.size());
      for (size_t i = 0; i < base.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i) + " threads " + std::to_string(threads));
        EXPECT_EQ(got[i].true_qoe, base[i].true_qoe);
        ASSERT_EQ(got[i].session.chunks().size(), base[i].session.chunks().size());
        for (size_t j = 0; j < base[i].session.chunks().size(); ++j) {
          EXPECT_EQ(got[i].session.chunks()[j].level, base[i].session.chunks()[j].level);
          EXPECT_EQ(got[i].session.chunks()[j].rebuffer_s,
                    base[i].session.chunks()[j].rebuffer_s);
          EXPECT_EQ(got[i].session.chunks()[j].scheduled_rebuffer_s,
                    base[i].session.chunks()[j].scheduled_rebuffer_s);
        }
      }
    }
  }
}

// Degenerate queries — an empty lookahead (horizon 0), an empty forecast
// (no scenarios), an empty action set (no rebuffer options), or a position
// at/past the end of the video — must produce the same benign no-op plan
// from every planner: hold the last level (clamped into the ladder), no
// scheduled stall, zero value. A -1e18 "no leaf found" sentinel leaking out
// of any of these was the original bug this pins.
TEST_F(PlannerEquivalence, DegenerateQueriesNoOpAcrossAllPlanners) {
  oracle::ExhaustivePlanner exhaustive;
  DpPlanner dp;
  ViPlanner vi;
  Planner* planners[] = {&exhaustive, &dp, &vi};

  auto scenarios = net::triangular_scenarios(3, 1800.0, 0.3);
  const std::vector<double> rebuf = {0.0, 1.0, 2.0};
  const size_t L = video_.ladder().level_count();

  struct Degenerate {
    const char* what;
    size_t horizon;
    size_t num_scenarios;
    size_t num_rebuf;
    size_t next_chunk;
    size_t last_level;
  };
  const Degenerate cases[] = {
      {"horizon 0", 0, 3, 3, 4, 2},
      {"no scenarios", 5, 0, 3, 4, 2},
      {"no rebuffer options", 5, 3, 0, 4, 2},
      {"past end of video", 5, 3, 3, video_.num_chunks(), 2},
      {"level clamp", 0, 3, 3, 4, L + 7},
  };
  for (const auto& c : cases) {
    sim::AbrObservation obs;
    obs.video = &video_;
    obs.num_chunks = video_.num_chunks();
    obs.next_chunk = c.next_chunk;
    obs.buffer_s = 12.0;
    obs.last_level = c.last_level;

    PlanQuery q;
    q.obs = &obs;
    q.scenarios = scenarios.data();
    q.num_scenarios = c.num_scenarios;
    q.horizon = c.horizon;
    q.rebuffer_options = rebuf.data();
    q.num_rebuffer_options = c.num_rebuf;
    q.use_weights = false;
    q.prev_visual_quality = video_.visual_quality(0, 0);

    const size_t expected_level = std::min(c.last_level, L - 1);
    for (Planner* p : planners) {
      SCOPED_TRACE(c.what);
      PlanResult r = p->plan(q);
      EXPECT_EQ(r.best_level, expected_level);
      EXPECT_EQ(r.nostall_level, expected_level);
      EXPECT_DOUBLE_EQ(r.best_rebuffer_s, 0.0);
      EXPECT_DOUBLE_EQ(r.best_value, 0.0);
      EXPECT_DOUBLE_EQ(r.nostall_value, 0.0);
    }
  }
}

// The shared bucketing helper is the single point where every planner's
// buffer discretization happens; its edge behavior (signed zero, negatives,
// NaN, half-bucket edges) is what keeps quantized state keys from splitting
// identical states across platforms.
TEST(BufferBucket, EdgeCases) {
  // Everything at or below zero collapses to bucket 0 — including -0.0 and
  // NaN (the !(x > 0) form is deliberate).
  EXPECT_EQ(buffer_bucket(0.0, 0.25), 0u);
  EXPECT_EQ(buffer_bucket(-0.0, 0.25), 0u);
  EXPECT_EQ(buffer_bucket(-3.7, 0.25), 0u);
  EXPECT_EQ(buffer_bucket(std::nan(""), 0.25), 0u);

  // Round-half-away-from-zero (llround), not floor/truncation: 0.124 of a
  // 0.25 bucket rounds down, 0.126 rounds up, and the 0.125 edge goes up.
  EXPECT_EQ(buffer_bucket(0.124, 0.25), 0u);
  EXPECT_EQ(buffer_bucket(0.125, 0.25), 1u);
  EXPECT_EQ(buffer_bucket(0.126, 0.25), 1u);
  EXPECT_EQ(buffer_bucket(0.374, 0.25), 1u);
  EXPECT_EQ(buffer_bucket(0.376, 0.25), 2u);

  // Exact multiples land on their own bucket at any quantum.
  for (double quantum : {0.25, 0.5, 2.0}) {
    for (uint64_t k = 1; k <= 120; ++k) {
      EXPECT_EQ(buffer_bucket(static_cast<double>(k) * quantum, quantum), k)
          << "k=" << k << " quantum=" << quantum;
    }
  }
}

// buffer_bucket rounds inline instead of calling std::llround; it must
// still equal llround(b / q) on every positive input. A seeded sweep over
// the buffer range covers the common path. The edges are where a floor or a
// bare truncation would split a bucket: the exact half points (k + 0.5) * q
// and their nextafter neighbours, and the largest double below one half.
// Ratios at and past 2^63 (1e300, +inf, the neighbours of 2^63 itself)
// exercise the switch to the llround fallback.
TEST(BufferBucket, MatchesLlroundAcrossQuanta) {
  const double inf = std::numeric_limits<double>::infinity();
  util::Rng rng(0xb0c4e7);
  for (double q : {1e-3, 0.25, 0.3, 1.5, 2.0, 16.0}) {
    std::vector<double> inputs;
    for (int i = 0; i < 20000; ++i) inputs.push_back(rng.uniform(0.0, 30.0));
    for (uint64_t k = 0; (static_cast<double>(k) + 0.5) * q <= 30.0; ++k) {
      const double half = (static_cast<double>(k) + 0.5) * q;
      inputs.push_back(half);
      inputs.push_back(std::nextafter(half, 0.0));
      inputs.push_back(std::nextafter(half, inf));
    }
    inputs.push_back(0.49999999999999994 * q);
    inputs.push_back(std::nextafter(0x1p63, 0.0) * q);
    inputs.push_back(0x1p63 * q);
    inputs.push_back(1e300);
    inputs.push_back(inf);
    for (double b : inputs) {
      if (!(b > 0.0)) continue;  // the floor bucket is EdgeCases' job
      ASSERT_EQ(buffer_bucket(b, q), static_cast<uint64_t>(std::llround(b / q)))
          << "b=" << b << " q=" << q;
    }
  }
}

// quantize_kbps defines the vi tail's forecast bins (and so the PlanBatch
// table key). It must be idempotent, monotone non-decreasing, and clamp the
// degenerate low end to 1 kbps.
TEST(QuantizeKbps, BinSanity) {
  // The sub-1 range collapses to the 1 kbps fixed point.
  EXPECT_DOUBLE_EQ(quantize_kbps(0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantize_kbps(-50.0), 1.0);
  EXPECT_DOUBLE_EQ(quantize_kbps(1.0), 1.0);

  double prev = 0.0;
  for (double k = 1.0; k < 50000.0; k *= 1.07) {
    const double b = quantize_kbps(k);
    // Idempotent: a bin center maps to itself.
    EXPECT_DOUBLE_EQ(quantize_kbps(b), b) << "k=" << k;
    // Monotone non-decreasing in the input.
    EXPECT_GE(b, prev) << "k=" << k;
    // Relative error bounded by half a bin in log space.
    const double half_bin = std::exp2(0.5 / kViKbpsBinsPerOctave);
    EXPECT_LE(b / k, half_bin) << "k=" << k;
    EXPECT_GE(b / k, 1.0 / half_bin) << "k=" << k;
    prev = b;
  }
}

}  // namespace
}  // namespace sensei::abr
