// Planner identity bench: the exact DP against the frozen exhaustive
// reference, and the discretized-VI planner's decision divergence, swept
// over the horizon. Emits machine-readable BENCH_planner.json (schema in
// bench/README.md); CI diffs it against the pinned copy at the repo root.
//
//   ./bench_planner                 sweep horizons 1..7
//   ./bench_planner --out FILE      JSON destination (default BENCH_planner.json)
//
// The workload mirrors SENSEI-Fugu's production configuration: the default
// 5-level ladder, 8 throughput scenarios, scheduled-rebuffer options
// {0,1,2} s, sensitivity weights on. DP decisions are checked against the
// exhaustive reference (the frozen oracle::ExhaustivePlanner, linked from
// the test oracle library); any mismatch fails the process. The DP's nodes
// expanded per decision (DpPlanner::nodes_expanded) show how well its bound
// prunes, as a deterministic number. The vi planner is lossy by design: its
// decision divergence is counted and reported, never fatal. Planner speed
// is perfbench's job (perfbench/README.md).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "abr/planner.h"
#include "bench_util.h"
#include "media/dataset.h"
#include "oracle/oracle.h"
#include "util/rng.h"

using namespace sensei;

namespace {

struct ObsCase {
  sim::AbrObservation obs;
  std::vector<net::ThroughputScenario> scenarios;
};

// Seeded observation set: buffers, positions, levels, and sensitivity
// weights spread across their realistic ranges.
std::vector<ObsCase> make_cases(const media::EncodedVideo& video, size_t count,
                                size_t num_scenarios, size_t max_horizon, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ObsCase> cases(count);
  for (auto& c : cases) {
    c.obs.video = &video;
    c.obs.num_chunks = video.num_chunks();
    c.obs.next_chunk = static_cast<size_t>(rng.uniform_int(
        0, static_cast<int>(video.num_chunks() - max_horizon - 1)));
    c.obs.buffer_s = rng.uniform(0.0, 28.0);
    c.obs.last_level = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int>(video.ladder().level_count()) - 1));
    for (size_t d = 0; d < max_horizon; ++d)
      c.obs.future_weights.push_back(rng.uniform(0.5, 2.8));
    double center = rng.uniform(300.0, 6000.0);
    double cv = rng.uniform(0.05, 0.8);
    c.scenarios = net::triangular_scenarios(num_scenarios, center, cv);
  }
  return cases;
}

abr::PlanQuery make_query(const ObsCase& c, size_t horizon, const std::vector<double>& rebuf) {
  abr::PlanQuery q;
  q.obs = &c.obs;
  q.scenarios = c.scenarios.data();
  q.num_scenarios = c.scenarios.size();
  q.horizon = horizon;
  q.rebuffer_options = rebuf.data();
  q.num_rebuffer_options = rebuf.size();
  q.use_weights = true;
  q.weight_shrinkage = 0.8;
  q.prev_visual_quality =
      c.obs.next_chunk > 0
          ? c.obs.video->visual_quality(c.obs.next_chunk - 1, c.obs.last_level)
          : c.obs.video->visual_quality(0, 0);
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {"--out"}, {}, "bench_planner [--out FILE]");
  const std::string out_path = bench::out_arg(argc, argv, "BENCH_planner.json");
  const std::vector<size_t> horizons = {1, 2, 3, 4, 5, 6, 7};
  const size_t num_obs = 48;
  const size_t num_scenarios = 8;
  const std::vector<double> rebuf = {0.0, 1.0, 2.0};
  const uint64_t seed = 0x5e15e1;

  auto video = media::Encoder().encode(
      media::SourceVideo::generate("PlannerBench", media::Genre::kSports, 240));
  const size_t max_horizon = horizons.back();
  auto cases = make_cases(video, num_obs, num_scenarios, max_horizon, seed);

  abr::DpPlanner dp;
  oracle::ExhaustivePlanner exhaustive;
  abr::ViPlanner vi;  // default quantum: the production discretization

  struct Row {
    size_t horizon;
    size_t mismatches;
    size_t vi_divergence;
    size_t decisions;
    uint64_t dp_nodes;
  };
  std::vector<Row> rows;
  size_t total_mismatches = 0;
  size_t total_vi_divergence = 0;

  std::printf("planner bench: %zu obs, %zu scenarios, ladder %zu levels, rebuf {0,1,2}s, "
              "vi quantum %.3gs\n",
              num_obs, num_scenarios, video.ladder().level_count(), vi.quantum_s());
  std::printf("%8s %12s %10s %14s\n", "horizon", "mismatches", "vi div", "dp nodes/dec");

  for (size_t h : horizons) {
    // dp must agree with the reference; vi's divergence is counted (lossy
    // by design).
    size_t mismatches = 0;
    size_t vi_divergence = 0;
    const uint64_t nodes_before = dp.nodes_expanded();
    for (const auto& c : cases) {
      abr::PlanQuery q = make_query(c, h, rebuf);
      abr::PlanResult a = exhaustive.plan(q);
      abr::PlanResult b = dp.plan(q);
      if (a.best_level != b.best_level || a.best_rebuffer_s != b.best_rebuffer_s ||
          a.best_value != b.best_value || a.nostall_level != b.nostall_level ||
          a.nostall_value != b.nostall_value) {
        ++mismatches;
      }
      abr::PlanResult v = vi.plan(q);
      if (v.best_level != a.best_level || v.best_rebuffer_s != a.best_rebuffer_s) {
        ++vi_divergence;
      }
    }
    total_mismatches += mismatches;
    total_vi_divergence += vi_divergence;
    const uint64_t nodes = dp.nodes_expanded() - nodes_before;
    rows.push_back({h, mismatches, vi_divergence, cases.size(), nodes});
    std::printf("%8zu %12zu %10zu %14.2f\n", h, mismatches, vi_divergence,
                static_cast<double>(nodes) / static_cast<double>(cases.size()));
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"planner\",\n");
  std::fprintf(f,
               "  \"config\": {\"levels\": %zu, \"scenarios\": %zu, \"observations\": %zu, "
               "\"rebuffer_options_s\": [0, 1, 2], \"use_weights\": true, "
               "\"vi_quantum_s\": %g, \"seed\": %llu},\n",
               video.ladder().level_count(), num_scenarios, num_obs, vi.quantum_s(),
               static_cast<unsigned long long>(seed));
  std::fprintf(f, "  \"horizons\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"horizon\": %zu, \"decisions_checked\": %zu, "
                 "\"decision_mismatches\": %zu, \"vi_decision_divergence\": %zu, "
                 "\"dp_nodes_per_decision\": %.2f}%s\n",
                 r.horizon, r.decisions, r.mismatches, r.vi_divergence,
                 static_cast<double>(r.dp_nodes) / static_cast<double>(r.decisions),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"summary\": {\"total_decision_mismatches\": %zu, "
                  "\"total_vi_decision_divergence\": %zu, "
                  "\"dp_arena_bytes\": %zu, \"vi_arena_bytes\": %zu}\n",
               total_mismatches, total_vi_divergence, dp.arena_bytes(), vi.arena_bytes());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // The exact DP must agree with the exhaustive planner decision for
  // decision.
  if (total_mismatches > 0) {
    std::fprintf(stderr, "error: %zu decision mismatches between planners\n",
                 total_mismatches);
    return 1;
  }
  return 0;
}
