// Tests of the benchmark itself: the timing decorator must not change any
// output, digests must follow the seed, the log histogram must report
// correct percentiles, and every metric name must be well formed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.h"
#include "digest.h"
#include "host.h"
#include "layers.h"
#include "media/encoder.h"
#include "metrics.h"
#include "sim/fleet.h"
#include "workloads.h"

using namespace perfbench;
namespace core = sensei::core;
namespace media = sensei::media;
namespace sim = sensei::sim;

namespace {

// A 2-cell fleet over two short videos with the default policy mix (bba,
// rate_based, whittle and fugu:planner=vi).
struct SmallFleet {
  std::vector<media::EncodedVideo> videos;
  std::vector<const media::EncodedVideo*> ptrs;
  sim::FleetConfig config;

  SmallFleet() {
    media::Encoder encoder;
    videos.push_back(encoder.encode(
        media::SourceVideo::generate("TestA", media::Genre::kSports, 40.0)));
    videos.push_back(encoder.encode(
        media::SourceVideo::generate("TestB", media::Genre::kNature, 40.0)));
    for (const auto& v : videos) ptrs.push_back(&v);
    config.num_cells = 2;
    config.seed = 7;
    config.workload.arrival_window_s = 120.0;
  }

  std::string run() const {
    core::ExperimentRunner runner(1);
    return fleet_digest(sim::FleetSimulator(config).run(ptrs, runner));
  }
};

}  // namespace

TEST(PolicyTimer, TransparentOnSmallFleet) {
  SmallFleet fleet;
  const std::string plain = fleet.run();

  PolicyTimer timer;
  timer.harvest();
  timer.install();
  const std::string traced = fleet.run();
  AbrLayerStats stats = timer.harvest();
  timer.uninstall();
  const std::string after = fleet.run();

  EXPECT_EQ(plain, traced);
  EXPECT_EQ(plain, after);
  ASSERT_EQ(stats.kinds.count("fugu-vi"), 1u);
  EXPECT_GT(stats.kinds["fugu-vi"].decide.count(), 0u);
  EXPECT_GT(stats.kinds["bba"].decide.count(), 0u);
  EXPECT_GT(stats.vi_tables, 0u);
  EXPECT_EQ(stats.plan_batches, 2u);  // one per cell
  // Nothing is counted once the decorator is gone.
  fleet.run();
  EXPECT_TRUE(timer.harvest().kinds.empty());
}

TEST(PolicyTimer, KindsNameThePlanner) {
  const auto& registry = sensei::abr::PolicyRegistry::instance();
  auto kind = [&](const char* spec) {
    return policy_kind(registry.canonicalize(sensei::abr::PolicySpec::parse(spec)));
  };
  EXPECT_EQ(kind("bba"), "bba");
  EXPECT_EQ(kind("fugu:planner=vi"), "fugu-vi");
  EXPECT_EQ(kind("fugu"), "fugu-dp");
  EXPECT_EQ(kind("sensei-fugu"), "sensei-fugu-dp");
}

TEST(Digest, FollowsTheSeed) {
  for (const char* name : {"fleet-mix", "paper-grid"}) {
    SCOPED_TRACE(name);
    auto w = make_workload(name);
    ASSERT_NE(w, nullptr);
    SetupTimes times;
    HostClock clock;
    const std::string inputs1 = w->setup(1, &times);
    const std::string a = w->pass(clock).digest;
    const std::string b = w->pass(clock).digest;
    EXPECT_EQ(inputs1, w->setup(1, &times));
    const std::string c = w->pass(clock).digest;
    const std::string inputs2 = w->setup(2, &times);
    const std::string d = w->pass(clock).digest;
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
    EXPECT_NE(inputs1, inputs2);
    EXPECT_NE(a, d);
  }
}

TEST(HostClock, RescalesEveryLibraryCall) {
  // A fleet pass is one library call; a paper-grid pass is one run_grid call
  // per video and policy. Each call's wall time is rescaled by its own mark.
  for (const auto& [name, calls] : {std::pair<const char*, size_t>{"fleet-mix", 1},
                                    std::pair<const char*, size_t>{"paper-grid", 32}}) {
    SCOPED_TRACE(name);
    auto w = make_workload(name);
    SetupTimes times;
    w->setup(1, &times);
    HostClock clock;
    const PassOutput out = w->pass(clock);
    ASSERT_EQ(clock.scales().size(), calls);
    for (double scale : clock.scales()) {
      EXPECT_TRUE(std::isfinite(scale));
      EXPECT_GT(scale, 0.0);
    }
    const auto [lo, hi] = std::minmax_element(clock.scales().begin(), clock.scales().end());
    EXPECT_GT(out.wall_seconds, 0.0);
    EXPECT_GE(out.seconds, out.wall_seconds * *lo * (1 - 1e-12));
    EXPECT_LE(out.seconds, out.wall_seconds * *hi * (1 + 1e-12));
  }
}

TEST(Digest, FleetFaultsMatchesAcrossThreadCounts) {
  auto w = make_workload("fleet-faults");
  ASSERT_NE(w, nullptr);
  SetupTimes times;
  w->setup(3, &times);
  HostClock clock;
  const PassOutput out = w->pass(clock);
  EXPECT_TRUE(out.violations.empty());
  for (const auto& [label, check] : w->check_passes()) {
    EXPECT_EQ(check.digest, out.digest) << label;
  }
}

TEST(Digest, ConservationCatchesBrokenAggregates) {
  sim::FleetAggregates agg;
  agg.sessions = 10;
  agg.sessions_by_policy = {6, 4};
  agg.completed_by_policy = {5, 3};
  agg.abandoned_by_policy = {1, 0};
  agg.abandoned = 1;
  agg.outages = 1;
  agg.session_qoe.add(0.5);
  EXPECT_TRUE(fleet_violations(agg).empty());

  sim::FleetAggregates more_sessions = agg;
  more_sessions.sessions = 11;
  EXPECT_FALSE(fleet_violations(more_sessions).empty());
  sim::FleetAggregates lost_outage = agg;
  lost_outage.outages = 0;
  EXPECT_FALSE(fleet_violations(lost_outage).empty());
  sim::FleetAggregates over_recovered = agg;
  over_recovered.recovered_sessions = 2;
  over_recovered.disrupted_sessions = 1;
  EXPECT_FALSE(fleet_violations(over_recovered).empty());
  sim::FleetAggregates timeout_heavy = agg;
  timeout_heavy.timeout_outages = 2;
  EXPECT_FALSE(fleet_violations(timeout_heavy).empty());
}

TEST(LogHistogram, SmallValuesAreExact) {
  LogHistogram h;
  for (uint64_t v = 0; v < 32; ++v) h.add(v);
  EXPECT_EQ(h.count(), 32u);
  EXPECT_EQ(h.sum(), 31u * 32u / 2u);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 15.0);  // the 16th smallest
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 31.0);
}

TEST(LogHistogram, PercentilesWithinBucketWidth) {
  LogHistogram h;
  for (uint64_t v = 1; v <= 100000; ++v) h.add(v);
  for (double q : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    const double exact = std::ceil(q * 100000.0);
    EXPECT_NEAR(h.percentile(q), exact, exact / 16.0) << q;
  }
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100000u);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100000.0);
}

TEST(LogHistogram, SkewedSampleAndMerge) {
  // 99 fast calls and one slow one: p50 is fast, p99 fast, p100 slow.
  LogHistogram a, b;
  for (int i = 0; i < 99; ++i) a.add(100);
  b.add(1000000);
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_NEAR(a.percentile(0.5), 100.0, 100.0 / 16.0);
  EXPECT_NEAR(a.percentile(0.99), 100.0, 100.0 / 16.0);
  EXPECT_DOUBLE_EQ(a.percentile(1.0), 1000000.0);
  EXPECT_DOUBLE_EQ(LogHistogram().percentile(0.5), 0.0);
}

TEST(LogHistogram, BucketsTileTheRange) {
  for (uint64_t v : {0ull, 1ull, 31ull, 32ull, 33ull, 1000ull, 123456789ull, ~0ull}) {
    const size_t b = LogHistogram::bucket_of(v);
    ASSERT_LT(b, LogHistogram::kBuckets);
    EXPECT_LE(LogHistogram::bucket_lower(b), v);
    EXPECT_LE(v - LogHistogram::bucket_lower(b), LogHistogram::bucket_width(b) - 1);
    EXPECT_LE(LogHistogram::bucket_width(b), std::max<uint64_t>(1, v / 16));
  }
}

TEST(Metrics, NamesAreWellFormedAndUnique) {
  std::set<std::string> seen;
  for (const auto* list : {&end_to_end_names(), &per_layer_names()}) {
    for (const auto& [name, unit] : *list) {
      EXPECT_TRUE(valid_metric_name(name)) << name;
      EXPECT_FALSE(unit.empty()) << name;
      EXPECT_LE(name.size(), 64u) << name;
      EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
    }
  }
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("abr decide"));
  EXPECT_FALSE(valid_metric_name("abr/decide"));
}

TEST(Metrics, TracedPassEmitsOnlyListedNames) {
  std::set<std::string> listed;
  for (const auto& [name, unit] : per_layer_names()) listed.insert(name);
  for (const char* name : {"fleet-faults", "paper-grid"}) {
    SCOPED_TRACE(name);
    auto w = make_workload(name);
    SetupTimes times;
    w->setup(5, &times);
    HostClock clock;
    const std::string untraced = w->pass(clock).digest;
    PolicyTimer timer;
    SpanLog spans;
    timer.install();
    TracedPass tp = w->traced_pass(timer, spans, -1, clock);
    timer.uninstall();
    EXPECT_EQ(tp.out.digest, untraced);
    EXPECT_TRUE(tp.out.violations.empty());
    EXPECT_FALSE(spans.spans().empty());
    for (const auto& [metric, value] : layer_metrics(tp)) {
      EXPECT_TRUE(valid_metric_name(metric)) << metric;
      EXPECT_EQ(listed.count(metric), 1u) << metric;
    }
  }
}
