// Steady-state allocation gates for the fleet hot path (this binary has a
// counting global operator new, like tests/test_session_alloc.cpp):
//
//  1. Engine recycling: once a SessionEngine has streamed one session on a
//     recycling SharedLink with record_timeline off, reset() + a full
//     further session driven by sim::run_event_loop performs ZERO heap
//     allocations — the reset-don't-reallocate contract the fleet's free
//     pool is built on.
//  2. Fleet steady state: in a running cell, once concurrency has peaked
//     and the pools are warm, finishing and admitting further sessions
//     allocates nothing — memory is bounded by peak concurrency, not
//     session count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "abr/bba.h"
#include "core/runner.h"
#include "media/dataset.h"
#include "net/shared_link.h"
#include "net/trace_gen.h"
#include "sim/fleet.h"
#include "sim/session_engine.h"
#include "sim/simulator.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sensei::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FleetAllocation, RecycledEngineStreamsSessionsWithoutAllocating) {
  media::EncodedVideo video = media::Encoder().encode(
      media::SourceVideo::generate("FleetAlloc", media::Genre::kSports, 120));
  net::ThroughputTrace trace =
      net::TraceGenerator::cellular("fleet-alloc-cell", 2400, 500.0, 5);
  net::SharedLink link(trace, /*recycle_ids=*/true);

  PlayerConfig config;
  config.record_timeline = false;
  abr::BbaAbr bba;
  SessionEngine engine(config, video, link, bba, {}, 0.0);

  // One run of the real event loop on one recycled engine: session 0 grows
  // every buffer (the engine's, the link's, the loop's) to high water, then
  // three 20-chunk repeats, each announced long after the previous one
  // retires, must each stream from admit to retire without allocating.
  constexpr size_t kRepeats = 3;
  constexpr double kRepeatSpacingS = 5000.0;
  size_t admitted = 0;
  std::uint64_t before = 0;
  std::vector<std::uint64_t> allocations;
  allocations.reserve(kRepeats);  // the probe itself must not allocate in the window
  SessionHooks hooks;
  hooks.next_arrival_s = [&] {
    return admitted <= kRepeats ? kRepeatSpacingS * static_cast<double>(admitted) : kInf;
  };
  hooks.admit = [&](net::SharedLink* loop_link, size_t* slot) -> SessionEngine& {
    if (admitted > 0) {
      before = g_allocations.load(std::memory_order_relaxed);
      engine.reset(video, *loop_link, bba, {}, kRepeatSpacingS * static_cast<double>(admitted),
                   /*chunk_limit=*/20);
    }
    ++admitted;
    *slot = 0;
    return engine;
  };
  hooks.retire = [&](size_t, SessionEngine& done) {
    if (admitted == 1) {
      ASSERT_EQ(done.records().size(), video.num_chunks());
      return;
    }
    allocations.push_back(g_allocations.load(std::memory_order_relaxed) - before);
    EXPECT_EQ(done.records().size(), 20u);
    EXPECT_EQ(done.outcome(), SessionOutcome::kCompleted);
  };
  run_event_loop(hooks, &link, config.share_plan_tables, Failover(), "fleet-alloc");

  ASSERT_EQ(allocations.size(), kRepeats);
  for (size_t repeat = 0; repeat < kRepeats; ++repeat) {
    EXPECT_EQ(allocations[repeat], 0u) << "repeat " << repeat;
  }
}

TEST(FleetAllocation, FleetSteadyStateAddsNoPerSessionAllocations) {
  media::Encoder encoder;
  std::vector<media::EncodedVideo> videos;
  videos.push_back(
      encoder.encode(media::SourceVideo::generate("FleetAllocA", media::Genre::kSports, 48)));
  std::vector<const media::EncodedVideo*> video_ptrs = {&videos[0]};

  FleetConfig config;
  config.num_cells = 1;
  config.seed = 31;
  config.workload.arrival_rate_per_s = 1.0;
  config.workload.arrival_window_s = 80.0;
  config.workload.policy_mix = {{"bba", 1.0}};  // BBA only: no planner warm-up noise
  config.workload.abandon_fraction = 0.5;
  config.workload.mean_abandon_chunks = 10.0;

  // Allocation counter sampled at every session retirement. Once the cell
  // has warmed (concurrency peak reached, pools and link at high water),
  // the counter must freeze: sessions keep finishing and being admitted
  // with zero heap traffic.
  std::vector<std::uint64_t> at_retire;
  at_retire.reserve(4096);  // the probe itself must not allocate in the window
  config.on_session_done = [&](size_t, const SessionArrival&, const SessionEngine&) {
    at_retire.push_back(g_allocations.load(std::memory_order_relaxed));
  };
  core::ExperimentRunner runner(1);
  FleetAggregates agg = FleetSimulator(config).run(video_ptrs, runner);
  ASSERT_EQ(agg.sessions, at_retire.size());
  ASSERT_GT(at_retire.size(), 30u);

  // Growth (slots, pools, link bookkeeping, planner buffers) is allowed to
  // finish in the first two thirds; after that the counter must freeze.
  size_t tail_begin = at_retire.size() * 2 / 3;
  for (size_t i = tail_begin; i < at_retire.size(); ++i) {
    EXPECT_EQ(at_retire[i], at_retire[tail_begin]) << "retirement " << i;
  }
}

}  // namespace
}  // namespace sensei::sim
