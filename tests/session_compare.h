// The one session comparator behind every bit-identity gate in the test
// suite: Simulator vs Player (test_simulator), registry vs direct
// construction (test_registry), serial vs parallel runs. A new ChunkRecord
// or ChunkTrajectory field only needs adding here.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "sim/session.h"
#include "sim/timeline.h"

namespace sensei::sim {

// Full-fidelity comparison: chunk records, trajectory, outcome and its
// cause, startup. Both sessions must carry a timeline.
inline void expect_sessions_identical(const SessionResult& a, const SessionResult& b) {
  ASSERT_EQ(a.chunks().size(), b.chunks().size());
  EXPECT_EQ(a.startup_delay_s(), b.startup_delay_s());
  EXPECT_EQ(a.outcome(), b.outcome());
  EXPECT_EQ(a.outcome_cause(), b.outcome_cause());
  EXPECT_EQ(a.failed_chunk(), b.failed_chunk());
  EXPECT_EQ(a.video_name(), b.video_name());
  EXPECT_EQ(a.trace_name(), b.trace_name());
  for (size_t i = 0; i < a.chunks().size(); ++i) {
    const ChunkRecord& x = a.chunks()[i];
    const ChunkRecord& y = b.chunks()[i];
    SCOPED_TRACE("chunk " + std::to_string(i));
    EXPECT_EQ(x.level, y.level);
    EXPECT_EQ(x.bitrate_kbps, y.bitrate_kbps);
    EXPECT_EQ(x.size_bytes, y.size_bytes);
    EXPECT_EQ(x.download_start_s, y.download_start_s);
    EXPECT_EQ(x.download_time_s, y.download_time_s);
    EXPECT_EQ(x.rebuffer_s, y.rebuffer_s);
    EXPECT_EQ(x.scheduled_rebuffer_s, y.scheduled_rebuffer_s);
    EXPECT_EQ(x.buffer_after_s, y.buffer_after_s);
    EXPECT_EQ(x.visual_quality, y.visual_quality);
  }
  ASSERT_NE(a.timeline(), nullptr);
  ASSERT_NE(b.timeline(), nullptr);
  const SessionTimeline& ta = *a.timeline();
  const SessionTimeline& tb = *b.timeline();
  EXPECT_EQ(ta.outcome(), tb.outcome());
  if (ta.outcome() == SessionOutcome::kOutage) {
    EXPECT_EQ(ta.outage_chunk(), tb.outage_chunk());
    EXPECT_EQ(ta.outage_wall_s(), tb.outage_wall_s());
  }
  EXPECT_EQ(ta.startup_delay_s(), tb.startup_delay_s());
  ASSERT_EQ(ta.chunks().size(), tb.chunks().size());
  for (size_t i = 0; i < ta.chunks().size(); ++i) {
    const ChunkTrajectory& x = ta.chunks()[i];
    const ChunkTrajectory& y = tb.chunks()[i];
    SCOPED_TRACE("trajectory " + std::to_string(i));
    EXPECT_EQ(x.level, y.level);
    EXPECT_EQ(x.request_wall_s, y.request_wall_s);
    EXPECT_EQ(x.rtt_s, y.rtt_s);
    EXPECT_EQ(x.transfer_s, y.transfer_s);
    EXPECT_EQ(x.retry_wasted_s, y.retry_wasted_s);
    EXPECT_EQ(x.backoff_s, y.backoff_s);
    EXPECT_EQ(x.retries, y.retries);
    EXPECT_EQ(x.arrival_wall_s, y.arrival_wall_s);
    EXPECT_EQ(x.stall_s, y.stall_s);
    EXPECT_EQ(x.stall_start_wall_s, y.stall_start_wall_s);
    EXPECT_EQ(x.scheduled_pause_s, y.scheduled_pause_s);
    EXPECT_EQ(x.idle_s, y.idle_s);
    EXPECT_EQ(x.buffer_before_s, y.buffer_before_s);
    EXPECT_EQ(x.buffer_after_s, y.buffer_after_s);
    EXPECT_EQ(x.playhead_before_s, y.playhead_before_s);
    EXPECT_EQ(x.playhead_after_s, y.playhead_after_s);
    EXPECT_EQ(x.pause_debt_after_s, y.pause_debt_after_s);
    EXPECT_EQ(x.goodput_kbps, y.goodput_kbps);
  }
}

}  // namespace sensei::sim
