// Frozen reference implementations: the test oracle the production paths
// are gated against bit for bit. None of them is reachable from libsensei —
// no config field, spec key or flag selects them; the equivalence tests and
// bench_planner call them directly.
//
//  - ExhaustivePlanner: the original Fugu recursion, a depth-first walk of
//    the full (levels x rebuffer_options)^horizon decision tree that
//    abr::DpPlanner must reproduce (tests/test_planner_equivalence.cpp).
//  - stream_legacy: the pre-timeline accounting loop that the timeline
//    engine behind sim::Player::stream must reproduce at rtt_s = 0 on
//    traces without outages (tests/test_timeline.cpp).
//  - walker_advance: net::ThroughputTrace's integrator with a linear
//    interval-by-interval scan for the finishing interval in place of the
//    indexed search (tests/test_trace_index.cpp).
//
// Deliberately not optimized: each is the "before" side of its gate.
#pragma once

#include <vector>

#include "abr/planner.h"
#include "media/encoder.h"
#include "net/trace.h"
#include "sim/player.h"
#include "sim/session.h"

namespace sensei::oracle {

// The original Fugu recursion, verbatim: advances a heap-allocated
// per-scenario state vector at every node. Exponential in the horizon.
class ExhaustivePlanner : public abr::Planner {
 public:
  const char* name() const override { return "exhaustive"; }
  abr::PlanResult plan(const abr::PlanQuery& query) override;

 private:
  struct PlanState {
    double buffer_s = 0.0;
    double prev_vq = 0.0;
  };

  double walk(const abr::PlanQuery& q, size_t depth, size_t chunk,
              std::vector<PlanState>& states, double prev_weighted_sum);

  // Best first action found by the current walk, tracked separately for
  // stall-free plans so the caller can apply the rebuffer margin.
  abr::PlanResult result_;
  size_t plan_first_level_ = 0;
  double plan_first_rebuffer_ = 0.0;
};

// The pre-timeline session loop. It keeps two old bugs on purpose: RTT is
// folded into the goodput estimate, and a dead link yields unbounded
// download times rather than a typed outage — and it records no
// trajectory. It reproduces the timeline engine only at rtt_s = 0 on
// traces without outages. Reads config's buffer cap, RTT, history length
// and weight horizon; ignores the rest.
sim::SessionResult stream_legacy(const sim::PlayerConfig& config,
                                 const media::EncodedVideo& video,
                                 const net::ThroughputTrace& trace, sim::AbrPolicy& policy,
                                 const std::vector<double>& weights = {});

// ThroughputTrace::advance with the finishing interval found by a linear
// scan of the same predicate over trace.index().prefix_bits. O(intervals
// spanned) per transfer.
net::TransferResult walker_advance(const net::ThroughputTrace& trace, double bytes,
                                   double start_s);

}  // namespace sensei::oracle
