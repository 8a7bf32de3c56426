// Multi-session simulation: the one discrete-event loop that interleaves N
// SessionEngines, and sim::Simulator, its spec-list driver.
//
// This is the scenario family the single-session Player cannot express:
// many concurrent viewers, arriving staggered over a shared clock, either
// each on a private copy of the network (kDedicated — the control case and
// the Player-equivalence gate) or all contending for one bottleneck
// (kShared — a net::SharedLink splitting each instant's trace capacity
// equally across active downloads).
//
// run_event_loop is a textbook discrete-event scheduler over exact times,
// not fixed ticks: an indexed min-heap (sim/event_queue.h) of engine
// transition times, the shared link's next-completion estimate, the next
// arrival and an optional failover instant. Simulator::run and every
// FleetSimulator cell drive it; they differ only in where sessions come
// from and where they go (SessionHooks). Each iteration, at the earliest
// pending instant t:
//   1. the link advances to t and delivers its completions (transfer id
//      order), so a leaver frees its share before anyone joins at t — what
//      makes "last leaver gets the full link" exact at boundaries;
//   2. every arrival due at t is admitted;
//   3. every engine with a transition at t runs its chain, in slot order;
//   4. a failover due at t re-homes every live session;
//   5. the livelock sentinel checks that the instant made progress.
// Deterministic by construction: ties break on slot, and no step depends on
// heap internals.
//
// Equivalence gate (tests/test_simulator.cpp): a single session driven
// through this loop on a dedicated link emits a SessionResult and
// SessionTimeline bit-identical to Player::stream — across policies,
// traces (looping, finite, outage) and ExperimentRunner thread counts —
// because SessionEngine executes the same statements whether it is sliced
// by this scheduler or driven to completion in one call.
#pragma once

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "media/encoder.h"
#include "net/trace.h"
#include "sim/player.h"
#include "sim/session.h"

namespace sensei::net {
class FaultPlan;
class SharedLink;
}

namespace sensei::sim {

class SessionEngine;

// Typed livelock diagnosis: the event loop made no progress across two
// iterations pinned at the same simulated instant, which can never resolve.
// Thrown by run_event_loop instead of spinning; carries the stuck session's
// slot (spec index for Simulator::run, a recycled cell slot for the fleet)
// and the simulated time so the failure names its culprit.
class LivelockError : public std::runtime_error {
 public:
  LivelockError(const std::string& loop, size_t stuck_session, double sim_time_s);
  size_t stuck_session() const { return stuck_session_; }
  double sim_time_s() const { return sim_time_s_; }

 private:
  size_t stuck_session_;
  double sim_time_s_;
};

// Where run_event_loop's sessions come from and where they go. Every hook
// runs once per session, never per event.
struct SessionHooks {
  // Start time of the next arrival, +infinity once none remain. Called once
  // up front and once after each admit; start times must not decrease.
  std::function<double()> next_arrival_s;
  // Admits the announced arrival: returns its engine, bound to `link` (the
  // loop's current link, the fallback after a failover; nullptr: dedicated)
  // and starting at that time, and stores its slot in `*slot`. Same-instant
  // transitions run in slot order, and a slot stays the session's until it
  // retires. The engine's policy must outlive the loop (see below).
  std::function<SessionEngine&(net::SharedLink* link, size_t* slot)> admit;
  // The session in `slot` is done(); `engine` is valid until this returns.
  std::function<void(size_t slot, SessionEngine& engine)> retire;
};

// Cell failover as data: at `at_s` (+infinity: never) every live session
// re-homes to `fallback`, reconnecting after `reconnect_delay_s`. Runs at
// the end of its instant, so completions and transitions landing exactly at
// the failure still resolve on the primary link.
struct Failover {
  double at_s = std::numeric_limits<double>::infinity();
  net::SharedLink* fallback = nullptr;
  double reconnect_delay_s = 0.0;
};

// The event loop: admits every arrival of `hooks`, runs each session to
// done() and retires it. `link` is the shared bottleneck (nullptr: each
// engine integrates its own trace). With `share_plan_tables` one
// abr::PlanBatch serves every session's policy: attached at its first
// admission and detached, retired or not, only when the loop exits (a throw
// included), so a run has exactly one batch however often a pooled policy
// comes back; without it no policy has a batch attached while it runs.
// Once no event can fire (a dead shared link) every live session ends as an
// outage. Throws LivelockError, naming `name`, if an instant stops making
// progress.
void run_event_loop(const SessionHooks& hooks, net::SharedLink* link, bool share_plan_tables,
                    const Failover& failover, const std::string& name);

// How sessions see the network.
enum class LinkMode {
  kDedicated,  // each session integrates the trace privately (no contention)
  kShared,     // all sessions split one net::SharedLink's capacity
};

const char* to_string(LinkMode mode);

// One viewer: a video, a per-session policy instance (never shared across
// sessions — policies carry mutable state), optional sensitivity weights,
// and the absolute arrival time of the first request. All pointers must
// outlive Simulator::run.
struct SessionSpec {
  const media::EncodedVideo* video = nullptr;
  AbrPolicy* policy = nullptr;
  const std::vector<double>* weights = nullptr;  // nullable
  double start_s = 0.0;
  // Viewer abandonment: the session ends (kCompleted) after downloading this
  // many chunks even if the video has more. SIZE_MAX: watches to the end.
  size_t chunk_limit = static_cast<size_t>(-1);
};

struct MultiSessionResult {
  double start_s = 0.0;   // when the session joined the simulation
  SessionResult session;  // timestamps session-relative, as Player emits them
};

class Simulator {
 public:
  explicit Simulator(PlayerConfig config = PlayerConfig());

  const PlayerConfig& config() const { return config_; }

  // Runs every session to completion (or outage) through run_event_loop and
  // returns results in spec order. Sessions are admitted in (start_s, spec
  // index) order into slot = spec index, and each session's jitter tag is
  // its spec index. So listing specs with distinct starts in another order
  // changes no session unless two sessions have transitions at the same
  // instant (ties run in slot order) or backoff jitter is on.
  // Deterministic: same specs + trace (+ fault plan) -> same results,
  // however sessions interleave in wall-clock terms.
  // `faults` (nullable) injects a net::FaultPlan: capacity faults are
  // materialized onto the trace before any session starts, RTT spikes are
  // queried by the engines per request. It must outlive the call.
  std::vector<MultiSessionResult> run(const std::vector<SessionSpec>& specs,
                                      const net::ThroughputTrace& trace,
                                      LinkMode mode = LinkMode::kShared,
                                      const net::FaultPlan* faults = nullptr) const;

 private:
  PlayerConfig config_;
};

// Spec builder: N staggered sessions (session k arrives at k * stagger_s),
// cycling videos — each with its paired weights vector, when `weights` is
// non-empty (then it must be videos.size() long) — over the supplied pools;
// `policies` carries one instance per session. Replaces the old
// three-parallel-vector staggered_specs() signature, whose call sites were
// one positional mix-up away from streaming a video under another's
// weights.
struct StaggeredSpecs {
  std::vector<const media::EncodedVideo*> videos;  // cycled round-robin
  std::vector<AbrPolicy*> policies;                // exactly one per session
  std::vector<const std::vector<double>*> weights;  // empty, or 1:1 with videos
  size_t num_sessions = 0;
  double stagger_s = 0.0;
  // Applied to every session (viewer abandonment; SIZE_MAX = full video).
  size_t chunk_limit = static_cast<size_t>(-1);

  std::vector<SessionSpec> build() const;
};

}  // namespace sensei::sim
