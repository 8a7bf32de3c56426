#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "abr/planner.h"
#include "net/fault.h"
#include "net/shared_link.h"
#include "sim/event_queue.h"
#include "sim/session_engine.h"

namespace sensei::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

LivelockError::LivelockError(const std::string& loop, size_t stuck_session, double sim_time_s)
    : std::runtime_error(loop + ": event loop stalled (no progress at t=" +
                         std::to_string(sim_time_s) + ", stuck session " +
                         std::to_string(stuck_session) + ")"),
      stuck_session_(stuck_session),
      sim_time_s_(sim_time_s) {}

const char* to_string(LinkMode mode) {
  switch (mode) {
    case LinkMode::kDedicated: return "dedicated";
    case LinkMode::kShared: return "shared";
  }
  return "?";
}

void run_event_loop(const SessionHooks& hooks, net::SharedLink* link, bool share_plan_tables,
                    const Failover& failover, const std::string& name) {
  // live[slot]: the admitted, unfinished session in that slot (else null).
  std::vector<SessionEngine*> live;
  // One pool of static planning tables for every session this loop runs:
  // N concurrent Fugu sessions on the same ladder build their chunk-size /
  // quality tables once instead of N times per decision. Attaching never
  // changes a decision (planners read the exact values they would compute
  // locally). With sharing off, policies run with no batch at all. A policy
  // keeps the batch from its first admission until the run ends, retired or
  // not (one batch per run, however often a pooled policy is re-admitted);
  // the guard, declared after the batch so it runs first, detaches every
  // one on any exit.
  abr::PlanBatch batch;
  abr::PlanBatch* shared = share_plan_tables ? &batch : nullptr;
  std::vector<AbrPolicy*> attached;
  struct DetachGuard {
    const std::vector<AbrPolicy*>& attached;
    ~DetachGuard() {
      for (AbrPolicy* policy : attached) policy->attach_plan_batch(nullptr);
    }
  } guard{attached};

  // Indexed min-heap of transition times: each slot holds one entry, moved
  // in place as its engine's next_event_time() changes (+infinity leaves
  // the heap). Ties surface in slot order.
  EventQueue events;
  std::vector<size_t> transfer_owner;  // transfer id -> slot, set at join
  size_t active = 0;
  double next_arrival = hooks.next_arrival_s();
  double fail_at = failover.at_s;

  auto retire = [&](size_t slot) {
    SessionEngine& engine = *live[slot];
    live[slot] = nullptr;
    --active;
    hooks.retire(slot, engine);
  };
  // Re-files `slot` at its next event time, then retires it once done or
  // records the transfer it joined. A transferring engine parks at its
  // attempt deadline (finite with resilience), so a completion that ends
  // the session must clear that entry or the deadline pops later against a
  // retired slot.
  auto reschedule = [&](size_t slot) {
    SessionEngine& engine = *live[slot];
    events.update(slot, engine.next_event_time());
    if (engine.done()) {
      retire(slot);
    } else if (link != nullptr && engine.state() == SessionEngine::State::kTransferring) {
      const size_t id = engine.transfer_id();
      if (transfer_owner.size() <= id) transfer_owner.resize(id + 1, 0);
      transfer_owner[id] = slot;
    }
  };

  double prev_t = -kInf;
  bool prev_was_noop = false;
  while (active > 0 || next_arrival < kInf) {
    const double t = std::min({events.min_time(),
                               link != nullptr ? link->next_completion_s() : kInf,
                               next_arrival, fail_at});
    if (t == kInf) {
      // No event can ever fire again: every live session waits on a
      // transfer the shared link can never deliver (dead link). Surface the
      // outage exactly as a dedicated dead link does at request time.
      for (size_t slot = 0; slot < live.size(); ++slot) {
        if (live[slot] == nullptr) continue;
        live[slot]->fail_transfer();
        retire(slot);
      }
      break;
    }

    // 1. Completions land first: the leaver frees its share before anyone
    // joining at t sees the link.
    size_t processed = 0;
    if (link != nullptr) {
      link->advance_to(t);
      for (const net::SharedLink::Completion& completion : link->completions_sorted()) {
        ++processed;
        const size_t slot = transfer_owner[completion.id];
        live[slot]->complete_transfer(completion.finish_s);
        reschedule(slot);
      }
      link->clear_completions();
    }

    // 2. Arrivals due at t; their first transition is at t.
    for (; next_arrival <= t; next_arrival = hooks.next_arrival_s()) {
      ++processed;
      size_t slot = 0;
      SessionEngine& engine = hooks.admit(link, &slot);
      if (live.size() <= slot) live.resize(slot + 1, nullptr);
      live[slot] = &engine;
      ++active;
      AbrPolicy& policy = engine.policy();
      if (shared != nullptr && std::count(attached.begin(), attached.end(), &policy) == 0) {
        policy.attach_plan_batch(shared);
        attached.push_back(&policy);
      }
      events.update(slot, engine.next_event_time());
    }

    // 3. Every transition due at t, in slot order. A chain may end in a
    // join (kRtt expiring at t with rtt 0), which is legal because the link
    // already sits at t.
    while (events.min_time() <= t) {
      const size_t slot = events.min_index();
      live[slot]->advance_to(t);
      ++processed;
      reschedule(slot);
    }

    // 4. Failover at the end of its instant. In-flight attempts are aborted
    // and charged by the engine; idle sessions just repoint.
    if (fail_at <= t) {
      ++processed;
      for (size_t slot = 0; slot < live.size(); ++slot) {
        if (live[slot] == nullptr) continue;
        live[slot]->rehome(*failover.fallback, failover.reconnect_delay_s, t);
        reschedule(slot);
      }
      link = failover.fallback;
      fail_at = kInf;
    }

    // 5. Livelock sentinel. A no-op iteration is legal once (the link predicted
    // a completion whose drain fell an epsilon short), but time must then
    // move; two stuck iterations at the same instant can never resolve.
    if (processed == 0 && prev_was_noop && t == prev_t) {
      size_t stuck = 0;
      while (stuck < live.size() && live[stuck] == nullptr) ++stuck;
      throw LivelockError(name, stuck, t);
    }
    prev_was_noop = processed == 0;
    prev_t = t;
  }
}

Simulator::Simulator(PlayerConfig config) : config_(config) { validate(config_); }

std::vector<MultiSessionResult> Simulator::run(const std::vector<SessionSpec>& specs,
                                               const net::ThroughputTrace& trace,
                                               LinkMode mode,
                                               const net::FaultPlan* faults) const {
  // Capacity faults are materialized onto the trace before anything runs
  // (net/fault.h); only the RTT spikes need the live plan, via the engines.
  const net::ThroughputTrace* net_trace = &trace;
  net::ThroughputTrace faulted;
  if (faults != nullptr && !faults->empty()) {
    faulted = faults->apply_to_trace(trace);
    net_trace = &faulted;
  }
  const std::vector<double> no_weights;
  std::optional<net::SharedLink> link;
  if (mode == LinkMode::kShared) link.emplace(*net_trace);

  // Every engine is built (and every spec checked) before any session runs;
  // engine i waits in slot i until the loop admits it at its start time.
  std::vector<std::unique_ptr<SessionEngine>> engines;
  engines.reserve(specs.size());
  for (const SessionSpec& spec : specs) {
    if (spec.video == nullptr || spec.policy == nullptr)
      throw std::runtime_error("simulator: session spec needs a video and a policy");
    // A negative start would be silently clamped to 0 by the trace
    // integrator (misreporting contention), and a NaN start would strand
    // the session outside the event heap: both fail loudly instead.
    if (!std::isfinite(spec.start_s) || spec.start_s < 0.0)
      throw std::runtime_error("simulator: session start must be finite and >= 0");
    const std::vector<double>& w = spec.weights != nullptr ? *spec.weights : no_weights;
    if (link) {
      engines.push_back(std::make_unique<SessionEngine>(config_, *spec.video, *link,
                                                        *spec.policy, w, spec.start_s));
    } else {
      engines.push_back(std::make_unique<SessionEngine>(config_, *spec.video, *net_trace,
                                                        *spec.policy, w, spec.start_s));
    }
    engines.back()->set_chunk_limit(spec.chunk_limit);
    // Stable per-session jitter identity (spec order); the live plan reaches
    // the engines for RTT spikes (nullptr detaches — the common case).
    engines.back()->set_session_tag(engines.size() - 1);
    engines.back()->set_fault_plan(faults);
  }

  // Admission order: (start_s, spec index). Spec i's result lands in row i.
  std::vector<size_t> order(specs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return specs[a].start_s < specs[b].start_s; });
  size_t next = 0;
  std::vector<MultiSessionResult> results(specs.size());

  SessionHooks hooks;
  hooks.next_arrival_s = [&] { return next < order.size() ? specs[order[next]].start_s : kInf; };
  hooks.admit = [&](net::SharedLink*, size_t* slot) -> SessionEngine& {
    *slot = order[next++];
    return *engines[*slot];
  };
  hooks.retire = [&](size_t i, SessionEngine& engine) {
    results[i] = {specs[i].start_s, engine.take_result()};
  };
  run_event_loop(hooks, link ? &*link : nullptr, config_.share_plan_tables, Failover(),
                 "simulator");
  return results;
}

std::vector<SessionSpec> StaggeredSpecs::build() const {
  if (videos.empty()) throw std::runtime_error("simulator: no videos");
  if (policies.size() != num_sessions)
    throw std::runtime_error("simulator: one policy instance per session is required");
  // Weights are per-video sensitivity vectors: they must pair 1:1 with the
  // video pool and cycle on the same index, or a session would stream one
  // video under another's weights (silently, whenever chunk counts match).
  if (!weights.empty() && weights.size() != videos.size())
    throw std::runtime_error("simulator: weights pool must pair 1:1 with the video pool");
  std::vector<SessionSpec> specs(num_sessions);
  for (size_t k = 0; k < num_sessions; ++k) {
    size_t v = k % videos.size();
    specs[k].video = videos[v];
    specs[k].policy = policies[k];
    specs[k].weights = weights.empty() ? nullptr : weights[v];
    specs[k].start_s = stagger_s * static_cast<double>(k);
    specs[k].chunk_limit = chunk_limit;
  }
  return specs;
}

}  // namespace sensei::sim
