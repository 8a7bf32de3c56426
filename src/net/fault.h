// Deterministic fault injection for traces and links.
//
// A FaultPlan is a schedule of network faults — hard outages, capacity
// collapses, RTT spikes — on the absolute simulation clock (trace time 0 ==
// session/fleet cell time 0). Plans are either scripted (add()) or drawn
// from a RandomFaultSpec with a caller-supplied seed; fleet cells derive
// that seed from task_seed(seed, cell), so a realization is a pure function
// of (config, seed) and bit-identical across --threads / --shards.
//
// Capacity faults are *materialized* onto the trace up front
// (apply_to_trace) rather than intercepted per-transfer: the base trace is
// unrolled over enough whole periods to cover the fault horizon and the
// per-interval samples inside each fault window are scaled (min factor wins
// where windows overlap). The result is an ordinary ThroughputTrace — the
// cumulative-capacity index, TraceCursor warm starts, and SharedLink all
// work unchanged, and determinism is free because nothing stochastic
// survives into the hot path. RTT spikes cannot ride on the trace (request
// dead time consumes no trace capacity), so engines query rtt_extra_s() at
// each request instant instead.
#pragma once

#include <cstdint>
#include <vector>

#include "net/trace.h"

namespace sensei::net {

enum class FaultKind {
  kOutage,            // link delivers nothing for the window
  kCapacityCollapse,  // capacity multiplied by `magnitude` (in (0, 1))
  kRttSpike,          // requests issued in the window pay +`magnitude` seconds
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kOutage;
  double start_s = 0.0;
  double duration_s = 0.0;
  // kCapacityCollapse: capacity multiplier in (0, 1). kRttSpike: extra
  // request dead time in seconds. kOutage: ignored (treated as factor 0).
  double magnitude = 0.0;

  double end_s() const { return start_s + duration_s; }
};

// Mean event counts + shapes for seeded-random plans. All-zero means (the
// default) produce an empty plan. Counts are Poisson draws over the horizon;
// starts are uniform in [0, horizon); durations are exponential.
struct RandomFaultSpec {
  double horizon_s = 600.0;

  double mean_outages = 0.0;
  double outage_mean_duration_s = 4.0;

  double mean_collapses = 0.0;
  double collapse_mean_duration_s = 20.0;
  double collapse_factor = 0.15;

  double mean_rtt_spikes = 0.0;
  double rtt_spike_mean_duration_s = 10.0;
  double rtt_spike_extra_s = 0.5;

  bool empty() const {
    return mean_outages <= 0.0 && mean_collapses <= 0.0 && mean_rtt_spikes <= 0.0;
  }
  // Returns a copy with every mean event count multiplied by `intensity`
  // (the knob bench_resilience sweeps); shapes are left untouched.
  RandomFaultSpec scaled(double intensity) const;
};

// Largest mean event count per kind a RandomFaultSpec may ask for. The
// Poisson draw costs time linear in the mean (a 1e6 mean takes ~0.2 s, a
// 1e12 mean never returns), and a plan of more events than this over one
// cell's horizon is no longer a fault load but a dead link.
inline constexpr double kMaxMeanFaultCount = 1e4;

// Rejects a spec no plan can be drawn from with std::invalid_argument
// naming the field: a horizon or mean duration that is not finite and > 0,
// or a mean count outside [0, kMaxMeanFaultCount] (NaN included).
// FaultPlan::random and the FleetSimulator constructor call it.
void validate(const RandomFaultSpec& spec);

class FaultPlan {
 public:
  FaultPlan() = default;

  // Appends a scripted event. Validates: finite non-negative start, finite
  // positive duration, and a sane magnitude for the kind (collapse factor in
  // (0, 1), RTT extra >= 0).
  void add(const FaultEvent& event);

  // Draws a plan from `spec` deterministically in `seed`: per-kind Poisson
  // counts, then (start, duration) pairs, in a fixed order. Events are
  // sorted by (start, kind, duration, magnitude) so the realization is
  // independent of draw bookkeeping.
  static FaultPlan random(const RandomFaultSpec& spec, uint64_t seed);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  // End of the last capacity-affecting window (outage/collapse); 0 when the
  // plan has none. This is how far apply_to_trace must unroll.
  double capacity_horizon_s() const;

  // Extra request dead time at absolute time t: the max over active RTT
  // spikes (max, not sum — overlapping spikes describe the same congested
  // resolver, they don't stack).
  double rtt_extra_s(double t_s) const;

  // Capacity multiplier at absolute time t: min over active outage/collapse
  // windows, 1.0 outside all of them.
  double capacity_factor_at(double t_s) const;

  // Materializes the plan's capacity faults onto `base`: the samples are
  // unrolled over ceil(capacity_horizon / period) whole periods (so looping
  // semantics are preserved — the faulted trace still loops, with the longer
  // period; a finite trace stays finite) and every interval overlapping a
  // fault window is scaled by the window's factor, min factor where windows
  // overlap. An interval is affected if any part of it intersects the
  // window (faults snap outward to the interval grid). The trace name is
  // preserved so downstream results keep their trace labels.
  ThroughputTrace apply_to_trace(const ThroughputTrace& base) const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace sensei::net
