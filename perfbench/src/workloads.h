// The benchmark's three workloads, each driven through the library's public
// entry points only (sim::FleetSimulator::run, core::Experiments::run_grid).
//
//   fleet-mix     the production fleet: default WorkloadConfig (Poisson
//                 0.5/s over 600 s, bba/rate_based/whittle/fugu:planner=vi
//                 mix, 25% abandonment, no faults), 64 cells, 1 thread.
//   fleet-faults  the same fleet with index policies only, diurnal arrivals
//                 peaking at 1.0/s, per-cell trace faults, 20% failed cells,
//                 8 s timeouts with 3 retries, 2 runner threads.
//   paper-grid    run_grid over the 16 Table-1 videos x 30 seeded traces,
//                 once with fugu (exact DP) and once with sensei-fugu on the
//                 profiled weights, 1 thread.
//
// Every input is a pure function of the seed; the library receives only the
// generated inputs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "host.h"
#include "layers.h"

namespace perfbench {

// Wall time of each set-up step of one set-up repetition. Their sum is the
// repetition's set-up time; the benchmark's own bookkeeping (digests, the
// traced run's hooked fleet) is not counted.
struct SetupTimes {
  uint64_t encode_ns = 0;           // media: encoding the video pool
  uint64_t trace_gen_ns = 0;        // net: generating the evaluation traces
  uint64_t profile_ns = 0;          // crowd: profiling sensitivity weights
  uint64_t fleet_construct_ns = 0;  // sim: FleetSimulator construction

  uint64_t total_ns() const { return encode_ns + trace_gen_ns + profile_ns + fleet_construct_ns; }
};

// What one pass computed.
struct PassOutput {
  std::string digest;             // canonical text of every output
  double seconds = 0.0;           // library calls alone, at the reference host speed
  double wall_seconds = 0.0;      // the same, as measured
  double sessions = 0.0;          // sessions (grid cells) completed
  double qoe_mean = 0.0;          // fleets: session_qoe mean; grid: sensei-fugu mean
  double recovery_rate = 0.0;     // recovered / disrupted (0 without disruptions)
  double sensei_qoe_gain = 0.0;   // grid: mean of sensei-fugu minus fugu per cell
  std::map<std::string, double> counts;  // exact output counts (sim.* denominators)
  std::vector<std::string> violations;   // failed correctness checks
};

// A traced pass: its outputs, what the policy decorator measured, and the
// per-layer timings the workload derives from its own spans.
struct TracedPass {
  PassOutput out;
  AbrLayerStats abr;
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual size_t threads() const = 0;

  // Builds every input from `seed`, replacing those of an earlier call, and
  // returns a digest of them so repeated set-ups can be compared.
  virtual std::string setup(uint64_t seed, SetupTimes* times) = 0;
  // Checks run once after set-up, untimed.
  virtual std::vector<std::string> check_setup() { return {}; }

  // One untraced pass; `clock` is marked after every library call.
  virtual PassOutput pass(HostClock& clock) = 0;
  // Untimed passes whose digest must equal pass()'s, with a label each.
  virtual std::vector<std::pair<std::string, PassOutput>> check_passes() { return {}; }

  // One pass with the decorator installed (the caller installs it) and the
  // workload's own hooks on; spans go to `spans` under `parent`, in wall
  // time, and `clock` is marked after every library call.
  virtual TracedPass traced_pass(PolicyTimer& timer, SpanLog& spans, int parent,
                                 HostClock& clock) = 0;
};

// "fleet-mix", "fleet-faults" or "paper-grid"; nullptr for another name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
