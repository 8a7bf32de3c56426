// Output digests and correctness checks for every benchmark pass.
//
// A digest is the canonical text of everything a pass computed, with every
// double printed at %.9g. Equal digests mean equal outputs: the benchmark
// compares every pass against its first pass, traced passes against
// untraced ones, and fleet-faults at 2 threads against 1 thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiments.h"
#include "sim/fleet.h"

namespace perfbench {

// Every FleetAggregates field, per-policy vectors included.
std::string fleet_digest(const sensei::sim::FleetAggregates& agg);

// Fleet conservation laws; returns one message per violation.
//  - sum of sessions_by_policy == sessions;
//  - per pool, sessions == completed + abandoned + outages (outages are the
//    remainder, so the pool's completed + abandoned must not exceed its
//    sessions, and the remainders must sum to the fleet's outages);
//  - abandoned_by_policy sums to abandoned;
//  - recovered <= disrupted, timeout_outages <= outages.
std::vector<std::string> fleet_violations(const sensei::sim::FleetAggregates& agg);

// Every cell's oracle QoE and chunk count, in grid order.
std::string grid_digest(const std::vector<sensei::core::Experiments::RunResult>& cells);

// Every true_qoe must be finite and every cell must have streamed chunks.
std::vector<std::string> grid_violations(
    const std::vector<sensei::core::Experiments::RunResult>& cells, const char* policy);

// 64-bit FNV-1a of a digest, for printing.
uint64_t fnv1a(const std::string& text);

}  // namespace perfbench
