// Metric names, units and the result line.
//
// The names here are the benchmark's contract with BENCHMARK.json: a timed
// run reports exactly end_to_end_names(), a traced run exactly
// per_layer_names() (run.py checks both against BENCHMARK.json).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};
using MetricSet = std::vector<Metric>;

// The six decide-timing kinds, in report order.
const std::vector<std::string>& decide_kinds();

// (name, unit) of every metric each mode reports, in report order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_names();
const std::vector<std::pair<std::string, std::string>>& per_layer_names();

// True when `name` matches [A-Za-z0-9_.-]+.
bool valid_metric_name(const std::string& name);

double median(std::vector<double> values);
// Nearest-rank percentile, q in [0, 1]; 0 when empty.
double nearest_rank(std::vector<double> values, double q);
// "median (p25..p75, min..max, n=N)" of a sample; "n=0" when empty.
std::string describe(std::vector<double> values);

MetricSet end_to_end_metrics(double sessions_per_s, double setup_s, double peak_rss_mib,
                             double qoe_mean);

// One traced pass's per-layer values: the decorator's abr.* numbers, the
// workload's own timings and its exact output counts.
std::map<std::string, double> layer_metrics(const TracedPass& pass);
// setup.* values: the median of each step over the set-up repetitions.
std::map<std::string, double> setup_layer_metrics(const std::vector<SetupTimes>& reps);
// Every per_layer_names() entry: the median over `samples` of its value
// (0 where a workload does not run the layer), overridden by `extra`.
MetricSet per_layer_metrics(const std::vector<std::map<std::string, double>>& samples,
                            const std::map<std::string, double>& extra);

// The final stdout line.
std::string result_json(bool correct, size_t attempted, size_t failed, const MetricSet& metrics);

}  // namespace perfbench
