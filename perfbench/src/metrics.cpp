#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<std::string>& decide_kinds() {
  static const std::vector<std::string> kKinds = {"bba",     "rate_based", "whittle",
                                                  "fugu-vi", "fugu-dp",    "sensei-fugu-dp"};
  return kKinds;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_names() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"sessions_per_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"qoe_mean", "qoe"},
  };
  return kNames;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> kNames = [] {
    std::vector<std::pair<std::string, std::string>> n;
    for (const std::string& k : decide_kinds()) {
      n.push_back({"abr.decide.calls." + k, "count"});
      n.push_back({"abr.decide.ns." + k, "ns"});
      n.push_back({"abr.decide.ns_p50." + k, "ns"});
      n.push_back({"abr.decide.ns_p99." + k, "ns"});
    }
    n.insert(n.end(), {{"abr.begin_session.calls", "count"},
                       {"abr.begin_session.ns", "ns"},
                       {"abr.make.calls", "count"},
                       {"abr.make.ns", "ns"},
                       {"abr.plan_batch.vi_tables", "count"},
                       {"abr.plan_batch.table_bytes", "B"},
                       {"abr.plan_batch.vi_miss_ratio", "ratio"},
                       {"sim.fleet.run.ns", "ns"},
                       {"sim.fleet.self.ns", "ns"},
                       {"sim.workload.ns", "ns"},
                       {"sim.fleet.loop.ns", "ns"},
                       {"sim.cell.ms_p50", "ms"},
                       {"sim.cell.ms_p99", "ms"},
                       {"sim.cell.ms_max", "ms"},
                       {"sim.sessions", "count"},
                       {"sim.chunks", "count"},
                       {"sim.timeouts", "count"},
                       {"sim.retries", "count"},
                       {"sim.failovers", "count"},
                       {"sim.outages", "count"},
                       {"sim.peak_concurrent", "count"},
                       {"sim.recovery_rate", "ratio"},
                       {"core.runner.busy_share", "ratio"},
                       {"core.grid.run.ns.fugu", "ns"},
                       {"core.grid.run.ns.sensei-fugu", "ns"},
                       {"core.grid.self.ns", "ns"},
                       {"core.grid.sensei_qoe_gain", "qoe"},
                       {"setup.media.encode.ns", "ns"},
                       {"setup.net.trace_gen.ns", "ns"},
                       {"setup.crowd.profile.ns", "ns"},
                       {"setup.sim.fleet_construct.ns", "ns"},
                       {"trace.overhead", "ratio"}});
    return n;
  }();
  return kNames;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size()));
  return values[std::clamp<size_t>(static_cast<size_t>(rank), 1, values.size()) - 1];
}

std::string describe(std::vector<double> values) {
  if (values.empty()) return "n=0";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.6g(p25=%.6g,p75=%.6g,min=%.6g,max=%.6g,n=%zu)",
                median(values), nearest_rank(values, 0.25), nearest_rank(values, 0.75),
                nearest_rank(values, 0.0), nearest_rank(values, 1.0), values.size());
  return buf;
}

MetricSet end_to_end_metrics(double sessions_per_s, double setup_s, double peak_rss_mib,
                             double qoe_mean) {
  const double values[] = {sessions_per_s, setup_s, peak_rss_mib, qoe_mean};
  MetricSet out;
  for (size_t i = 0; i < end_to_end_names().size(); ++i) {
    out.push_back({end_to_end_names()[i].first, end_to_end_names()[i].second, values[i]});
  }
  return out;
}

std::map<std::string, double> layer_metrics(const TracedPass& pass) {
  std::map<std::string, double> m = pass.layer;
  for (const auto& [name, value] : pass.out.counts) m[name] = value;
  uint64_t begin_calls = 0, begin_ns = 0, make_calls = 0, make_ns = 0;
  for (const auto& [kind, k] : pass.abr.kinds) {
    m["abr.decide.calls." + kind] = static_cast<double>(k.decide.count());
    m["abr.decide.ns." + kind] = static_cast<double>(k.decide.sum());
    m["abr.decide.ns_p50." + kind] = k.decide.percentile(0.5);
    m["abr.decide.ns_p99." + kind] = k.decide.percentile(0.99);
    begin_calls += k.begin_calls;
    begin_ns += k.begin_ns;
    make_calls += k.make_calls;
    make_ns += k.make_ns;
  }
  m["abr.begin_session.calls"] = static_cast<double>(begin_calls);
  m["abr.begin_session.ns"] = static_cast<double>(begin_ns);
  m["abr.make.calls"] = static_cast<double>(make_calls);
  m["abr.make.ns"] = static_cast<double>(make_ns);
  m["abr.plan_batch.vi_tables"] = static_cast<double>(pass.abr.vi_tables);
  m["abr.plan_batch.table_bytes"] = static_cast<double>(pass.abr.table_bytes_max);
  auto vi = pass.abr.kinds.find("fugu-vi");
  const double vi_calls = vi == pass.abr.kinds.end() ? 0.0 : static_cast<double>(vi->second.decide.count());
  m["abr.plan_batch.vi_miss_ratio"] =
      vi_calls > 0 ? static_cast<double>(pass.abr.vi_tables) / vi_calls : 0.0;
  return m;
}

std::map<std::string, double> setup_layer_metrics(const std::vector<SetupTimes>& reps) {
  std::vector<double> encode, trace_gen, profile, construct;
  for (const SetupTimes& t : reps) {
    encode.push_back(static_cast<double>(t.encode_ns));
    trace_gen.push_back(static_cast<double>(t.trace_gen_ns));
    profile.push_back(static_cast<double>(t.profile_ns));
    construct.push_back(static_cast<double>(t.fleet_construct_ns));
  }
  return {{"setup.media.encode.ns", median(encode)},
          {"setup.net.trace_gen.ns", median(trace_gen)},
          {"setup.crowd.profile.ns", median(profile)},
          {"setup.sim.fleet_construct.ns", median(construct)}};
}

MetricSet per_layer_metrics(const std::vector<std::map<std::string, double>>& samples,
                            const std::map<std::string, double>& extra) {
  MetricSet out;
  for (const auto& [name, unit] : per_layer_names()) {
    double value = 0.0;
    auto e = extra.find(name);
    if (e != extra.end()) {
      value = e->second;
    } else {
      std::vector<double> v;
      for (const auto& s : samples) {
        auto it = s.find(name);
        if (it != s.end()) v.push_back(it->second);
      }
      value = median(v);
    }
    out.push_back({name, unit, value});
  }
  return out;
}

std::string result_json(bool correct, size_t attempted, size_t failed, const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace perfbench
