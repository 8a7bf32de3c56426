#include "digest.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

namespace sim = sensei::sim;
namespace core = sensei::core;

namespace {

void appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

void append_acc(std::string* out, const char* name, const sensei::util::MergeableAccumulator& a) {
  appendf(out, " %s=[n=%zu mean=%.9g var=%.9g min=%.9g max=%.9g]", name, a.count(), a.mean(),
          a.variance(), a.min(), a.max());
}

void append_counts(std::string* out, const char* name, const std::vector<size_t>& v) {
  appendf(out, " %s=[", name);
  for (size_t i = 0; i < v.size(); ++i) appendf(out, i ? " %zu" : "%zu", v[i]);
  *out += "]";
}

}  // namespace

std::string fleet_digest(const sim::FleetAggregates& a) {
  std::string out;
  appendf(&out,
          "cells=%zu sessions=%zu chunks=%zu outages=%zu abandoned=%zu timeouts=%zu "
          "retries=%zu timeout_outages=%zu failovers=%zu failed_cells=%zu disrupted=%zu "
          "recovered=%zu peak_concurrent=%zu",
          a.cells, a.sessions, a.chunks, a.outages, a.abandoned, a.timeouts, a.retries,
          a.timeout_outages, a.failovers, a.failed_cells, a.disrupted_sessions,
          a.recovered_sessions, a.peak_concurrent);
  append_counts(&out, "sessions_by_policy", a.sessions_by_policy);
  append_counts(&out, "completed_by_policy", a.completed_by_policy);
  append_counts(&out, "abandoned_by_policy", a.abandoned_by_policy);
  append_acc(&out, "session_qoe", a.session_qoe);
  append_acc(&out, "session_bitrate_kbps", a.session_bitrate_kbps);
  append_acc(&out, "session_rebuffer_s", a.session_rebuffer_s);
  append_acc(&out, "startup_delay_s", a.startup_delay_s);
  appendf(&out, " qoe_sketch=[n=%zu min=%.9g p10=%.9g p50=%.9g p90=%.9g p99=%.9g max=%.9g]",
          a.qoe_sketch.count(), a.qoe_sketch.min(), a.qoe_sketch.quantile(0.1),
          a.qoe_sketch.quantile(0.5), a.qoe_sketch.quantile(0.9), a.qoe_sketch.quantile(0.99),
          a.qoe_sketch.max());
  return out;
}

std::vector<std::string> fleet_violations(const sim::FleetAggregates& a) {
  std::vector<std::string> bad;
  const size_t pools = a.sessions_by_policy.size();
  if (a.completed_by_policy.size() != pools || a.abandoned_by_policy.size() != pools) {
    bad.push_back("per-policy vectors differ in length");
    return bad;
  }
  size_t sessions = 0, abandoned = 0, outages = 0;
  for (size_t p = 0; p < pools; ++p) {
    sessions += a.sessions_by_policy[p];
    abandoned += a.abandoned_by_policy[p];
    const size_t ended = a.completed_by_policy[p] + a.abandoned_by_policy[p];
    if (ended > a.sessions_by_policy[p]) {
      bad.push_back("pool " + std::to_string(p) + ": completed + abandoned > sessions");
    } else {
      outages += a.sessions_by_policy[p] - ended;
    }
  }
  if (sessions != a.sessions) bad.push_back("sum of sessions_by_policy != sessions");
  if (abandoned != a.abandoned) bad.push_back("sum of abandoned_by_policy != abandoned");
  if (outages != a.outages) bad.push_back("per-pool outage remainders != outages");
  if (a.recovered_sessions > a.disrupted_sessions) bad.push_back("recovered > disrupted");
  if (a.timeout_outages > a.outages) bad.push_back("timeout_outages > outages");
  if (a.sessions == 0) bad.push_back("no sessions ran");
  if (!std::isfinite(a.session_qoe.mean())) bad.push_back("session_qoe mean is not finite");
  return bad;
}

std::string grid_digest(const std::vector<core::Experiments::RunResult>& cells) {
  std::string out;
  for (const auto& c : cells) appendf(&out, "%.9g/%zu ", c.true_qoe, c.session.chunks().size());
  return out;
}

std::vector<std::string> grid_violations(const std::vector<core::Experiments::RunResult>& cells,
                                         const char* policy) {
  std::vector<std::string> bad;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (!std::isfinite(cells[i].true_qoe)) {
      bad.push_back(std::string(policy) + " cell " + std::to_string(i) + ": true_qoe not finite");
    }
    if (cells[i].session.chunks().empty()) {
      bad.push_back(std::string(policy) + " cell " + std::to_string(i) + ": no chunks");
    }
  }
  return bad;
}

uint64_t fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
