// Per-layer instrumentation for the traced run, entirely from outside the
// library: a log-bucketed latency histogram, a timing decorator around
// every registry-built sim::AbrPolicy, and the span log the traced run
// writes out at the end.
//
// The decorator works through the registry's public surface only. It
// snapshots abr::PolicyRegistry::instance() by copy, then re-registers
// every name with its original keys and a factory that wraps
// snapshot.make(spec) in a TimedPolicy. Canonical specs do not change, so
// the fleet's pool layout and every output stay byte-identical (the traced
// run checks its digests against the untraced ones).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "abr/registry.h"

namespace perfbench {

// steady_clock time in nanoseconds.
uint64_t steady_ns();

// Nanosecond latency histogram with 16 sub-buckets per power of two:
// values below 32 are exact, larger ones land in buckets at most 1/16 of
// their value wide. Counts, sum, min and max are exact.
class LogHistogram {
 public:
  static constexpr unsigned kSubBits = 4;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = (64 - kSubBits + 1) * kSub;

  void add(uint64_t value_ns);
  void merge(const LogHistogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  // Nearest-rank percentile, q in [0, 1]: the midpoint of the bucket that
  // holds the ceil(q * count)-th smallest value, exact below 32; the first
  // and last ranks are the exact min and max. 0 when empty.
  double percentile(double q) const;

  static size_t bucket_of(uint64_t value);
  static uint64_t bucket_lower(size_t bucket);
  static uint64_t bucket_width(size_t bucket);

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

// The decide-timing label of a canonical spec: the policy name, with
// "-<planner>" appended when the spec has a planner key ("fugu-vi",
// "sensei-fugu-dp").
std::string policy_kind(const sensei::abr::PolicySpec& canonical);

// Everything the decorator measured since the last harvest, summed over
// every thread that ran a policy.
struct AbrLayerStats {
  struct Kind {
    LogHistogram decide;
    uint64_t begin_calls = 0;
    uint64_t begin_ns = 0;
    uint64_t make_calls = 0;
    uint64_t make_ns = 0;
  };
  std::map<std::string, Kind> kinds;
  // Plan batches seen through attach_plan_batch: how many, the VI tables
  // they held when their policies detached, and the largest batch's bytes.
  uint64_t plan_batches = 0;
  uint64_t vi_tables = 0;
  uint64_t table_bytes_max = 0;

  // Time spent inside the decorator's calls (decide + begin + make).
  uint64_t decorated_ns() const;
};

// Installs and removes the timing decorator on the process registry.
// Not thread-safe against concurrent make(): install, uninstall and
// harvest only between runs.
class PolicyTimer {
 public:
  PolicyTimer();
  ~PolicyTimer();
  PolicyTimer(const PolicyTimer&) = delete;
  PolicyTimer& operator=(const PolicyTimer&) = delete;

  // Re-registers every policy so that make() returns a TimedPolicy.
  void install();
  // Re-registers the snapshot's original factories.
  void uninstall();
  bool installed() const { return installed_; }

  // Merges every thread's counters and resets them.
  AbrLayerStats harvest();

 private:
  sensei::abr::PolicyRegistry snapshot_;
  bool installed_ = false;
};

// One span of the traced run: setup steps, each run / run_grid call and
// each fleet cell. Times are steady_ns() values.
struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;  // index into the log, -1 for a root
};

class SpanLog {
 public:
  // Returns the new span's index.
  int add(std::string name, uint64_t start_ns, uint64_t end_ns, int parent = -1);
  // Sets the end of a span opened with end_ns == start_ns.
  void close(int id, uint64_t end_ns) { spans_.at(static_cast<size_t>(id)).end_ns = end_ns; }
  const std::vector<Span>& spans() const { return spans_; }
  // Writes {"spans": [{"id", "name", "start_ns", "end_ns", "parent"}...]}
  // to `path`, times relative to the earliest span; false when it cannot.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
