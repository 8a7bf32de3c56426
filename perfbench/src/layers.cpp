#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "abr/planner.h"
#include "sim/player.h"

namespace perfbench {

namespace abr = sensei::abr;
namespace sim = sensei::sim;

uint64_t steady_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// --- LogHistogram ----------------------------------------------------------

size_t LogHistogram::bucket_of(uint64_t value) {
  if (value < 2 * kSub) return static_cast<size_t>(value);
  const unsigned exp = 63u - static_cast<unsigned>(__builtin_clzll(value));  // >= kSubBits + 1
  const unsigned shift = exp - kSubBits;
  const uint64_t top = value >> shift;  // in [kSub, 2 * kSub)
  return static_cast<size_t>((shift + 1) * kSub + (top - kSub));
}

uint64_t LogHistogram::bucket_lower(size_t bucket) {
  if (bucket < 2 * kSub) return bucket;
  const unsigned shift = static_cast<unsigned>(bucket / kSub) - 1;
  return (kSub + bucket % kSub) << shift;
}

uint64_t LogHistogram::bucket_width(size_t bucket) {
  if (bucket < 2 * kSub) return 1;
  return uint64_t{1} << (bucket / kSub - 1);
}

void LogHistogram::add(uint64_t value_ns) {
  ++counts_[bucket_of(value_ns)];
  min_ = count_ == 0 ? value_ns : std::min(min_, value_ns);
  max_ = std::max(max_, value_ns);
  ++count_;
  sum_ += value_ns;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

double LogHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  if (rank == 1) return static_cast<double>(min_);
  if (rank >= count_) return static_cast<double>(max_);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) {
      const double mid = static_cast<double>(bucket_lower(b)) +
                         static_cast<double>(bucket_width(b) - 1) / 2.0;
      return std::clamp(mid, static_cast<double>(min_), static_cast<double>(max_));
    }
  }
  return static_cast<double>(max_);
}

// --- per-thread decorator counters ------------------------------------------

std::string policy_kind(const abr::PolicySpec& canonical) {
  const std::string* planner = canonical.find("planner");
  return planner ? canonical.name + "-" + *planner : canonical.name;
}

uint64_t AbrLayerStats::decorated_ns() const {
  uint64_t total = 0;
  for (const auto& [kind, k] : kinds) total += k.decide.sum() + k.begin_ns + k.make_ns;
  return total;
}

namespace {

// Counters one thread writes while it runs policies. The main thread reads
// them only between runs, after the runner has joined its tasks.
struct ThreadStats {
  std::vector<AbrLayerStats::Kind> kinds;  // by kind id

  // The plan batch the policies on this thread are attached to. A fleet
  // cell attaches one batch to every policy it admits and detaches them
  // all when it ends; the table counts are read at the first detach.
  const abr::PlanBatch* open_batch = nullptr;
  bool open_detached = false;
  uint64_t open_tables = 0;
  uint64_t open_bytes = 0;
  uint64_t batches = 0;
  uint64_t vi_tables = 0;
  uint64_t bytes_max = 0;

  AbrLayerStats::Kind& kind(size_t id) {
    if (kinds.size() <= id) kinds.resize(id + 1);
    return kinds[id];
  }

  void close_batch() {
    if (open_batch == nullptr) return;
    ++batches;
    vi_tables += open_tables;
    bytes_max = std::max(bytes_max, open_bytes);
    open_batch = nullptr;
    open_detached = false;
    open_tables = open_bytes = 0;
  }
};

struct Collector {
  std::mutex mutex;
  std::vector<std::string> kind_names;
  std::vector<std::shared_ptr<ThreadStats>> threads;

  size_t kind_id(const std::string& kind) {
    std::lock_guard<std::mutex> lock(mutex);
    for (size_t i = 0; i < kind_names.size(); ++i) {
      if (kind_names[i] == kind) return i;
    }
    kind_names.push_back(kind);
    return kind_names.size() - 1;
  }
};

Collector& collector() {
  static Collector c;
  return c;
}

ThreadStats& local_stats() {
  thread_local std::shared_ptr<ThreadStats> stats;
  if (!stats) {
    stats = std::make_shared<ThreadStats>();
    Collector& c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.threads.push_back(stats);
  }
  return *stats;
}

class TimedPolicy : public sim::AbrPolicy {
 public:
  TimedPolicy(std::unique_ptr<sim::AbrPolicy> inner, size_t kind)
      : inner_(std::move(inner)), kind_(kind) {}

  const char* name() const override { return inner_->name(); }

  void begin_session(const sensei::media::EncodedVideo& video) override {
    const uint64_t t0 = steady_ns();
    inner_->begin_session(video);
    const uint64_t dt = steady_ns() - t0;
    AbrLayerStats::Kind& k = local_stats().kind(kind_);
    ++k.begin_calls;
    k.begin_ns += dt;
  }

  sim::AbrDecision decide(const sim::AbrObservation& obs) override {
    const uint64_t t0 = steady_ns();
    sim::AbrDecision d = inner_->decide(obs);
    const uint64_t dt = steady_ns() - t0;
    local_stats().kind(kind_).decide.add(dt);
    return d;
  }

  void attach_plan_batch(abr::PlanBatch* batch) override {
    ThreadStats& t = local_stats();
    if (batch != nullptr) {
      if (batch != t.open_batch || t.open_detached) {
        t.close_batch();
        t.open_batch = batch;
      }
    } else if (batch_ != nullptr && batch_ == t.open_batch && !t.open_detached) {
      t.open_detached = true;
      t.open_tables = batch_->num_vi_tables();
      t.open_bytes = batch_->table_bytes();
    }
    batch_ = batch;
    inner_->attach_plan_batch(batch);
  }

 private:
  std::unique_ptr<sim::AbrPolicy> inner_;
  size_t kind_;
  abr::PlanBatch* batch_ = nullptr;
};

}  // namespace

// --- PolicyTimer -------------------------------------------------------------

PolicyTimer::PolicyTimer() : snapshot_(abr::PolicyRegistry::instance()) {}

PolicyTimer::~PolicyTimer() {
  if (installed_) uninstall();
}

void PolicyTimer::install() {
  if (installed_) return;
  abr::PolicyRegistry& registry = abr::PolicyRegistry::instance();
  for (const std::string& name : snapshot_.names()) {
    registry.register_policy(
        name, snapshot_.keys(name), [this](const abr::PolicySpec& spec) {
          const size_t kind = collector().kind_id(policy_kind(spec));
          const uint64_t t0 = steady_ns();
          std::unique_ptr<sim::AbrPolicy> inner = snapshot_.make(spec);
          const uint64_t dt = steady_ns() - t0;
          AbrLayerStats::Kind& k = local_stats().kind(kind);
          ++k.make_calls;
          k.make_ns += dt;
          return std::unique_ptr<sim::AbrPolicy>(
              std::make_unique<TimedPolicy>(std::move(inner), kind));
        });
  }
  installed_ = true;
}

void PolicyTimer::uninstall() {
  abr::PolicyRegistry::instance() = snapshot_;
  installed_ = false;
}

AbrLayerStats PolicyTimer::harvest() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mutex);
  AbrLayerStats out;
  for (const auto& t : c.threads) {
    t->close_batch();
    out.plan_batches += t->batches;
    out.vi_tables += t->vi_tables;
    out.table_bytes_max = std::max(out.table_bytes_max, t->bytes_max);
    for (size_t id = 0; id < t->kinds.size(); ++id) {
      const AbrLayerStats::Kind& src = t->kinds[id];
      if (src.decide.count() == 0 && src.begin_calls == 0 && src.make_calls == 0) continue;
      AbrLayerStats::Kind& dst = out.kinds[c.kind_names[id]];
      dst.decide.merge(src.decide);
      dst.begin_calls += src.begin_calls;
      dst.begin_ns += src.begin_ns;
      dst.make_calls += src.make_calls;
      dst.make_ns += src.make_ns;
    }
    *t = ThreadStats();
  }
  return out;
}

// --- SpanLog -------------------------------------------------------------------

int SpanLog::add(std::string name, uint64_t start_ns, uint64_t end_ns, int parent) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, \"parent\": %d}",
                 i ? "," : "", i, s.name.c_str(),
                 static_cast<unsigned long long>(s.start_ns - origin),
                 static_cast<unsigned long long>(s.end_ns - origin), s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
