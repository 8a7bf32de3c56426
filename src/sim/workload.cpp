#include "sim/workload.h"

#include <cmath>
#include <stdexcept>

#include "abr/registry.h"
#include "net/trace_gen.h"

namespace sensei::sim {

namespace {

// Fixed salts separating the generator's derived streams: the arrival
// stream must not share state with the trace stream, or draw-order changes
// would reshape the network.
constexpr uint64_t kArrivalSalt = 0x5e55e1a5'00000001ULL;
constexpr uint64_t kTraceSalt = 0x5e55e1a5'00000002ULL;

}  // namespace

const char* to_string(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kDiurnal: return "diurnal";
  }
  return "?";
}

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig& config, uint64_t seed)
    : config_(config), rng_(seed ^ kArrivalSalt), seed_(seed) {
  if (!(config_.arrival_rate_per_s > 0.0))
    throw std::runtime_error("workload: arrival rate must be > 0");
  if (!(config_.arrival_window_s > 0.0))
    throw std::runtime_error("workload: arrival window must be > 0");
  if (config_.arrivals == ArrivalProcess::kDiurnal && !(config_.diurnal_period_s > 0.0))
    throw std::runtime_error("workload: diurnal period must be > 0");
  if (!(config_.diurnal_trough >= 0.0 && config_.diurnal_trough <= 1.0))
    throw std::runtime_error("workload: diurnal trough must be in [0, 1]");
  if (!(config_.abandon_fraction >= 0.0 && config_.abandon_fraction <= 1.0))
    throw std::runtime_error("workload: abandon fraction must be in [0, 1]");
  if (config_.abandon_fraction > 0.0 && !(config_.mean_abandon_chunks >= 1.0))
    throw std::runtime_error("workload: mean abandon chunks must be >= 1");
  if (config_.policy_mix.empty())
    throw std::runtime_error("workload: policy mix must weight at least one policy");
  // Canonicalize every mix spec now: a typo fails here at construction, not
  // on a worker thread mid-run, and downstream pooling keys on the result.
  const abr::PolicyRegistry& registry = abr::PolicyRegistry::instance();
  canonical_specs_.reserve(config_.policy_mix.size());
  mix_weights_.reserve(config_.policy_mix.size());
  double mix_sum = 0.0;
  for (const PolicyMixEntry& entry : config_.policy_mix) {
    if (entry.weight < 0.0) throw std::runtime_error("workload: policy weights must be >= 0");
    mix_sum += entry.weight;
    canonical_specs_.push_back(registry.canonical_string(entry.spec));
    mix_weights_.push_back(entry.weight);
  }
  if (!(mix_sum > 0.0)) throw std::runtime_error("workload: policy mix must have weight");
  if (config_.num_videos == 0) throw std::runtime_error("workload: empty video pool");
  if (!(config_.trace_mean_kbps_min > 0.0) ||
      config_.trace_mean_kbps_max < config_.trace_mean_kbps_min)
    throw std::runtime_error("workload: trace mean band must be positive and ordered");
  if (config_.trace_cellular_fraction < 0.0 || config_.trace_cellular_fraction > 1.0)
    throw std::runtime_error("workload: cellular fraction must be in [0, 1]");
}

bool WorkloadGenerator::next(SessionArrival* out) {
  // Candidate arrivals come from a Poisson process at the peak rate; the
  // diurnal curve thins them (Lewis-Shedler), which keeps every candidate a
  // fixed two draws (gap, acceptance) so the stream stays reproducible.
  while (true) {
    t_ += rng_.exponential(1.0 / config_.arrival_rate_per_s);
    if (t_ >= config_.arrival_window_s) return false;
    if (config_.arrivals == ArrivalProcess::kPoisson) break;
    double phase = 2.0 * M_PI * t_ / config_.diurnal_period_s;
    double shape = 0.5 * (1.0 - std::cos(phase));
    double accept = config_.diurnal_trough + (1.0 - config_.diurnal_trough) * shape;
    if (rng_.chance(accept)) break;
  }

  out->start_s = t_;
  out->video_index =
      config_.num_videos == 1
          ? 0
          : static_cast<size_t>(rng_.uniform(0.0, static_cast<double>(config_.num_videos)));
  if (out->video_index >= config_.num_videos) out->video_index = config_.num_videos - 1;
  out->policy_index = rng_.weighted_index(mix_weights_);
  if (config_.abandon_fraction > 0.0 && rng_.chance(config_.abandon_fraction)) {
    // At least one chunk: a viewer who leaves before any download is
    // indistinguishable from one who never arrived.
    out->chunk_limit =
        1 + static_cast<size_t>(rng_.exponential(config_.mean_abandon_chunks - 1.0 + 1e-12));
  } else {
    out->chunk_limit = static_cast<size_t>(-1);
  }
  ++count_;
  return true;
}

net::ThroughputTrace WorkloadGenerator::make_trace(const std::string& name) const {
  util::Rng rng(seed_ ^ kTraceSalt);
  bool cellular = rng.chance(config_.trace_cellular_fraction);
  double mean_kbps = rng.uniform(config_.trace_mean_kbps_min, config_.trace_mean_kbps_max);
  uint64_t trace_seed = seed_ ^ (kTraceSalt << 1);
  return cellular ? net::TraceGenerator::cellular(name, mean_kbps, config_.trace_duration_s,
                                                 trace_seed)
                  : net::TraceGenerator::broadband(name, mean_kbps, config_.trace_duration_s,
                                                  trace_seed);
}

}  // namespace sensei::sim
