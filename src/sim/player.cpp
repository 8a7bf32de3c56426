#include "sim/player.h"

#include <stdexcept>

#include "sim/session_engine.h"

namespace sensei::sim {

void validate(const PlayerConfig& config) {
  if (!(config.max_buffer_s > 0.0)) throw std::runtime_error("player: max buffer must be > 0");
  const ResilienceConfig& res = config.resilience;
  if (!(res.request_timeout_s > 0.0))
    throw std::runtime_error("player: request timeout must be positive");
  if (res.enabled() &&
      (!(res.backoff_base_s >= 0.0) || !(res.backoff_factor >= 1.0) ||
       !(res.backoff_max_s >= 0.0) || !(res.backoff_jitter_frac >= 0.0) ||
       !(res.backoff_jitter_frac < 1.0))) {
    throw std::runtime_error("player: invalid backoff configuration");
  }
}

Player::Player(PlayerConfig config) : config_(config) { validate(config_); }

SessionResult Player::stream(const media::EncodedVideo& video,
                             const net::ThroughputTrace& trace, AbrPolicy& policy,
                             const std::vector<double>& weights) const {
  return SessionEngine(config_, video, trace, policy, weights).run();
}

}  // namespace sensei::sim
