// DAS-IP-style Whittle-index ABR (Singh & Kumar, "Dynamic Adaptive
// Streaming using Index-Based Learning Algorithms" — see PAPERS.md).
//
// The restless-bandit view: each rung of the ladder is an arm whose
// activation cost is the download time it would steal from the buffer, and
// the Whittle index of a rung is the net per-chunk quality the policy would
// collect by pulling it *now*, given the current buffer level and a point
// throughput forecast. We specialize the index to the deterministic-fluid
// limit (point forecast, linear drain), which collapses it to a closed
// form per rung:
//
//   I_l(b) = vq_l
//            - beta_switch * |vq_l - vq_prev|
//            - beta_rebuf  * pen(max(0, T_l - b))            (stall risk)
//            - drain_penalty * max(0, headroom*T_l - (b - T_l))  (drain risk)
//
// where T_l is the predicted download time of rung l and pen() is the
// shared saturating stall penalty (qoe/chunk_quality.h). The stall term
// charges the part of the download the buffer cannot cover; the drain term
// charges choices that land the post-download buffer under a headroom
// proportional to the download time, which is what makes the index back
// off *before* it is staring at an empty buffer. Both max(0, ·) terms are
// nonincreasing in b, so the index is monotone nondecreasing in buffer —
// the indexability property the tests pin.
//
// decide() is an argmax over rungs — one whittle_index_row call over
// the ladder (util/kernels) followed by a strict argmax: O(levels), zero
// steady-state heap allocation, no lookahead recursion — near-MPC quality
// at BBA-like cost, which is why the fleet workload mix uses it as the
// cheap default (sim/workload.h).
#pragma once

#include <vector>

#include "net/predictor.h"
#include "qoe/chunk_quality.h"
#include "sim/player.h"

namespace sensei::abr {

struct WhittleConfig {
  double safety = 0.9;         // use this fraction of the predicted throughput
  size_t window = 8;           // harmonic-mean predictor taps
  double headroom = 0.5;       // post-download buffer floor, in download times
  double drain_penalty = 0.6;  // cost per second of headroom shortfall
  qoe::ChunkQualityParams chunk;
};

class WhittleIndexAbr : public sim::AbrPolicy {
 public:
  explicit WhittleIndexAbr(WhittleConfig config = WhittleConfig());

  const char* name() const override { return "Whittle"; }
  void begin_session(const media::EncodedVideo& video) override;
  sim::AbrDecision decide(const sim::AbrObservation& obs) override;

  // The closed-form index of one rung at buffer level `buffer_s` under
  // throughput budget `budget_kbps` (already safety-scaled). Exposed so
  // tests can pin monotonicity in buffer directly.
  double level_index(const sim::AbrObservation& obs, size_t level, double buffer_s,
                     double budget_kbps) const;

  const WhittleConfig& config() const { return config_; }

 private:
  WhittleConfig config_;
  net::HarmonicMeanPredictor predictor_;
  // SoA scratch rows over the ladder for decide()'s index row (sized to
  // the level count on first use, reused across decisions).
  std::vector<double> row_bytes_;
  std::vector<double> row_vq_;
  std::vector<double> row_prev_;
  std::vector<double> row_idx_;
};

}  // namespace sensei::abr
