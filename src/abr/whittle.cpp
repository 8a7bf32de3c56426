#include "abr/whittle.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/kernels.h"

namespace sensei::abr {

WhittleIndexAbr::WhittleIndexAbr(WhittleConfig config)
    : config_(config), predictor_(config.window) {
  if (config_.safety <= 0.0) throw std::invalid_argument("WhittleConfig: safety must be > 0");
  if (config_.headroom < 0.0) throw std::invalid_argument("WhittleConfig: headroom must be >= 0");
  if (config_.drain_penalty < 0.0) {
    throw std::invalid_argument("WhittleConfig: drain_penalty must be >= 0");
  }
}

void WhittleIndexAbr::begin_session(const media::EncodedVideo& video) {
  (void)video;
  predictor_.reset();
}

double WhittleIndexAbr::level_index(const sim::AbrObservation& obs, size_t level,
                                    double buffer_s, double budget_kbps) const {
  const media::EncodedVideo& video = *obs.video;
  // Predicted download time of this rung at the safety-scaled budget.
  double bits = video.size_bytes(obs.next_chunk, level) * 8.0;
  double download_s = bits / (budget_kbps * 1000.0);

  double vq = video.visual_quality(obs.next_chunk, level);
  double vq_prev =
      obs.next_chunk > 0 ? video.visual_quality(obs.next_chunk - 1, obs.last_level) : vq;

  // Stall risk: the part of the download the buffer cannot cover, priced by
  // the same saturating penalty the QoE model charges for a real stall.
  double uncovered_s = std::max(0.0, download_s - buffer_s);
  // Drain risk: post-download buffer below headroom * download time. This
  // fires earlier than the stall term, so the index de-escalates while
  // there is still buffer to protect.
  double shortfall_s = std::max(0.0, config_.headroom * download_s - (buffer_s - download_s));

  return vq - config_.chunk.beta_switch * std::abs(vq - vq_prev) -
         config_.chunk.beta_rebuf * qoe::stall_penalty(uncovered_s, config_.chunk) -
         config_.drain_penalty * shortfall_s;
}

sim::AbrDecision WhittleIndexAbr::decide(const sim::AbrObservation& obs) {
  if (obs.last_throughput_kbps > 0.0) predictor_.observe(obs.last_throughput_kbps);
  double budget_kbps = config_.safety * predictor_.predict_kbps();
  sim::AbrDecision d;
  if (!(budget_kbps > 0.0)) return d;  // degenerate forecast: lowest rung

  // One index row over the whole ladder, element for element the level_index
  // expression, then a strict argmax (ties keep the lowest rung) — exactly
  // the scalar loop this replaces.
  const media::EncodedVideo& video = *obs.video;
  const size_t levels = video.ladder().level_count();
  if (row_bytes_.size() < levels) {
    row_bytes_.resize(levels);
    row_vq_.resize(levels);
    row_prev_.resize(levels);
    row_idx_.resize(levels);
  }
  for (size_t l = 0; l < levels; ++l) {
    row_bytes_[l] = static_cast<double>(video.size_bytes(obs.next_chunk, l));
    row_vq_[l] = video.visual_quality(obs.next_chunk, l);
  }
  if (obs.next_chunk > 0) {
    const double prev = video.visual_quality(obs.next_chunk - 1, obs.last_level);
    std::fill(row_prev_.begin(), row_prev_.begin() + levels, prev);
  } else {
    // First chunk: level_index seeds the smoothness term with the rung's
    // own quality, so the previous-quality row is the quality row itself.
    std::copy(row_vq_.begin(), row_vq_.begin() + levels, row_prev_.begin());
  }
  const double den = budget_kbps * 1000.0;
  util::kernels::whittle_index_row(row_bytes_.data(), row_vq_.data(), row_prev_.data(),
                                   levels, den, obs.buffer_s, config_.headroom,
                                   config_.drain_penalty, config_.chunk.beta_rebuf,
                                   config_.chunk.rebuf_saturation,
                                   config_.chunk.beta_switch, row_idx_.data());
  d.level = util::kernels::argmax_strict_row(row_idx_.data(), levels);
  return d;
}

}  // namespace sensei::abr
