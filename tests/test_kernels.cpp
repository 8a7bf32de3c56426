// Row-helper gates (util/kernels.h): each helper cross-checked bit-for-bit
// against the scalar code it batches (qoe::chunk_quality, abr::quantize_kbps,
// WhittleIndexAbr::level_index, net::triangular_scenarios), the planners'
// buffer bucket map, the order-pinned reductions, and the ScenarioPredictor
// memo.
#include "util/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "abr/planner.h"
#include "abr/whittle.h"
#include "media/dataset.h"
#include "media/encoder.h"
#include "net/predictor.h"
#include "qoe/chunk_quality.h"

namespace sensei::util {
namespace {

constexpr size_t kLen = 19;

// Uniform draws in [lo, hi) from a fixed seed.
class Draw {
 public:
  explicit Draw(uint64_t seed) : rng_(seed) {}
  double operator()(double lo, double hi) {
    return lo + (hi - lo) * std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  }

 private:
  std::mt19937_64 rng_;
};

TEST(KernelCrossCheck, ChunkQualityMatchesQoeHelper) {
  qoe::ChunkQualityParams params;  // the production defaults
  Draw draw(21);
  std::vector<double> vq(kLen), prev(kLen), out(kLen);
  for (size_t i = 0; i < kLen; ++i) {
    vq[i] = draw(0.0, 5.0);
    prev[i] = draw(0.0, 5.0);
  }
  // The no-stall rows against the helper at zero stall.
  kernels::chunk_quality_nostall_row(vq.data(), kLen, prev[0], params.beta_switch,
                                     params.floor, out.data());
  for (size_t i = 0; i < kLen; ++i) {
    EXPECT_EQ(out[i], qoe::chunk_quality(vq[i], 0.0, prev[0], params)) << "i=" << i;
  }
  kernels::chunk_quality_nostall_prev_row(vq[0], prev.data(), kLen, params.beta_switch,
                                          params.floor, out.data());
  for (size_t i = 0; i < kLen; ++i) {
    EXPECT_EQ(out[i], qoe::chunk_quality(vq[0], 0.0, prev[i], params)) << "i=" << i;
  }
}

TEST(KernelCrossCheck, QuantizeAndBucketMatchPlannerHelpers) {
  Draw draw(23);
  std::vector<double> kbps(kLen), qout(kLen);
  for (size_t i = 0; i < kLen; ++i) kbps[i] = draw(-10.0, 20000.0);
  kernels::quantize_kbps_row(kbps.data(), kLen, abr::kViKbpsBinsPerOctave, qout.data());
  for (size_t i = 0; i < kLen; ++i) {
    EXPECT_EQ(qout[i], abr::quantize_kbps(kbps[i])) << "i=" << i;
  }
  // The buffer bucket map: everything at or below zero (and NaN) lands in
  // bucket 0; positive buffers round to the nearest bucket.
  const double q = abr::kDefaultViBufferQuantumS;
  for (double b : {-0.0, 0.0, -3.5, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(abr::buffer_bucket(b, q), 0u) << b;
  }
  for (size_t i = 0; i < kLen; ++i) {
    const double b = draw(1e-3, 35.0);
    const double center = static_cast<double>(abr::buffer_bucket(b, q)) * q;
    EXPECT_LE(std::fabs(b - center), 0.5 * q + 1e-12) << "b=" << b;
  }
}

TEST(KernelCrossCheck, WhittleRowMatchesLevelIndex) {
  media::EncodedVideo video = media::Encoder().encode(
      media::SourceVideo::generate("KernelWhittle", media::Genre::kSports, 30));
  abr::WhittleIndexAbr wh;
  const abr::WhittleConfig& cfg = wh.config();
  sim::AbrObservation obs;
  obs.video = &video;
  obs.num_chunks = video.num_chunks();
  obs.next_chunk = 3;
  obs.last_level = 1;
  obs.buffer_s = 6.5;
  const double budget_kbps = 2400.0;
  const size_t L = video.ladder().level_count();
  std::vector<double> bytes(L), vq(L), prev(L), idx(L);
  for (size_t l = 0; l < L; ++l) {
    bytes[l] = static_cast<double>(video.size_bytes(obs.next_chunk, l));
    vq[l] = video.visual_quality(obs.next_chunk, l);
    prev[l] = video.visual_quality(obs.next_chunk - 1, obs.last_level);
  }
  kernels::whittle_index_row(bytes.data(), vq.data(), prev.data(), L, budget_kbps * 1000.0,
                             obs.buffer_s, cfg.headroom, cfg.drain_penalty,
                             cfg.chunk.beta_rebuf, cfg.chunk.rebuf_saturation,
                             cfg.chunk.beta_switch, idx.data());
  for (size_t l = 0; l < L; ++l) {
    EXPECT_EQ(idx[l], wh.level_index(obs, l, obs.buffer_s, budget_kbps)) << "level=" << l;
  }
}

TEST(KernelCrossCheck, TriangularFanMatchesScenarioFan) {
  for (size_t count : {1u, 2u, 5u, 16u}) {
    const auto fan = net::triangular_scenarios(count, 3100.0, 0.4);
    ASSERT_EQ(fan.size(), count);
    std::vector<double> kbps(count), prob(count);
    kernels::triangular_fan(count, 3100.0, 0.4, 30.0, kbps.data(), prob.data());
    const double total = kernels::sum_row(prob.data(), count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(fan[i].kbps, kbps[i]) << "count=" << count << " i=" << i;
      EXPECT_EQ(fan[i].probability, prob[i] / total) << "count=" << count << " i=" << i;
    }
  }
}

TEST(KernelCrossCheck, OrderPinnedPrimitives) {
  Draw draw(24);
  std::vector<double> x(kLen);
  for (size_t i = 0; i < kLen; ++i) x[i] = draw(-10.0, 10.0);
  x[4] = x[9] = x[12];  // force ties for the argmax tie-break check
  double sum = 0.0;
  size_t best = 0;
  for (size_t i = 0; i < kLen; ++i) {
    sum += x[i];
    if (x[i] > x[best]) best = i;
  }
  EXPECT_EQ(kernels::sum_row(x.data(), kLen), sum);
  EXPECT_EQ(kernels::argmax_strict_row(x.data(), kLen), best);
  EXPECT_EQ(kernels::argmax_strict_row(x.data(), 0), 0u);
}

// The ScenarioPredictor memo must be invisible: scenarios_into on an
// unchanged window replays the exact fan, and a new observation refreshes it.
TEST(KernelCrossCheck, ScenarioPredictorCacheIsTransparent) {
  net::ScenarioPredictor cached(8), plain(8);
  std::vector<net::ThroughputScenario> a, b, c;
  std::mt19937_64 rng(77);
  for (int i = 0; i < 40; ++i) {
    const double kbps = 500.0 + static_cast<double>(rng() % 4000);
    cached.observe(kbps);
    plain.observe(kbps);
    cached.scenarios_into(a);
    cached.scenarios_into(b);  // unchanged window: served from the memo
    plain.scenarios_into(c);
    ASSERT_EQ(a.size(), 3u);
    for (size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(a[s].kbps, b[s].kbps) << i;
      EXPECT_EQ(a[s].probability, b[s].probability) << i;
      EXPECT_EQ(a[s].kbps, c[s].kbps) << i;
      EXPECT_EQ(a[s].probability, c[s].probability) << i;
    }
  }
}

}  // namespace
}  // namespace sensei::util
