// Scalar row helpers for the hot inner rows.
//
// The planners, the Whittle index, and the scenario generators all spend
// their time in the same few elementwise rows: download times (a divide per
// scenario), the no-stall chunk-quality expression, and the per-rung index
// map. Each row is one plain loop here, called once per row instead of
// once per element.
//
// Every helper spells out its min/max as a ternary with an explicit operand
// order (`floor < q ? q : floor` is std::max(floor, q)). std::min/std::max
// return the first argument on ties and on an unordered (NaN) compare, so
// the operand order decides which of +0.0/-0.0 or which NaN survives;
// writing it out pins the bits the repo's determinism gates (fig14 grid,
// fleet rows, resilience literals) compare. Multiply-then-add sequences
// stay two rounded operations: the build compiles ISO C++ for baseline
// x86-64, so nothing fuses them into an FMA.
#pragma once

#include <cmath>
#include <cstddef>

namespace sensei::util {

// The implementation the row helpers run on. Always "scalar"; reported in
// host fingerprints.
inline const char* kernel_backend_name() { return "scalar"; }

namespace kernels {

// --- elementwise rows ----------------------------------------------------

// out[i] = num / max(den_floor, den[i]) + add
// The planner download-time row: bits_kb / clamped-kbps + RTT.
inline void div_add_row(double num, const double* den, size_t n, double den_floor,
                        double add, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double d = den_floor < den[i] ? den[i] : den_floor;  // max(den_floor, den)
    out[i] = num / d + add;
  }
}

// out[i] = x[i] / den  (probability normalization)
inline void div_scalar_row(const double* x, size_t n, double den, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = x[i] / den;
}

// No-stall chunk quality, visual quality varying (root_qn_ rows):
//   out[i] = max(floor, vq[i] - bsw * |vq[i] - prev_vq|)
inline void chunk_quality_nostall_row(const double* vq, size_t n, double prev_vq,
                                      double bsw, double floor, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double q = vq[i] - bsw * std::fabs(vq[i] - prev_vq);
    out[i] = floor < q ? q : floor;
  }
}

// No-stall chunk quality, previous level varying (the PlanBatch qn table's
// contiguous axis): out[i] = max(floor, vq - bsw * |vq - prev_vq[i]|)
inline void chunk_quality_nostall_prev_row(double vq, const double* prev_vq, size_t n,
                                           double bsw, double floor, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double q = vq - bsw * std::fabs(vq - prev_vq[i]);
    out[i] = floor < q ? q : floor;
  }
}

// The DAS-IP Whittle index of every rung in one call (abr/whittle.h):
//   dl     = (size_bytes[i] * 8) / den        (den = budget_kbps * 1000)
//   unc    = max(0, dl - buffer_s)
//   pen    = unc <= 0 ? 0 : unc / (1 + sat * unc)
//   short  = max(0, headroom * dl - (buffer_s - dl))
//   out[i] = vq[i] - bsw * |vq[i] - prev_vq[i]| - br * pen - drain * short
inline void whittle_index_row(const double* size_bytes, const double* vq,
                              const double* prev_vq, size_t n, double den,
                              double buffer_s, double headroom, double drain, double br,
                              double sat, double bsw, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double dl = (size_bytes[i] * 8.0) / den;
    const double ad = std::fabs(vq[i] - prev_vq[i]);
    const double unc_raw = dl - buffer_s;
    const double unc = 0.0 < unc_raw ? unc_raw : 0.0;  // max(0, .)
    const double pen = unc <= 0.0 ? 0.0 : unc / (1.0 + sat * unc);
    const double short_raw = headroom * dl - (buffer_s - dl);
    const double shortfall = 0.0 < short_raw ? short_raw : 0.0;
    out[i] = vq[i] - bsw * ad - br * pen - drain * shortfall;
  }
}

// The triangular scenario fan (net::triangular_scenarios), probabilities
// unnormalized (callers fold with sum_row + div_scalar_row):
//   pos     = count == 1 ? 0 : -1 + 2 * i / (count - 1)
//   prob[i] = 1 + (1 - |pos|)
//   kbps[i] = max(floor_kbps, center * (1 + cv * pos))
inline void triangular_fan(size_t count, double center, double cv, double floor_kbps,
                           double* kbps, double* prob) {
  const double span = count > 1 ? static_cast<double>(count - 1) : 1.0;
  for (size_t i = 0; i < count; ++i) {
    const double pos = count == 1 ? 0.0 : -1.0 + 2.0 * static_cast<double>(i) / span;
    const double p = 1.0 + (1.0 - std::fabs(pos));
    const double k = center * (1.0 + cv * pos);
    kbps[i] = floor_kbps < k ? k : floor_kbps;  // max(floor_kbps, k)
    prob[i] = p;
  }
}

// Relative log2-binned kbps quantizer (abr::quantize_kbps batched):
//   out[i] = exp2(llround(log2(max(1, kbps[i])) * bins_per_octave)
//                 / bins_per_octave)
inline void quantize_kbps_row(const double* kbps, size_t n, double bins_per_octave,
                              double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double k = 1.0 < kbps[i] ? kbps[i] : 1.0;  // max(1, kbps)
    out[i] = std::exp2(
        static_cast<double>(std::llround(std::log2(k) * bins_per_octave)) /
        bins_per_octave);
  }
}

// --- order-pinned reductions ---------------------------------------------

// Sequential left-to-right sum (the aggregate folds' pinned order).
inline double sum_row(const double* x, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

// First index attaining the strict maximum (ties keep the lowest index,
// NaNs never win) — the planners' and the Whittle policy's argmax
// semantics, evaluated branchlessly.
inline size_t argmax_strict_row(const double* x, size_t n) {
  if (n == 0) return 0;
  size_t best = 0;
  double best_v = x[0];
  for (size_t i = 1; i < n; ++i) {
    const bool gt = x[i] > best_v;
    best_v = gt ? x[i] : best_v;
    best = gt ? i : best;
  }
  return best;
}

}  // namespace kernels
}  // namespace sensei::util
