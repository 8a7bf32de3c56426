// ThroughputTrace's integrator with the linear reference scan, frozen as
// the indexed search's reference. Every expression but the finishing-
// interval search is the production integrator's, in the same order.
#include "oracle/oracle.h"

#include <cmath>
#include <limits>
#include <vector>

namespace sensei::oracle {

using net::ThroughputTrace;
using net::TransferResult;

namespace {

TransferResult dead_link() {
  TransferResult result;
  result.completed = false;
  result.elapsed_s = std::numeric_limits<double>::infinity();
  return result;
}

}  // namespace

TransferResult walker_advance(const ThroughputTrace& trace, double bytes, double start_s) {
  const std::vector<double>& samples = trace.samples_kbps();
  const double interval_s = trace.interval_s();
  const bool finite = trace.finite();
  const size_t n = samples.size();

  TransferResult result;
  if (bytes <= 0.0) return result;
  // A transfer "started" at non-finite time (downstream of an earlier
  // outage) can never complete; index arithmetic from it would be UB.
  if (!std::isfinite(start_s)) return dead_link();
  if (start_s < 0.0) start_s = 0.0;
  // A start so far out that interval indices exceed the exactly-representable
  // integer range cannot be located reliably; such a clock only arises
  // downstream of an earlier unbounded stall, so the link reads as dead.
  if (start_s / interval_s >= 9.0e15) return dead_link();
  if (n == 0) return dead_link();  // default-constructed empty trace

  const std::vector<double>& prefix = trace.index().prefix_bits;
  double remaining_bits = bytes * 8.0;

  // --- the (possibly partial) interval the transfer starts in -------------
  auto idx = static_cast<size_t>(start_s / interval_s);
  double span;
  while (true) {
    if (finite && idx >= n) return dead_link();
    double interval_end = static_cast<double>(idx + 1) * interval_s;
    span = interval_end - start_s;
    if (span > 0.0) break;
    // The start rounded onto (or past) this interval's end: a zero-width
    // sliver with no capacity to consume.
    ++idx;
  }
  double kbps = samples[idx % n];
  if (kbps > 0.0) {
    double bps = kbps * 1000.0;
    double capacity_bits = bps * span;
    if (capacity_bits >= remaining_bits) {
      result.elapsed_s = remaining_bits / bps;
      return result;
    }
    remaining_bits -= capacity_bits;
  }

  // --- full intervals, one period window at a time -------------------------
  // The finishing interval is the smallest k with "capacity consumed since
  // the window's phase >= bits remaining" — evaluated from the shared prefix
  // sums, so the walker's linear scan and the indexed binary search agree
  // exactly. Looping traces consume whole periods in O(1) between windows.
  const size_t b = idx + 1;  // absolute index of the first full interval
  const double period_bits = prefix[n];
  size_t base;   // absolute index of the current window's phase 0
  size_t phase;  // prefix index the window starts at
  if (finite) {
    base = 0;
    phase = b;
  } else {
    phase = b % n;
    base = b - phase;
    if (period_bits > 0.0) {
      // A transfer that would finish beyond the exactly-representable
      // interval range cannot be timed reliably (the start_s guard's twin);
      // classify it as dead instead of marching periods toward it. The
      // bound overestimates capacity, so any transfer it rejects would
      // finish past index ~9e15.
      if (remaining_bits > period_bits * (9.0e15 / static_cast<double>(n))) {
        return dead_link();
      }
    }
  }
  while (true) {
    if (finite && phase >= n) return dead_link();
    double window_bits = prefix[n] - prefix[phase];
    if (window_bits >= remaining_bits) {
      size_t k = phase + 1;
      while (!(prefix[k] - prefix[phase] >= remaining_bits)) ++k;
      size_t finish = base + k - 1;  // absolute finishing interval
      double r = remaining_bits - (prefix[k - 1] - prefix[phase]);
      double bps = samples[k - 1] * 1000.0;
      double interval_start = static_cast<double>(finish) * interval_s;
      result.elapsed_s = (interval_start - start_s) + r / bps;
      return result;
    }
    if (finite) return dead_link();
    // A zero-capacity period can never deliver the rest: the link is dead
    // (an all-zero looping trace — prefix[n] > 0 whenever any sample is).
    if (period_bits <= 0.0) return dead_link();
    double next_remaining = remaining_bits - window_bits;
    // No numeric progress (the period's capacity is below the remaining
    // bits' rounding grain): the transfer can never be timed; treat the
    // link as dead rather than looping forever.
    if (!(next_remaining < remaining_bits)) return dead_link();
    remaining_bits = next_remaining;
    base += n;
    phase = 0;
  }
}

}  // namespace sensei::oracle
