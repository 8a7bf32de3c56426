// Indexed min-heap of per-session event times for the discrete-event loop
// (sim::run_event_loop, which sim::Simulator and sim::FleetSimulator drive).
//
// The PR 5 scheduler used a lazy std::priority_queue: every engine state
// change pushed a fresh (time, index) entry and stale entries were skipped
// on pop. That keeps the heap 2-3x the live session count (each transition
// chain strands its superseded entries until they surface), every push
// allocates until the high-water mark, and the stale-skip rescan runs on
// the hottest loop in the simulator — the measured cause of the 400 -> 1000
// concurrent-session throughput droop. This queue is the indexed
// alternative: each session holds exactly one slot, keyed by its current
// next_event_time(), moved in place (sift up/down) when the time changes.
// No stale entries, no allocation after the index space is sized, O(log n)
// per update.
//
// Determinism contract (what the bit-identity gates rely on): the minimum
// is totally ordered by (time, index) — among sessions scheduled at the
// same instant the lowest index surfaces first, exactly the tie-break the
// lazy heap's pop order produced. +infinity means "no event" and removes
// the session from the heap.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace sensei::sim {

class EventQueue {
 public:
  EventQueue() = default;

  // Time and index of the earliest event; min_time() is +infinity when the
  // heap is empty (min_index() is then unspecified).
  double min_time() const { return heap_.empty() ? kInfTime : times_[heap_[0]]; }
  size_t min_index() const { return heap_[0]; }

  // Sets session `idx`'s next event time, inserting, moving, or (+infinity)
  // removing its slot as needed. The index space grows to the largest
  // index seen and never shrinks: fleet cells recycle session slots, so it
  // is bounded by peak concurrency.
  void update(size_t idx, double time) {
    if (times_.size() <= idx) {
      times_.resize(idx + 1, kInfTime);
      pos_.resize(idx + 1, kNone);
    }
    const bool present = pos_[idx] != kNone;
    if (time == kInfTime) {
      if (present) remove(idx);
      return;
    }
    double old = times_[idx];
    times_[idx] = time;
    if (!present) {
      pos_[idx] = heap_.size();
      heap_.push_back(idx);
      sift_up(pos_[idx]);
    } else if (time < old) {
      sift_up(pos_[idx]);
    } else if (old < time) {
      sift_down(pos_[idx]);
    }
  }

 private:
  static constexpr double kInfTime = std::numeric_limits<double>::infinity();
  static constexpr size_t kNone = static_cast<size_t>(-1);

  // (time, index) lexicographic order — the deterministic tie-break.
  bool before(size_t a, size_t b) const {
    if (times_[a] != times_[b]) return times_[a] < times_[b];
    return a < b;
  }

  void remove(size_t idx) {
    size_t hole = pos_[idx];
    pos_[idx] = kNone;
    times_[idx] = kInfTime;
    size_t last = heap_.back();
    heap_.pop_back();
    if (last == idx) return;  // removed the tail slot itself
    heap_[hole] = last;
    pos_[last] = hole;
    sift_up(hole);
    sift_down(hole);
  }

  void sift_up(size_t i) {
    while (i > 0) {
      size_t parent = (i - 1) / 2;
      if (!before(heap_[i], heap_[parent])) break;
      swap_slots(i, parent);
      i = parent;
    }
  }

  void sift_down(size_t i) {
    const size_t n = heap_.size();
    while (true) {
      size_t left = 2 * i + 1;
      if (left >= n) break;
      size_t child = left;
      size_t right = left + 1;
      if (right < n && before(heap_[right], heap_[left])) child = right;
      if (!before(heap_[child], heap_[i])) break;
      swap_slots(i, child);
      i = child;
    }
  }

  void swap_slots(size_t a, size_t b) {
    size_t ia = heap_[a], ib = heap_[b];
    heap_[a] = ib;
    heap_[b] = ia;
    pos_[ia] = b;
    pos_[ib] = a;
  }

  std::vector<size_t> heap_;   // session indices, heap-ordered by before()
  std::vector<size_t> pos_;    // session index -> heap position (kNone: absent)
  std::vector<double> times_;  // session index -> next event time
};

}  // namespace sensei::sim
