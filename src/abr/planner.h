// MPC lookahead planners behind Fugu/SENSEI-Fugu (paper Eq. 3 / Eq. 4).
//
// Both planners maximize the same objective: the expected sum, over a
// discrete throughput-scenario distribution, of per-chunk qualities across
// the next `horizon` chunks, optionally weighted by per-chunk sensitivity
// and extended with a scheduled-rebuffering action for the first chunk.
//
//  - DpPlanner is the exact production planner: the original Fugu
//    recursion's depth-first walk of the (levels x rebuffer_options)^horizon
//    decision tree, in the same (level-major, then rebuffer option) order,
//    turned into a branch and bound in the style of Puffer's production MPC
//    (Yan et al., NSDI'20). Per-(depth, level) download-time and quality
//    tables are precomputed once per decision instead of at every tree node,
//    and the per-scenario buffers live in one (horizon + 1) x scenarios slab
//    reused across decide() calls (zero steady-state heap allocation). An
//    admissible bound prunes the tree. Per scenario, a buffer ceiling
//    (the observed buffer advanced by the fastest download at every depth,
//    plus the largest root rebuffer option) caps the buffer of every path,
//    so each step stalls at least max(0, download - ceiling); the quality
//    at that least stall upper-bounds the step. H(d, level), a tiny
//    L x horizon value iteration over these per-step bounds, upper-bounds
//    any continuation, and greedy rollouts of its argmax paths seed exact
//    incumbents before the search starts. A subtree is dropped only when
//    value + H cannot reach the incumbent even as a tie (ties are kept).
//
// Every path's value is the exhaustive walk's left-to-right sum, and every
// arithmetic expression mirrors that recursion operation for operation, so
// the leaves the search reaches carry bit-identical values; folding them by
// (value, visit rank) reproduces the recursion's "first strictly better
// leaf wins" tie-break. The DP therefore returns *bit-identical* values and
// decisions to the exhaustive recursion, which
// tests/test_planner_equivalence.cpp asserts against a frozen copy kept in
// the test oracle (tests/oracle). It has no buffer quantum: the lossy,
// bounded-state regime is ViPlanner's.
//
//  - ViPlanner is the throughput planner: Puffer's discretized value
//    iteration (Yan et al., NSDI'20), taken further on three axes.
//    (1) The buffer axis is bucketed into `buffer_quantum_s` bins at the
//    first lookahead step and the bin width doubles with each deeper step
//    (multi-resolution: the forecast is most uncertain exactly where the
//    grid is coarsest), so the [depth][dis_buf][level] value table holds a
//    few hundred cells instead of thousands. (2) The throughput scenarios
//    themselves are discretized into relative (log-spaced) bins, so nearby
//    forecasts plan on identical inputs — but only for the lookahead tail:
//    the root step is always evaluated on the exact forecasts, so the
//    immediate stall/no-stall tradeoff is never misjudged by a bin that
//    rounded the throughput up. (3) Values are memoized lazily from the
//    root a whole (depth, bucket) row at a time: a row's post-step
//    buffers, stalls and child values do not depend on the previous
//    level, so they are computed once per row and folded into all L
//    previous-level cells — one flag per row, no hashing, zero steady-state
//    allocation — and, when a PlanBatch is attached, the whole value table
//    is shared across sessions keyed by (video, chunk, horizon, discretized
//    scenarios, weights): concurrent viewers with similar forecasts at the
//    same chunk reuse each other's lookahead instead of re-iterating it.
//    The relaxation is closed-loop: deeper decisions may adapt to the
//    throughput scenario realized so far (the exact planners commit to one
//    open-loop level sequence shared by every scenario), so its values and
//    occasionally its decisions differ from the exact DP; the accuracy
//    harness (tests/test_planner_accuracy.cpp) pins the end-to-end QoE
//    delta at the default quantum. Decide cost is bounded by the (shared)
//    table size instead of the reachable joint-state fan-out, which is what
//    makes Fugu viable at fleet scale (see bench_multisession).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/predictor.h"
#include "qoe/chunk_quality.h"
#include "sim/player.h"

namespace sensei::abr {

enum class PlannerKind {
  kDp,  // exact branch-and-bound lookahead (default)
  kVi,  // discretized value iteration (Puffer-style, lossy)
};

// Default buffer bucket width for ViPlanner (Puffer's UNIT_BUF_LENGTH) at
// the first lookahead step; the width doubles with each deeper step.
inline constexpr double kDefaultViBufferQuantumS = 2.0;

// Smallest nonzero buffer quantum make_planner accepts. Below it vi's value
// table (30 s / quantum buckets per depth) outgrows memory and the bucket
// index llround(30 / quantum) leaves the integer range. DpPlanner is exact
// and takes no quantum: make_planner accepts only 0 for it.
inline constexpr double kMinBufferQuantumS = 1e-3;

// Why `quantum_s` is not an accepted vi buffer quantum, or nullptr when it
// is: 0 (the planner's default) or a value >= kMinBufferQuantumS.
const char* buffer_quantum_error(double quantum_s);

// Relative (log2-spaced) throughput discretization for ViPlanner's lookahead
// tail: scenario kbps snaps to 2^(k / kViKbpsBinsPerOctave) bins (at 0.5
// bins per octave each bin spans a 4x range), so nearby forecasts plan on
// identical inputs. The bins are deliberately coarse — tolerable because the
// root step plans on the *exact* kbps, so discretization error only biases
// which trajectory the tail prefers, never whether the immediate chunk
// stalls. This is part of the vi discretization semantics — applied whether
// or not a PlanBatch is attached, which is what keeps batched and
// per-session decide() bit-identical — and it is the hook that lets a
// PlanBatch share whole value tables across sessions whose predictors land
// in the same bins.
inline constexpr double kViKbpsBinsPerOctave = 0.5;
inline double quantize_kbps(double kbps) {
  const double k = std::max(1.0, kbps);
  return std::exp2(
      static_cast<double>(std::llround(std::log2(k) * kViKbpsBinsPerOctave)) /
      kViKbpsBinsPerOctave);
}

// The one buffer-discretization rule every planner shares: round to the
// nearest `quantum_s` bucket, half away from zero — exactly std::llround,
// never floor or a bare float->int truncation, which disagree around bucket
// edges and on negative inputs and would split states across platforms.
// Everything at or below zero — including -0.0, which must not land in a
// different bucket than +0.0 — maps to bucket 0, matching the dynamics'
// buffer floor. The caller guarantees quantum_s > 0.
//
// Below 2^63 the rounding is done inline: for 0 <= x < 2^63 the cast
// truncates to a representable i and x - i is exact (the fractional part of
// a double is), so i + (x - i >= 0.5) is llround(x) bit for bit without its
// out-of-line libm call. Larger ratios and +inf keep std::llround, so the
// function's whole domain is unchanged.
inline uint64_t buffer_bucket(double buffer_s, double quantum_s) {
  if (!(buffer_s > 0.0)) return 0;  // negatives, -0.0, NaN -> the floor bucket
  const double x = buffer_s / quantum_s;
  if (x < 0x1p63) {
    const int64_t i = static_cast<int64_t>(x);
    return static_cast<uint64_t>(i + (x - static_cast<double>(i) >= 0.5 ? 1 : 0));
  }
  return static_cast<uint64_t>(std::llround(x));
}

// One lookahead request. Pointers reference caller-owned storage and must
// stay valid for the duration of plan().
struct PlanQuery {
  const sim::AbrObservation* obs = nullptr;
  const net::ThroughputScenario* scenarios = nullptr;
  size_t num_scenarios = 0;
  size_t horizon = 0;
  // Scheduled-rebuffer choices for the *first* step (deeper steps always
  // use 0, as in the paper's SENSEI-Fugu).
  const double* rebuffer_options = nullptr;
  size_t num_rebuffer_options = 0;
  bool use_weights = false;
  double weight_shrinkage = 0.0;
  qoe::ChunkQualityParams chunk;
  // Visual quality of the previously played chunk (seeds the smoothness
  // penalty of the first lookahead step).
  double prev_visual_quality = 0.0;
  // Optional caller-precomputed quantized forecasts, length num_scenarios:
  // quantized_kbps[s] must equal quantize_kbps(scenarios[s].kbps). When set,
  // ViPlanner reads them instead of re-deriving the log2/exp2 bins per
  // decide(); when null it computes them itself — identical either way.
  const double* quantized_kbps = nullptr;
};

struct PlanResult {
  size_t best_level = 0;
  double best_rebuffer_s = 0.0;
  double best_value = -1e18;
  // Best plan whose first action schedules no rebuffering, tracked
  // separately so the caller can apply its rebuffer margin.
  size_t nostall_level = 0;
  double nostall_value = -1e18;
};

// Degenerate queries — an effective horizon of zero (horizon == 0 or no
// chunks remain), an empty scenario set, or an empty rebuffer_options list —
// have no decision tree to search, and every planner answers them with the
// same defined no-op plan instead of leaking the -1e18 sentinel to callers:
// stay at the observation's current level (clamped into the ladder), sched-
// ule no rebuffering, value 0 for both the best and the no-stall plan.
// Returns true (with *out filled) when `query` is degenerate.
bool degenerate_plan(const PlanQuery& query, PlanResult* out);

// Splits a step's expected quality into its stall-free part (weighted by w)
// and the stall penalty part (weighted by max(w, 1)): a low sensitivity
// weight discounts the *quality* of a chunk, never the pain of stalling.
inline double weighted_step_quality(double w, double expected_q, double expected_q_nostall) {
  double stall_part = expected_q - expected_q_nostall;  // <= 0
  return w * expected_q_nostall + std::max(w, 1.0) * stall_part;
}

// Cross-session pool of the per-video planning tables that do not depend on
// a session's predictor state: chunk sizes pre-scaled to the download-time
// units the planners use, visual qualities, and the no-stall chunk quality
// for every (chunk, level, previous level) triple. One sim::run_event_loop
// run (a Simulator run or a fleet cell) owns one PlanBatch and attaches it
// to every session's policy (AbrPolicy::attach_plan_batch), so N concurrent
// Fugu sessions streaming the same ladder build these tables once instead
// of N times per decision.
// Tables are built lazily per (video, chunk-quality params) pair and the
// planners read them through the exact expressions they would otherwise
// compute locally, so batched and per-session decide() are bit-identical
// (tests/test_planner_accuracy.cpp pins this). Not thread-safe: a batch
// belongs to one event loop, never to concurrent ExperimentRunner cells.
class PlanBatch {
 public:
  struct VideoTables {
    const media::EncodedVideo* video = nullptr;
    qoe::ChunkQualityParams params;
    size_t levels = 0;
    // Flat [chunk * levels + level] rows over the whole video.
    std::vector<double> bits_kb;  // size_bytes * 8 / 1000 (download time = bits_kb / kbps)
    std::vector<double> vq;       // visual quality
    // No-stall chunk quality per previous level, [(chunk * L + level) * L + prev];
    // rows for chunk 0 are unused (the root step uses the observed prev quality).
    std::vector<double> qn;
  };

  // Returns (building on first use) the tables for `video` under `params`.
  // The reference stays valid for the batch's lifetime.
  const VideoTables& tables(const media::EncodedVideo& video,
                            const qoe::ChunkQualityParams& params);

  // One shared discretized-VI value table (ViPlanner). Every cell of the VI
  // table is root-independent — it depends only on the discretized decision
  // context (video window, horizon, quantized scenarios, weights, params),
  // never on the querying session's observed buffer — so once filled a cell
  // is immutable and any session planning the same context reuses it.
  struct ViValueTable {
    // Identity, verified field-for-field on lookup (the hash only routes).
    const media::EncodedVideo* video = nullptr;
    qoe::ChunkQualityParams params;
    size_t next_chunk = 0;
    size_t depth_count = 0;
    size_t levels = 0;
    double quantum = 0.0;
    // Quantized kbps + probability per scenario, then effective per-depth
    // weights when the query uses them.
    std::vector<double> key;
    // Lazily filled value cells (multi-resolution [depth][bucket][level]
    // layout, see ViPlanner), one `filled` flag per (depth, bucket) row —
    // a row's L cells are always filled together — and the expected
    // download-time rows [(d * L + l) * S + s] derived from the quantized
    // scenarios. The value array is deliberately *uninitialized* at
    // creation: every read is guarded by its row's flag, and zeroing (plus
    // first-touching) cells the lazy fill may never reach dominated the
    // table-create path.
    std::unique_ptr<double[]> v;
    size_t cell_count = 0;
    std::vector<uint8_t> filled;
    std::vector<double> dl;
    // Intrusive successor hint: the table a planner moved to for this
    // video's next chunk right after using this one. Steady sessions walk
    // chunk n -> n+1 with an unchanged discretized context, so following
    // the link (and re-verifying the full identity — it is a hint, never a
    // key) skips the hash + probe. Entries are append-only unique_ptrs, so
    // the pointer stays valid for the batch's lifetime.
    ViValueTable* succ = nullptr;
  };

  // Returns the shared VI table for the given discretized context, creating
  // it on first use with `row_count` (depth, bucket) rows: v holds
  // row_count * levels uninitialized cells and every row flag starts clear.
  // `*created` tells the caller to finish initialization (the dl rows). The
  // reference stays valid for the batch's lifetime.
  ViValueTable& vi_table(const media::EncodedVideo& video,
                         const qoe::ChunkQualityParams& params, size_t next_chunk,
                         size_t depth_count, size_t levels, double quantum,
                         const double* key, size_t key_len, size_t row_count,
                         bool* created);

  size_t num_videos() const { return tables_.size(); }
  size_t num_vi_tables() const { return vi_list_.size(); }
  size_t table_bytes() const;

 private:
  void vi_rehash(size_t new_cap);

  std::vector<std::unique_ptr<VideoTables>> tables_;
  // Open-addressed (linear-probe, power-of-2) hash routing into vi_list_:
  // a slot holds entry index + 1 (0 = empty) beside the entry's full hash.
  // A probe hit compares the stored hash first, then the entry's complete
  // identity, so a hash collision can never alias two contexts onto one
  // table — it just probes on. Replaces the per-hash chain vectors of an
  // unordered_map, whose node + chain-vector allocations dominated the
  // vi_table miss path at fleet scale.
  std::vector<std::unique_ptr<ViValueTable>> vi_list_;
  std::vector<uint64_t> vi_ht_hash_;
  std::vector<uint32_t> vi_ht_slot_;
};

class Planner {
 public:
  virtual ~Planner() = default;
  virtual const char* name() const = 0;
  virtual PlanResult plan(const PlanQuery& query) = 0;
  // Attaches (nullptr detaches) a shared table pool; planners that can read
  // their static per-video tables from it do, others ignore it. Attaching
  // never changes any planner's output, only where the tables live.
  virtual void set_batch(PlanBatch* batch) { (void)batch; }
};

class DpPlanner : public Planner {
 public:
  const char* name() const override { return "dp"; }
  PlanResult plan(const PlanQuery& query) override;
  void set_batch(PlanBatch* batch) override { batch_ = batch; }

  // Bytes currently owned by the tables and the buffer slab — exposed so
  // tests and benches can assert the steady-state hot path stops allocating.
  size_t arena_bytes() const;

  // Tree nodes expanded (step() evaluations, rollouts included) since
  // construction: the search's work as a deterministic number, so a change
  // to the bound shows its effect without a timer.
  uint64_t nodes_expanded() const { return nodes_; }

 private:
  static constexpr uint64_t kNoRank = ~0ull;

  void precompute(const PlanQuery& q, size_t depth_count);
  // Expected weighted quality of playing `level` at depth d after `prev`
  // with `sched` seconds of scheduled rebuffering; advances every scenario
  // from slab row d into row d + 1.
  double step(size_t d, size_t level, size_t prev, double sched);
  // Searches depths [d, D) below a prefix of value `value` and visit rank
  // `rank` whose last level is `prev` (unused at the root).
  void search(size_t d, size_t prev, double value, uint64_t rank);
  // Evaluates path_ (first action: rebuffer option 0) as an exact leaf.
  void fold_rollout();
  void fold_leaf(double value, uint64_t rank);
  // The value a subtree must reach, as a tie at least, to be worth
  // searching: the no-stall incumbent for paths whose first action
  // schedules no stall (it never exceeds the overall one), else the overall.
  double incumbent() const {
    return first_ns_ ? result_.nostall_value : result_.best_value;
  }

  PlanBatch* batch_ = nullptr;

  // Per-decide context (set by plan(), read by the search).
  const PlanQuery* q_ = nullptr;
  size_t D_ = 0, L_ = 0, S_ = 0;
  double tau_ = 0.0;
  bool prune_ok_ = false;
  PlanResult result_;
  uint64_t best_rank_ = kNoRank;
  uint64_t best_ns_rank_ = kNoRank;
  // First action of the path being searched.
  size_t first_level_ = 0;
  size_t first_sched_ = 0;  // index into rebuffer_options
  bool first_ns_ = false;   // its scheduled rebuffer is 0

  // Precomputed per-decision tables (indexed [depth][level][...]). Depth 0
  // rows of qn_/eqn_ hold the root quality (against the observed previous
  // quality) for every prev.
  std::vector<double> dl_;   // expected download time per scenario
  std::vector<double> vq_;   // visual quality
  std::vector<double> qn_;   // no-stall chunk quality per prev level
  std::vector<double> eqn_;  // probability-folded no-stall quality
  std::vector<double> w_;    // per-depth sensitivity weight
  // Stall-aware bound. bmax_[d * S + s] is the largest buffer any path can
  // hold entering depth d in scenario s: the buffer recursion is monotone
  // in the buffer and in the download time, so advancing the observed
  // buffer by the smallest download time of each depth (and the largest
  // root rebuffer option) with the step's own float ops caps every path.
  // Every path therefore stalls at least max(0, dl - bmax) at (d, level),
  // and chunk quality does not rise with stall while prune_ok_ holds, so
  // ubq_[(d * L + l) * L + p], the weighted step quality at those least
  // stalls, upper-bounds the step after previous level p. Where no
  // scenario can stall it is exactly w * eqn. h_[d * L + p] folds ubq_
  // backwards: the best possible contribution of depths [d, D) given the
  // previous level is p.
  std::vector<double> bmax_;
  std::vector<double> ubq_;
  std::vector<double> h_;
  std::vector<double> stall_q_;  // per-scenario scratch of the bound pass

  // (D + 1) x S buffer slab: row d holds every scenario's buffer entering
  // depth d of the path being searched (row 0: the observed buffer).
  std::vector<double> buf_;
  std::vector<uint32_t> path_;  // argmax path of the bound (incumbent seed)
  uint64_t nodes_ = 0;
};

// Puffer-style discretized value iteration (see the file header). The
// lookahead value of (depth, discretized buffer, previous level) is memoized
// in a flat multi-resolution table — the bucket width starts at quantum_s
// and doubles with each deeper step. Values are computed lazily from the
// root one (depth, bucket) row at a time, so only buckets actually reachable
// from the observed buffer are evaluated, and each reached row fills all of
// its previous-level cells from one pass over its level x scenario
// transitions. Unbatched, the table lives in a local arena whose row flags
// are cleared at every decide() (zero steady-state allocation). With a
// PlanBatch attached, the table is the shared per-context ViValueTable and
// survives across sessions and decisions: a cache hit reduces decide() to
// the root evaluation.
class ViPlanner : public Planner {
 public:
  // quantum_s <= 0 selects the default bucket width.
  explicit ViPlanner(double buffer_quantum_s = kDefaultViBufferQuantumS);

  const char* name() const override { return "vi"; }
  PlanResult plan(const PlanQuery& query) override;
  void set_batch(PlanBatch* batch) override {
    batch_ = batch;
    last_vt_ = nullptr;  // table pointers are only valid within one batch
  }

  double quantum_s() const { return quantum_; }
  size_t arena_bytes() const;

 private:
  void precompute(const PlanQuery& q, size_t depth_count);
  void fill_dl(double* dl) const;
  // Value of depths [depth, D) entered at `buffer_s` (bucketed at depth's
  // resolution) after a chunk at `level`: 0 past the horizon, else the
  // memoized cell, filling its row first when the row flag is clear.
  double child_value(size_t depth, double buffer_s, size_t level);
  void fill_row(size_t depth, size_t bucket);

  double quantum_;
  PlanBatch* batch_ = nullptr;
  // The shared table the previous batched plan() used — seed of the
  // ViValueTable::succ successor shortcut. Cleared on every batch change.
  PlanBatch::ViValueTable* last_vt_ = nullptr;

  // Per-decide context (set by plan(), read by fill_row).
  const PlanQuery* q_ = nullptr;
  size_t D_ = 0, L_ = 0, S_ = 0;
  double tau_ = 0.0;

  // Multi-resolution grid geometry for depths [1, D): bucket width per
  // depth and the index of each depth's first (depth, bucket) row; row r's
  // L cells sit at [r * L, r * L + L) in the value table.
  std::vector<double> width_;
  std::vector<size_t> row_off_;
  size_t rows_ = 0;

  // The exact and quantized forecast kbps (quantize_kbps bins) as
  // contiguous rows — the planner's actual throughput inputs, batched or
  // not — and the cache key the quantized row induces.
  std::vector<double> exact_kbps_;
  std::vector<double> qkbps_;
  std::vector<double> key_;

  // Static tables for the lookahead window: pointers into the shared
  // PlanBatch when attached, else into the local_* arenas filled with the
  // identical values. Layout is [d * L + l] (vq, bits) and
  // [(d * L + l) * L + p] (qn), d relative to the window start.
  const double* bits_tab_ = nullptr;
  const double* vq_tab_ = nullptr;
  const double* qn_tab_ = nullptr;
  std::vector<double> local_bits_;
  std::vector<double> local_vq_;
  std::vector<double> local_qn_;

  // Per-decide scenario state, SoA so the inner scenario loops stream over
  // contiguous rows: expected download times per (depth, level) — shared
  // table rows on a batch hit, else the local arena — and probabilities.
  const double* dl_tab_ = nullptr;  // [(d * L + l) * S + s]
  std::vector<double> local_dl_;
  std::vector<double> prob_;  // [s]
  std::vector<double> w_;     // per-depth sensitivity weight
  std::vector<double> root_qn_;
  std::vector<double> root_dl_;  // depth-0 download times on *exact* kbps

  // Chunk-quality params cached as scalars for the no-stall row helpers.
  double bsw_ = 0.0, floor_ = 0.0;

  // Value cells and row flags for this decide(): the shared ViValueTable's,
  // or the local arena's (flags cleared at every unbatched decide()).
  double* v_cells_ = nullptr;
  uint8_t* filled_ = nullptr;
  std::vector<double> v_;
  std::vector<uint8_t> row_filled_;

  // fill_row scratch, one [l * S + s] slab per depth (the recursion holds at
  // most one open row per depth): what each (level, scenario) transition out
  // of the row contributes independently of the previous level.
  struct Transition {
    double child = 0.0;    // value of the post-step (depth + 1) bucket
    double stall_q = 0.0;  // qoe::stall_penalized_quality, if stalled
    bool stalled = false;
  };
  std::vector<Transition> trans_;
};

// Throws std::invalid_argument when buffer_quantum_error(dp_buffer_quantum_s)
// names a reason, or when kind is kDp and the quantum is not 0: the exact
// planner has no buffer quantum (only kVi reads it).
std::unique_ptr<Planner> make_planner(PlannerKind kind, double dp_buffer_quantum_s = 0.0);

}  // namespace sensei::abr
