#include "abr/planner.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/kernels.h"

namespace sensei::abr {

namespace {

// 30 s buffer cap shared by the planners and the player simulator.
constexpr double kMaxBufferS = 30.0;

// Slack added to the admissible bound before pruning: absorbs rounding
// differences between the bound's fold order and the true evaluation, so a
// subtree that could still *tie* the incumbent is never dropped and the
// reference tie-break is preserved.
constexpr double kBoundSlack = 1e-9;

inline uint64_t splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

bool degenerate_plan(const PlanQuery& q, PlanResult* out) {
  const size_t remaining =
      q.obs->next_chunk < q.obs->num_chunks ? q.obs->num_chunks - q.obs->next_chunk : 0;
  const size_t depth = std::min(q.horizon, remaining);
  if (depth > 0 && q.num_scenarios > 0 && q.num_rebuffer_options > 0) return false;
  const size_t levels = q.obs->video->ladder().level_count();
  size_t level = q.obs->last_level;
  if (levels > 0 && level >= levels) level = levels - 1;
  out->best_level = level;
  out->nostall_level = level;
  out->best_rebuffer_s = 0.0;
  out->best_value = 0.0;
  out->nostall_value = 0.0;
  return true;
}

// ---------------------------------------------------------------------------
// PlanBatch
// ---------------------------------------------------------------------------

const PlanBatch::VideoTables& PlanBatch::tables(const media::EncodedVideo& video,
                                                const qoe::ChunkQualityParams& params) {
  for (const auto& t : tables_) {
    if (t->video == &video && t->params.beta_rebuf == params.beta_rebuf &&
        t->params.rebuf_saturation == params.rebuf_saturation &&
        t->params.beta_switch == params.beta_switch && t->params.floor == params.floor) {
      return *t;
    }
  }
  auto t = std::make_unique<VideoTables>();
  t->video = &video;
  t->params = params;
  const size_t L = video.ladder().level_count();
  const size_t n = video.num_chunks();
  t->levels = L;
  t->bits_kb.resize(n * L);
  t->vq.resize(n * L);
  t->qn.resize(n * L * L);
  for (size_t c = 0; c < n; ++c) {
    for (size_t l = 0; l < L; ++l) {
      const auto& rep = video.rep(c, l);
      // Pre-scaled so a planner's download time is bits_kb / kbps + rtt —
      // the same left-associated (size * 8 / 1000) / kbps the unbatched
      // planners evaluate, hence bit-identical.
      t->bits_kb[c * L + l] = rep.size_bytes * 8.0 / 1000.0;
      t->vq[c * L + l] = rep.visual_quality;
    }
  }
  for (size_t c = 1; c < n; ++c) {
    for (size_t l = 0; l < L; ++l) {
      for (size_t p = 0; p < L; ++p) {
        t->qn[(c * L + l) * L + p] =
            qoe::chunk_quality(t->vq[c * L + l], 0.0, t->vq[(c - 1) * L + p], params);
      }
    }
  }
  tables_.push_back(std::move(t));
  return *tables_.back();
}

PlanBatch::ViValueTable& PlanBatch::vi_table(const media::EncodedVideo& video,
                                             const qoe::ChunkQualityParams& params,
                                             size_t next_chunk, size_t depth_count,
                                             size_t levels, double quantum,
                                             const double* key, size_t key_len,
                                             size_t row_count, bool* created) {
  // FNV-1a folded a machine word at a time: every keyed field is naturally
  // 8 bytes (pointers, counts, double bit patterns), and the hash only
  // steers the probe — the full compare below decides identity — so the
  // 8x-shorter multiply chain is pure savings on this per-decide path.
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  const auto mix_u64 = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mix_f64 = [&mix_u64](double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    mix_u64(u);
  };
  mix_u64(reinterpret_cast<uintptr_t>(&video));
  mix_u64(next_chunk);
  mix_u64(depth_count);
  mix_u64(levels);
  mix_f64(quantum);
  mix_f64(params.beta_rebuf);
  mix_f64(params.rebuf_saturation);
  mix_f64(params.beta_switch);
  mix_f64(params.floor);
  for (size_t k = 0; k < key_len; ++k) mix_f64(key[k]);

  // Grow before probing so the insert below always finds an empty slot and
  // the load factor stays under ~0.7.
  if (vi_ht_slot_.empty()) {
    vi_ht_slot_.assign(64, 0);
    vi_ht_hash_.assign(64, 0);
  } else if ((vi_list_.size() + 1) * 10 >= vi_ht_slot_.size() * 7) {
    vi_rehash(vi_ht_slot_.size() * 2);
  }
  const size_t mask = vi_ht_slot_.size() - 1;
  size_t i = splitmix(h) & mask;
  while (vi_ht_slot_[i] != 0) {
    if (vi_ht_hash_[i] == h) {
      ViValueTable& t = *vi_list_[vi_ht_slot_[i] - 1];
      if (t.video == &video && t.next_chunk == next_chunk &&
          t.depth_count == depth_count && t.levels == levels && t.quantum == quantum &&
          t.params.beta_rebuf == params.beta_rebuf &&
          t.params.rebuf_saturation == params.rebuf_saturation &&
          t.params.beta_switch == params.beta_switch && t.params.floor == params.floor &&
          t.key.size() == key_len && std::equal(t.key.begin(), t.key.end(), key)) {
        *created = false;
        return t;
      }
    }
    i = (i + 1) & mask;
  }
  vi_list_.push_back(std::make_unique<ViValueTable>());
  vi_ht_slot_[i] = static_cast<uint32_t>(vi_list_.size());
  vi_ht_hash_[i] = h;
  ViValueTable& t = *vi_list_.back();
  t.video = &video;
  t.params = params;
  t.next_chunk = next_chunk;
  t.depth_count = depth_count;
  t.levels = levels;
  t.quantum = quantum;
  t.key.assign(key, key + key_len);
  t.cell_count = row_count * levels;
  t.v.reset(new double[t.cell_count]);  // uninitialized on purpose, see header
  t.filled.assign(row_count, 0);
  *created = true;
  return t;
}

void PlanBatch::vi_rehash(size_t new_cap) {
  std::vector<uint64_t> old_hash = std::move(vi_ht_hash_);
  std::vector<uint32_t> old_slot = std::move(vi_ht_slot_);
  vi_ht_hash_.assign(new_cap, 0);
  vi_ht_slot_.assign(new_cap, 0);
  const size_t mask = new_cap - 1;
  for (size_t j = 0; j < old_slot.size(); ++j) {
    if (old_slot[j] == 0) continue;
    size_t i = splitmix(old_hash[j]) & mask;
    while (vi_ht_slot_[i] != 0) i = (i + 1) & mask;
    vi_ht_slot_[i] = old_slot[j];
    vi_ht_hash_[i] = old_hash[j];
  }
}

size_t PlanBatch::table_bytes() const {
  size_t b = 0;
  for (const auto& t : tables_) {
    b += (t->bits_kb.capacity() + t->vq.capacity() + t->qn.capacity()) * sizeof(double);
  }
  for (const auto& t : vi_list_) {
    b += (t->key.capacity() + t->cell_count + t->dl.capacity()) * sizeof(double) +
         t->filled.capacity();
  }
  b += vi_ht_hash_.capacity() * sizeof(uint64_t) +
       vi_ht_slot_.capacity() * sizeof(uint32_t);
  return b;
}

// ---------------------------------------------------------------------------
// DpPlanner
// ---------------------------------------------------------------------------

size_t DpPlanner::arena_bytes() const {
  return (dl_.capacity() + vq_.capacity() + qn_.capacity() + eqn_.capacity() +
          w_.capacity() + bmax_.capacity() + ubq_.capacity() + h_.capacity() +
          stall_q_.capacity() + buf_.capacity()) *
             sizeof(double) +
         path_.capacity() * sizeof(uint32_t);
}

// Fills the per-decision tables. Every expression mirrors the exhaustive
// walk operation-for-operation so the folded results are bit-identical; the
// difference is that they are evaluated once per (depth, level[, prev])
// instead of at every tree node.
void DpPlanner::precompute(const PlanQuery& q, size_t depth_count) {
  const auto& video = *q.obs->video;
  const size_t L = video.ladder().level_count();
  const size_t S = q.num_scenarios;

  dl_.resize(depth_count * L * S);
  vq_.resize(depth_count * L);
  qn_.resize(depth_count * L * L);
  eqn_.resize(depth_count * L * L);
  w_.resize(depth_count);
  buf_.resize((depth_count + 1) * S);

  // Static tables come from the shared batch when one is attached; the
  // expressions below are the exact ones the batch builder ran (same
  // left-associated scaling, same chunk_quality calls), so both sources
  // yield bit-identical tables and the planner's output never depends on
  // where they live.
  const size_t base = q.obs->next_chunk;
  const PlanBatch::VideoTables* vt =
      batch_ != nullptr ? &batch_->tables(video, q.chunk) : nullptr;

  for (size_t d = 0; d < depth_count; ++d) {
    double w = 1.0;
    if (q.use_weights && d < q.obs->future_weights.size()) {
      w = 1.0 + q.weight_shrinkage * (q.obs->future_weights[d] - 1.0);
    }
    w_[d] = w;

    const size_t chunk = base + d;
    for (size_t l = 0; l < L; ++l) {
      double bits;
      if (vt != nullptr) {
        bits = vt->bits_kb[chunk * L + l];
        vq_[d * L + l] = vt->vq[chunk * L + l];
      } else {
        const auto& rep = video.rep(chunk, l);
        bits = rep.size_bytes * 8.0 / 1000.0;
        vq_[d * L + l] = rep.visual_quality;
      }
      for (size_t s = 0; s < S; ++s) {
        double kbps = std::max(1.0, q.scenarios[s].kbps);
        dl_[(d * L + l) * S + s] = bits / kbps + 0.08;
      }
    }
  }

  for (size_t d = 0; d < depth_count; ++d) {
    const size_t chunk = base + d;
    for (size_t l = 0; l < L; ++l) {
      for (size_t p = 0; p < L; ++p) {
        double qn;
        if (d == 0) {
          qn = qoe::chunk_quality(vq_[l], 0.0, q.prev_visual_quality, q.chunk);
        } else {
          qn = vt != nullptr
                   ? vt->qn[(chunk * L + l) * L + p]
                   : qoe::chunk_quality(vq_[d * L + l], 0.0, vq_[(d - 1) * L + p], q.chunk);
        }
        double eqn = 0.0;
        for (size_t s = 0; s < S; ++s) eqn += q.scenarios[s].probability * qn;
        qn_[(d * L + l) * L + p] = qn;
        eqn_[(d * L + l) * L + p] = eqn;
      }
    }
  }

  // Buffer ceiling per (depth, scenario), advanced with step()'s own float
  // ops from the observed buffer by the smallest download time of each
  // depth, plus the largest root rebuffer option (so an unsorted option
  // list still yields the max).
  bmax_.resize(depth_count * S);
  std::fill(bmax_.begin(), bmax_.begin() + static_cast<std::ptrdiff_t>(S), q.obs->buffer_s);
  double sched_max = 0.0;
  for (size_t i = 0; i < q.num_rebuffer_options; ++i) {
    sched_max = std::max(sched_max, q.rebuffer_options[i]);
  }
  for (size_t d = 0; d + 1 < depth_count; ++d) {
    for (size_t s = 0; s < S; ++s) {
      double dl = dl_[(d * L) * S + s];
      for (size_t l = 1; l < L; ++l) dl = std::min(dl, dl_[(d * L + l) * S + s]);
      double b = bmax_[d * S + s];
      if (dl > b) {
        b = 0.0;
      } else {
        b -= dl;
      }
      if (d == 0 && sched_max > 0.0) b += sched_max;
      bmax_[(d + 1) * S + s] = std::min(b + tau_, kMaxBufferS);
    }
  }

  // Per-step bound: the weighted step quality at each scenario's least
  // stall. weighted_step_quality is monotone in its expected quality, so
  // this bounds every path's step (up to rounding, which kBoundSlack
  // absorbs). A (depth, level) no scenario can stall at is exactly w * eqn,
  // and so is every row when prune_ok_ fails (the bound is then unused).
  ubq_.resize(depth_count * L * L);
  stall_q_.resize(S);
  for (size_t d = 0; d < depth_count; ++d) {
    const double* bm = &bmax_[d * S];
    for (size_t l = 0; l < L; ++l) {
      const double* dl_row = &dl_[(d * L + l) * S];
      const double* eqn_row = &eqn_[(d * L + l) * L];
      double* ub_row = &ubq_[(d * L + l) * L];
      bool can_stall = false;
      for (size_t s = 0; s < S; ++s) can_stall |= dl_row[s] > bm[s];
      if (!prune_ok_ || !can_stall) {
        for (size_t p = 0; p < L; ++p) ub_row[p] = w_[d] * eqn_row[p];
        continue;
      }
      // The stall-penalized visual quality is shared across prev levels;
      // composing it with the switch penalty is chunk_quality bit for bit.
      const double vq = vq_[d * L + l];
      for (size_t s = 0; s < S; ++s) {
        stall_q_[s] = dl_row[s] > bm[s]
                          ? qoe::stall_penalized_quality(vq, dl_row[s] - bm[s], q.chunk)
                          : 0.0;
      }
      for (size_t p = 0; p < L; ++p) {
        const double prev_vq = d == 0 ? q.prev_visual_quality : vq_[(d - 1) * L + p];
        const double qn = qn_[(d * L + l) * L + p];
        double expected_q = 0.0;
        for (size_t s = 0; s < S; ++s) {
          const double qv = dl_row[s] > bm[s]
                                ? qoe::with_switch_penalty(stall_q_[s], vq, prev_vq, q.chunk)
                                : qn;
          expected_q += q.scenarios[s].probability * qv;
        }
        ub_row[p] = weighted_step_quality(w_[d], expected_q, eqn_row[p]);
      }
    }
  }

  // The bound on depths [d, D), computed backwards: maximizing step bound
  // plus continuation bound over levels bounds any continuation from
  // (depth, prev level).
  h_.resize((depth_count + 1) * L);
  for (size_t p = 0; p < L; ++p) h_[depth_count * L + p] = 0.0;
  for (size_t d = depth_count; d-- > 1;) {
    for (size_t p = 0; p < L; ++p) {
      double best = -1e18;
      for (size_t l = 0; l < L; ++l) {
        double v = ubq_[(d * L + l) * L + p] + h_[(d + 1) * L + l];
        if (v > best) best = v;
      }
      h_[d * L + p] = best;
    }
  }
}

// Same dynamics and fold order as the exhaustive walk; the no-stall quality
// is served from the tables.
double DpPlanner::step(size_t d, size_t level, size_t prev, double sched) {
  ++nodes_;
  const PlanQuery& q = *q_;
  const size_t L = L_, S = S_;
  const double prev_vq = d == 0 ? q.prev_visual_quality : vq_[(d - 1) * L + prev];
  const double qn = qn_[(d * L + level) * L + prev];
  const double* dl_row = &dl_[(d * L + level) * S];
  const double vq = vq_[d * L + level];
  const double* in = &buf_[d * S];
  double* out = &buf_[(d + 1) * S];
  double expected_q = 0.0;
  for (size_t s = 0; s < S; ++s) {
    double b = in[s];
    double dl = dl_row[s];
    double stall = 0.0;
    if (dl > b) {
      stall = dl - b;
      b = 0.0;
    } else {
      b -= dl;
    }
    if (sched > 0.0) {
      b += sched;
      stall += sched;
    }
    b = std::min(b + tau_, kMaxBufferS);
    out[s] = b;
    double qv = stall > 0.0 ? qoe::chunk_quality(vq, stall, prev_vq, q.chunk) : qn;
    expected_q += q.scenarios[s].probability * qv;
  }
  return weighted_step_quality(w_[d], expected_q, eqn_[(d * L + level) * L + prev]);
}

// (max value, min rank) fold reproduces "first strictly-better leaf wins"
// of the depth-first reference: the search visits leaves in rank order, and
// the rank settles ties against the rollout seeds folded before it.
void DpPlanner::fold_leaf(double value, uint64_t rank) {
  if (value > result_.best_value || (value == result_.best_value && rank < best_rank_)) {
    result_.best_value = value;
    result_.best_level = first_level_;
    result_.best_rebuffer_s = q_->rebuffer_options[first_sched_];
    best_rank_ = rank;
  }
  if (first_ns_ && (value > result_.nostall_value ||
                    (value == result_.nostall_value && rank < best_ns_rank_))) {
    result_.nostall_value = value;
    result_.nostall_level = first_level_;
    best_ns_rank_ = rank;
  }
}

void DpPlanner::fold_rollout() {
  first_level_ = path_[0];
  first_sched_ = 0;
  first_ns_ = q_->rebuffer_options[0] == 0.0;
  double value = 0.0;
  uint64_t rank = 0;
  for (size_t d = 0; d < D_; ++d) {
    const size_t options = d == 0 ? q_->num_rebuffer_options : 1;
    const size_t prev = d == 0 ? 0 : path_[d - 1];
    const double sched = d == 0 ? q_->rebuffer_options[0] : 0.0;
    value = value + step(d, path_[d], prev, sched);
    rank = rank * static_cast<uint64_t>(L_ * options) +
           static_cast<uint64_t>(path_[d] * options);
  }
  fold_leaf(value, rank);
}

void DpPlanner::search(size_t d, size_t prev, double value, uint64_t rank) {
  const bool root = d == 0;
  const bool leaf = d + 1 == D_;
  const size_t options = root ? q_->num_rebuffer_options : 1;
  for (size_t level = 0; level < L_; ++level) {
    const double hb = (leaf ? 0.0 : h_[(d + 1) * L_ + level]) + kBoundSlack;
    // Pre-dynamics prune: ubq_ upper-bounds the step contribution (for
    // every root rebuffer option too: scheduling only adds stall), so a
    // hopeless action is rejected before its scenario loop runs.
    const double ub = value + ubq_[(d * L_ + level) * L_ + prev] + hb;
    for (size_t si = 0; si < options; ++si) {
      const double sched = root ? q_->rebuffer_options[si] : 0.0;
      if (root) {
        first_level_ = level;
        first_sched_ = si;
        first_ns_ = sched == 0.0;
      }
      if (prune_ok_ && !(ub >= incumbent())) continue;
      const double child = value + step(d, level, prev, sched);
      const uint64_t child_rank = rank * static_cast<uint64_t>(L_ * options) +
                                  static_cast<uint64_t>(level * options + si);
      if (leaf) {
        fold_leaf(child, child_rank);
        continue;
      }
      // Post-dynamics prune, tighter than the pre-check: drop the subtree
      // when even the bound's completion of the *actual* prefix value
      // cannot reach the incumbent.
      if (prune_ok_ && !(child + hb >= incumbent())) continue;
      search(d + 1, level, child, child_rank);
    }
  }
}

PlanResult DpPlanner::plan(const PlanQuery& q) {
  PlanResult degenerate;
  if (degenerate_plan(q, &degenerate)) return degenerate;
  const auto& video = *q.obs->video;
  q_ = &q;
  L_ = video.ladder().level_count();
  S_ = q.num_scenarios;
  tau_ = video.chunk_duration_s();
  D_ = std::min(q.horizon, q.obs->num_chunks - q.obs->next_chunk);
  // Pruning is only sound when the stall penalty actually penalizes (the
  // default and every sane configuration): then quality never rises with
  // stall, which both the stall-free and the stall-aware bound rely on.
  prune_ok_ = q.chunk.beta_rebuf >= 0.0 && q.chunk.rebuf_saturation >= 0.0;
  precompute(q, D_);

  result_ = PlanResult{};
  best_rank_ = kNoRank;
  best_ns_rank_ = kNoRank;
  std::fill(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(S_), q.obs->buffer_s);

  // Seed incumbents: for every first level, greedily follow the argmax path
  // of the bound; plus the all-lowest-level path, which is close to optimal
  // exactly where the bound is loosest (tight links). All are real leaves,
  // so folding them is always sound.
  path_.resize(D_);
  for (size_t l0 = 0; l0 < L_; ++l0) {
    path_[0] = static_cast<uint32_t>(l0);
    for (size_t d = 1; d < D_; ++d) {
      const size_t prev = path_[d - 1];
      double best = -1e18;
      size_t arg = 0;
      for (size_t l = 0; l < L_; ++l) {
        double v = ubq_[(d * L_ + l) * L_ + prev] + h_[(d + 1) * L_ + l];
        if (v > best) {
          best = v;
          arg = l;
        }
      }
      path_[d] = static_cast<uint32_t>(arg);
    }
    fold_rollout();
  }
  std::fill(path_.begin(), path_.end(), 0u);
  fold_rollout();

  search(0, 0, 0.0, 0);
  q_ = nullptr;
  return result_;
}

// ---------------------------------------------------------------------------
// ViPlanner
// ---------------------------------------------------------------------------

ViPlanner::ViPlanner(double buffer_quantum_s)
    : quantum_(buffer_quantum_s > 0.0 ? buffer_quantum_s : kDefaultViBufferQuantumS) {}

size_t ViPlanner::arena_bytes() const {
  return (local_bits_.capacity() + local_vq_.capacity() + local_qn_.capacity() +
          local_dl_.capacity() + prob_.capacity() + w_.capacity() + root_qn_.capacity() +
          root_dl_.capacity() + exact_kbps_.capacity() + qkbps_.capacity() +
          key_.capacity() + width_.capacity() + v_.capacity()) *
             sizeof(double) +
         row_off_.capacity() * sizeof(size_t) + row_filled_.capacity() +
         trans_.capacity() * sizeof(Transition);
}

void ViPlanner::precompute(const PlanQuery& q, size_t depth_count) {
  const auto& video = *q.obs->video;
  const size_t L = video.ladder().level_count();
  const size_t S = q.num_scenarios;
  const size_t base = q.obs->next_chunk;

  if (batch_ != nullptr) {
    const PlanBatch::VideoTables& vt = batch_->tables(video, q.chunk);
    bits_tab_ = &vt.bits_kb[base * L];
    vq_tab_ = &vt.vq[base * L];
    qn_tab_ = &vt.qn[base * L * L];
  } else {
    local_bits_.resize(depth_count * L);
    local_vq_.resize(depth_count * L);
    local_qn_.resize(depth_count * L * L);
    for (size_t d = 0; d < depth_count; ++d) {
      const size_t chunk = base + d;
      for (size_t l = 0; l < L; ++l) {
        const auto& rep = video.rep(chunk, l);
        local_bits_[d * L + l] = rep.size_bytes * 8.0 / 1000.0;
        local_vq_[d * L + l] = rep.visual_quality;
      }
    }
    for (size_t d = 1; d < depth_count; ++d) {
      // Row helper over the previous-level axis: vq is fixed per (d, l) and
      // stall is 0, so qn[p] = max(floor, vq - bsw * |vq - prev_vq[p]|) —
      // the zero stall-penalty term drops out bit-exactly (x - 0.0 == x).
      for (size_t l = 0; l < L; ++l) {
        util::kernels::chunk_quality_nostall_prev_row(
            local_vq_[d * L + l], &local_vq_[(d - 1) * L], L, bsw_, floor_,
            &local_qn_[(d * L + l) * L]);
      }
    }
    bits_tab_ = local_bits_.data();
    vq_tab_ = local_vq_.data();
    qn_tab_ = local_qn_.data();
  }

  // The planner's actual throughput inputs are the quantized scenarios: the
  // same discretization whether or not a batch is attached, so attaching
  // can only move where tables live, never what they hold. A caller that
  // already quantized its forecasts (FuguAbr does, once per decision) hands
  // them over instead of paying the log2/exp2 bins again here.
  exact_kbps_.resize(S);
  qkbps_.resize(S);
  prob_.resize(S);
  for (size_t s = 0; s < S; ++s) {
    exact_kbps_[s] = q.scenarios[s].kbps;
    prob_[s] = q.scenarios[s].probability;
  }
  if (q.quantized_kbps != nullptr) {
    std::copy(q.quantized_kbps, q.quantized_kbps + S, qkbps_.begin());
  } else {
    util::kernels::quantize_kbps_row(exact_kbps_.data(), S, kViKbpsBinsPerOctave,
                                     qkbps_.data());
  }

  w_.resize(depth_count);
  for (size_t d = 0; d < depth_count; ++d) {
    double w = 1.0;
    if (q.use_weights && d < q.obs->future_weights.size()) {
      w = 1.0 + q.weight_shrinkage * (q.obs->future_weights[d] - 1.0);
    }
    w_[d] = w;
  }

  root_qn_.resize(L);
  util::kernels::chunk_quality_nostall_row(vq_tab_, L, q.prev_visual_quality, bsw_,
                                           floor_, root_qn_.data());

  // The root step is evaluated with the *exact* forecasts: the immediate
  // stall/no-stall tradeoff is the decision's dominant term, and judging it
  // on kbps rounded up a bin would schedule real stalls. Only the value
  // table (depths >= 1) lives on the quantized scenarios, mirroring the
  // buffer axis where depth 0 is continuous and resolution coarsens with
  // depth. Recomputed per decision, so it costs L x S divisions — part of
  // the irreducible root work, never the shared table.
  root_dl_.resize(L * S);
  for (size_t l = 0; l < L; ++l) {
    util::kernels::div_add_row(bits_tab_[l], exact_kbps_.data(), S, 1.0, 0.08,
                               &root_dl_[l * S]);
  }
}

void ViPlanner::fill_dl(double* dl) const {
  for (size_t d = 0; d < D_; ++d) {
    for (size_t l = 0; l < L_; ++l) {
      util::kernels::div_add_row(bits_tab_[d * L_ + l], qkbps_.data(), S_, 1.0, 0.08,
                                 &dl[(d * L_ + l) * S_]);
    }
  }
}

double ViPlanner::child_value(size_t depth, double buffer_s, size_t level) {
  if (depth >= D_) return 0.0;
  const size_t bucket = static_cast<size_t>(buffer_bucket(buffer_s, width_[depth]));
  const size_t row = row_off_[depth] + bucket;
  if (!filled_[row]) fill_row(depth, bucket);
  return v_cells_[row * L_ + level];
}

// Fills the (depth, bucket) row: the continuation value of depths [depth, D)
// from the bucket's center buffer, for every previous level p. Closed-loop:
// each scenario contributes the value of its *own* post-step buffer, so
// deeper choices adapt to the realized throughput (the source of the pinned
// delta vs the open-loop exact planners). A step's contribution uses the
// same quality/stall decomposition as weighted_step_quality, folded per
// scenario: w * qn + max(w, 1) * (qv - qn), qv being qoe::chunk_quality.
// Only the switch penalty depends on p, so each (level, scenario)
// transition's stall, child value and stall-penalized quality are computed
// once into the depth's scratch slab and every cell folds them in the same
// order.
void ViPlanner::fill_row(size_t depth, size_t bucket) {
  const qoe::ChunkQualityParams& cq = q_->chunk;
  Transition* tr = &trans_[depth * L_ * S_];
  const double b0 = static_cast<double>(bucket) * width_[depth];
  for (size_t l = 0; l < L_; ++l) {
    const double vqv = vq_tab_[depth * L_ + l];
    const double* dl_row = &dl_tab_[(depth * L_ + l) * S_];
    for (size_t s = 0; s < S_; ++s) {
      double b = b0;
      const double dl = dl_row[s];
      double stall = 0.0;
      if (dl > b) {
        stall = dl - b;
        b = 0.0;
      } else {
        b -= dl;
      }
      b = std::min(b + tau_, kMaxBufferS);
      Transition& t = tr[l * S_ + s];
      t.stalled = stall > 0.0;
      t.stall_q = t.stalled ? qoe::stall_penalized_quality(vqv, stall, cq) : 0.0;
      t.child = child_value(depth + 1, b, l);
    }
  }

  const double w = w_[depth];
  const double wstall = std::max(w, 1.0);
  const double* prev_vq = &vq_tab_[(depth - 1) * L_];
  const size_t row = row_off_[depth] + bucket;
  double* cells = &v_cells_[row * L_];
  for (size_t p = 0; p < L_; ++p) {
    double best = -1e18;
    for (size_t l = 0; l < L_; ++l) {
      const double vqv = vq_tab_[depth * L_ + l];
      const double qn = qn_tab_[(depth * L_ + l) * L_ + p];
      const double nostall_step = w * qn + wstall * (qn - qn);  // qv == qn
      const Transition* t = &tr[l * S_];
      double acc = 0.0;
      for (size_t s = 0; s < S_; ++s) {
        double step = nostall_step;
        if (t[s].stalled) {
          const double qv = qoe::with_switch_penalty(t[s].stall_q, vqv, prev_vq[p], cq);
          step = w * qn + wstall * (qv - qn);
        }
        acc += prob_[s] * (step + t[s].child);
      }
      if (acc > best) best = acc;
    }
    cells[p] = best;
  }
  filled_[row] = 1;
}

PlanResult ViPlanner::plan(const PlanQuery& q) {
  PlanResult result;
  if (degenerate_plan(q, &result)) return result;

  const auto& video = *q.obs->video;
  const size_t remaining = q.obs->num_chunks - q.obs->next_chunk;  // > 0 here
  q_ = &q;
  D_ = std::min(q.horizon, remaining);
  L_ = video.ladder().level_count();
  S_ = q.num_scenarios;
  tau_ = video.chunk_duration_s();
  bsw_ = q.chunk.beta_switch;
  floor_ = q.chunk.floor;

  // Multi-resolution grid: the root is evaluated at the continuous observed
  // buffer; depth d >= 1 lives on buckets of width quantum * 2^(d-1). The
  // dynamics cap the buffer at kMaxBufferS, so its bucket bounds each axis.
  width_.assign(D_, 0.0);
  row_off_.assign(D_, 0);
  rows_ = 0;
  double wd = quantum_;
  for (size_t d = 1; d < D_; ++d) {
    width_[d] = wd;
    row_off_[d] = rows_;
    rows_ += static_cast<size_t>(buffer_bucket(kMaxBufferS, wd)) + 1;
    wd *= 2.0;
  }
  trans_.resize(D_ * L_ * S_);

  precompute(q, D_);

  if (batch_ != nullptr) {
    // Shared mode: the whole value table (and the dl rows it was built
    // from) lives in the batch, keyed by the discretized decision context.
    // Any session that lands on the same key reuses every filled cell.
    key_.clear();
    for (size_t s = 0; s < S_; ++s) {
      key_.push_back(qkbps_[s]);
      key_.push_back(prob_[s]);
    }
    if (q.use_weights) key_.insert(key_.end(), w_.begin(), w_.end());
    // Successor shortcut first: a steady session decides chunk n then
    // n + 1 under an unchanged discretized context, so the table it needs
    // is usually the one linked from the table it just used. The link is a
    // hint — trust it only after re-verifying the complete identity the
    // hash-table compare would have checked.
    PlanBatch::ViValueTable* vt = nullptr;
    if (last_vt_ != nullptr && last_vt_->succ != nullptr) {
      PlanBatch::ViValueTable* c = last_vt_->succ;
      if (c->video == &video && c->next_chunk == q.obs->next_chunk &&
          c->depth_count == D_ && c->levels == L_ && c->quantum == quantum_ &&
          c->params.beta_rebuf == q.chunk.beta_rebuf &&
          c->params.rebuf_saturation == q.chunk.rebuf_saturation &&
          c->params.beta_switch == q.chunk.beta_switch &&
          c->params.floor == q.chunk.floor && c->key.size() == key_.size() &&
          std::equal(c->key.begin(), c->key.end(), key_.begin())) {
        vt = c;
      }
    }
    if (vt == nullptr) {
      bool created = false;
      vt = &batch_->vi_table(video, q.chunk, q.obs->next_chunk, D_, L_, quantum_,
                             key_.data(), key_.size(), rows_, &created);
      if (created) {
        vt->dl.resize(D_ * L_ * S_);
        fill_dl(vt->dl.data());
      }
      if (last_vt_ != nullptr && last_vt_->video == &video &&
          last_vt_->next_chunk + 1 == q.obs->next_chunk) {
        last_vt_->succ = vt;
      }
    }
    last_vt_ = vt;
    dl_tab_ = vt->dl.data();
    v_cells_ = vt->v.get();
    filled_ = vt->filled.data();
  } else {
    local_dl_.resize(D_ * L_ * S_);
    fill_dl(local_dl_.data());
    dl_tab_ = local_dl_.data();
    if (v_.size() < rows_ * L_) v_.resize(rows_ * L_);
    row_filled_.assign(rows_, 0);
    v_cells_ = v_.data();
    filled_ = row_filled_.data();
  }

  const double w0 = w_[0];
  const double wstall0 = std::max(w0, 1.0);
  for (size_t level = 0; level < L_; ++level) {
    const double qn = root_qn_[level];
    const double vqv = vq_tab_[level];
    const double* dl_row = &root_dl_[level * S_];
    for (size_t si = 0; si < q.num_rebuffer_options; ++si) {
      const double scheduled = q.rebuffer_options[si];
      double acc = 0.0;
      for (size_t s = 0; s < S_; ++s) {
        double b = q.obs->buffer_s;
        const double dl = dl_row[s];
        double stall = 0.0;
        if (dl > b) {
          stall = dl - b;
          b = 0.0;
        } else {
          b -= dl;
        }
        if (scheduled > 0.0) {
          b += scheduled;
          stall += scheduled;
        }
        b = std::min(b + tau_, kMaxBufferS);
        const double qv =
            stall > 0.0 ? qoe::chunk_quality(vqv, stall, q.prev_visual_quality, q.chunk)
                        : qn;
        acc += prob_[s] * (w0 * qn + wstall0 * (qv - qn) + child_value(1, b, level));
      }
      // Strict improvement only: level-major, stall-option-minor iteration
      // reproduces the exact planners' first-strictly-better tie-break.
      if (acc > result.best_value) {
        result.best_value = acc;
        result.best_level = level;
        result.best_rebuffer_s = scheduled;
      }
      if (scheduled == 0.0 && acc > result.nostall_value) {
        result.nostall_value = acc;
        result.nostall_level = level;
      }
    }
  }
  // Drop the borrowed pointers: a detached batch must not leave the planner
  // dangling into freed tables at the next (unbatched) decide().
  q_ = nullptr;
  dl_tab_ = nullptr;
  v_cells_ = nullptr;
  filled_ = nullptr;
  return result;
}

const char* buffer_quantum_error(double quantum_s) {
  if (!(quantum_s >= 0.0)) return "must be >= 0 (0 selects the planner default)";
  if (quantum_s > 0.0 && quantum_s < kMinBufferQuantumS) return "must be 0 or >= 0.001";
  return nullptr;
}

std::unique_ptr<Planner> make_planner(PlannerKind kind, double dp_buffer_quantum_s) {
  const char* why = buffer_quantum_error(dp_buffer_quantum_s);
  if (why == nullptr && kind == PlannerKind::kDp && dp_buffer_quantum_s != 0.0) {
    why = "must be 0 for the exact planner=dp (bucketed planning is planner=vi)";
  }
  if (why != nullptr) {
    char value[32];
    std::snprintf(value, sizeof(value), "%g", dp_buffer_quantum_s);
    throw std::invalid_argument(std::string("make_planner: dp_buffer_quantum_s ") + why +
                                ", got " + value);
  }
  if (kind == PlannerKind::kVi) return std::make_unique<ViPlanner>(dp_buffer_quantum_s);
  return std::make_unique<DpPlanner>();
}

}  // namespace sensei::abr
