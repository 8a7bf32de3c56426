#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "core/experiments.h"
#include "core/runner.h"
#include "core/sensei.h"
#include "digest.h"
#include "metrics.h"
#include "media/dataset.h"
#include "media/encoder.h"
#include "net/trace_gen.h"
#include "sim/fleet.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace perfbench {

namespace core = sensei::core;
namespace media = sensei::media;
namespace net = sensei::net;
namespace sim = sensei::sim;

namespace {

double to_s(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Digest of an encoded video pool: names, shapes and every chunk size.
std::string video_digest(const std::vector<media::EncodedVideo>& videos) {
  std::string out;
  for (const media::EncodedVideo& v : videos) {
    double bytes = 0.0;
    const size_t levels = v.ladder().level_count();
    for (size_t c = 0; c < v.num_chunks(); ++c) {
      for (size_t l = 0; l < levels; ++l) bytes += v.size_bytes(c, l);
    }
    out += v.source().name() + "/" + std::to_string(v.num_chunks()) + "x" +
           std::to_string(levels) + "/" + fmt_double(bytes) + " ";
  }
  return out;
}

// --- fleets -----------------------------------------------------------------

// Per-cell session-completion timestamps from FleetConfig::on_session_done.
// Each cell runs on one worker, which alone writes the cell's entry.
struct CellClock {
  uint64_t first_ns = 0;
  uint64_t last_ns = 0;
  uint64_t hook_ns = 0;
  size_t sessions = 0;
  std::thread::id thread;
};

class FleetWorkload : public Workload {
 public:
  FleetWorkload(const char* name, size_t threads, std::function<void(sim::FleetConfig&)> shape)
      : name_(name), threads_(threads), shape_(std::move(shape)), runner_(threads) {}

  const char* name() const override { return name_; }
  size_t threads() const override { return threads_; }

  std::string setup(uint64_t seed, SetupTimes* times) override {
    // The same four generated 120 s genre videos as bench_fleet.
    const uint64_t t0 = steady_ns();
    media::Encoder encoder;
    std::vector<media::EncodedVideo> videos;
    const media::Genre genres[] = {media::Genre::kSports, media::Genre::kNature,
                                   media::Genre::kGaming, media::Genre::kAnimation};
    for (size_t i = 0; i < 4; ++i) {
      videos.push_back(encoder.encode(
          media::SourceVideo::generate("Fleet" + std::to_string(i), genres[i], 120.0)));
    }
    const uint64_t t1 = steady_ns();
    sim::FleetConfig config;
    config.num_cells = kCells;
    config.seed = seed;
    shape_(config);
    auto fleet = std::make_unique<sim::FleetSimulator>(config);
    const uint64_t t2 = steady_ns();
    times->encode_ns = t1 - t0;
    times->fleet_construct_ns = t2 - t1;

    videos_ = std::move(videos);
    video_ptrs_.clear();
    for (const auto& v : videos_) video_ptrs_.push_back(&v);
    fleet_ = std::move(fleet);
    // The traced run's copy of the fleet, with per-cell completion stamps.
    config.on_session_done = [this](size_t cell, const sim::SessionArrival&,
                                    const sim::SessionEngine&) {
      const uint64_t t = steady_ns();
      CellClock& c = clocks_[cell];
      if (c.sessions++ == 0) {
        c.first_ns = t;
        c.thread = std::this_thread::get_id();
      }
      c.last_ns = t;
      c.hook_ns += steady_ns() - t;
    };
    hooked_ = std::make_unique<sim::FleetSimulator>(config);
    // The cells' arrivals, traces and faults all derive from the fleet seed.
    std::string digest = video_digest(videos_) + "seed=" + std::to_string(seed) + " ";
    for (const std::string& spec : fleet_->policy_specs()) digest += spec + " ";
    return digest;
  }

  PassOutput pass(HostClock& clock) override {
    const uint64_t t0 = steady_ns();
    sim::FleetAggregates agg = fleet_->run(video_ptrs_, runner_);
    const uint64_t t1 = steady_ns();
    return summarize(agg, t1 - t0, clock.mark());
  }

  std::vector<std::pair<std::string, PassOutput>> check_passes() override {
    if (threads_ == 1) return {};
    // Bit-identity across thread counts: the same fleet on one thread.
    core::ExperimentRunner serial(1);
    return {{"1-thread", summarize(fleet_->run(video_ptrs_, serial), 0, 1.0)}};
  }

  TracedPass traced_pass(PolicyTimer& timer, SpanLog& spans, int parent,
                         HostClock& clock) override {
    clocks_.assign(kCells, CellClock());
    timer.harvest();  // start from empty counters

    const uint64_t t0 = steady_ns();
    sim::FleetAggregates agg = hooked_->run(video_ptrs_, runner_);
    const uint64_t t1 = steady_ns();
    const double scale = clock.mark();

    TracedPass tp;
    tp.abr = timer.harvest();
    tp.out = summarize(agg, t1 - t0, scale);
    const int run_span = spans.add("sim.fleet.run", t0, t1, parent);

    // Cells run back to back on each worker, so a cell's span runs from the
    // end of the previous cell on its thread (or the run's start) to its
    // last session completion.
    std::vector<size_t> order;
    for (size_t c = 0; c < kCells; ++c) {
      if (clocks_[c].sessions > 0) order.push_back(c);
    }
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return clocks_[a].first_ns < clocks_[b].first_ns; });
    std::map<std::thread::id, uint64_t> thread_end;
    std::vector<double> cell_ms;
    uint64_t busy_ns = 0, hook_ns = 0;
    for (size_t c : order) {
      const CellClock& clock = clocks_[c];
      auto it = thread_end.find(clock.thread);
      const uint64_t start = it == thread_end.end() ? t0 : it->second;
      thread_end[clock.thread] = clock.last_ns;
      spans.add("sim.fleet.cell " + std::to_string(c), start, clock.last_ns, run_span);
      busy_ns += clock.last_ns - start;
      hook_ns += clock.hook_ns;
      cell_ms.push_back(static_cast<double>(clock.last_ns - start) / 1e6);
    }

    // Standalone replay of every cell's workload stream and trace.
    sim::WorkloadConfig workload = hooked_->config().workload;
    workload.num_videos = video_ptrs_.size();
    const uint64_t w0 = steady_ns();
    size_t generated = 0;
    for (size_t c = 0; c < kCells; ++c) {
      sim::WorkloadGenerator gen(workload,
                                 core::ExperimentRunner::task_seed(hooked_->config().seed, c));
      sim::SessionArrival arrival;
      while (gen.next(&arrival)) ++generated;
      const net::ThroughputTrace trace = gen.make_trace("fleet-cell-" + std::to_string(c));
      if (trace.sample_count() == 0) tp.out.violations.push_back("empty replayed cell trace");
    }
    const uint64_t w1 = steady_ns();
    spans.add("sim.workload.replay", w0, w1, parent);
    if (generated != agg.sessions) {
      tp.out.violations.push_back("replayed arrivals (" + std::to_string(generated) +
                                  ") != fleet sessions (" + std::to_string(agg.sessions) + ")");
    }

    const double run_ns = static_cast<double>(t1 - t0);
    const double self_ns = static_cast<double>(busy_ns) -
                           static_cast<double>(tp.abr.decorated_ns()) -
                           static_cast<double>(hook_ns);
    const double workload_ns = static_cast<double>(w1 - w0);
    tp.layer["sim.fleet.run.ns"] = run_ns;
    tp.layer["sim.fleet.self.ns"] = self_ns;
    tp.layer["sim.workload.ns"] = workload_ns;
    tp.layer["sim.fleet.loop.ns"] = self_ns - workload_ns;
    tp.layer["sim.cell.ms_p50"] = nearest_rank(cell_ms, 0.5);
    tp.layer["sim.cell.ms_p99"] = nearest_rank(cell_ms, 0.99);
    tp.layer["sim.cell.ms_max"] = nearest_rank(cell_ms, 1.0);
    tp.layer["core.runner.busy_share"] =
        static_cast<double>(busy_ns) / (static_cast<double>(threads_) * run_ns);
    return tp;
  }

 private:
  static constexpr size_t kCells = 64;

  // `scale` is the HostClock factor for the run's `run_ns`.
  static PassOutput summarize(const sim::FleetAggregates& agg, uint64_t run_ns, double scale) {
    PassOutput out;
    out.digest = fleet_digest(agg);
    out.wall_seconds = to_s(run_ns);
    out.seconds = out.wall_seconds * scale;
    out.sessions = static_cast<double>(agg.sessions);
    out.qoe_mean = agg.session_qoe.mean();
    out.recovery_rate = agg.disrupted_sessions == 0
                            ? 0.0
                            : static_cast<double>(agg.recovered_sessions) /
                                  static_cast<double>(agg.disrupted_sessions);
    out.counts = {{"sim.sessions", static_cast<double>(agg.sessions)},
                  {"sim.chunks", static_cast<double>(agg.chunks)},
                  {"sim.timeouts", static_cast<double>(agg.timeouts)},
                  {"sim.retries", static_cast<double>(agg.retries)},
                  {"sim.failovers", static_cast<double>(agg.failovers)},
                  {"sim.outages", static_cast<double>(agg.outages)},
                  {"sim.peak_concurrent", static_cast<double>(agg.peak_concurrent)}};
    out.violations = fleet_violations(agg);
    return out;
  }

  const char* name_;
  size_t threads_;
  std::function<void(sim::FleetConfig&)> shape_;
  core::ExperimentRunner runner_;
  std::vector<media::EncodedVideo> videos_;
  std::vector<const media::EncodedVideo*> video_ptrs_;
  std::unique_ptr<sim::FleetSimulator> fleet_;
  std::unique_ptr<sim::FleetSimulator> hooked_;  // fleet_ plus on_session_done
  std::vector<CellClock> clocks_;
};

void shape_fleet_mix(sim::FleetConfig&) {}  // the default WorkloadConfig

void shape_fleet_faults(sim::FleetConfig& config) {
  sim::WorkloadConfig& w = config.workload;
  w.policy_mix = {{"bba", 1.0}, {"rate_based", 1.0}, {"whittle", 1.0}};
  w.arrivals = sim::ArrivalProcess::kDiurnal;
  w.arrival_rate_per_s = 1.0;
  config.faults.trace_faults.mean_outages = 2.0;
  config.faults.trace_faults.mean_collapses = 2.0;
  config.faults.trace_faults.mean_rtt_spikes = 2.0;
  config.faults.cell_failure_fraction = 0.2;
  config.player.resilience.request_timeout_s = 8.0;
  config.player.resilience.max_retries = 3;
}

// --- paper grid ---------------------------------------------------------------

class PaperGridWorkload : public Workload {
 public:
  PaperGridWorkload() : runner_(1) {}

  const char* name() const override { return "paper-grid"; }
  size_t threads() const override { return 1; }

  std::string setup(uint64_t seed, SetupTimes* times) override {
    const uint64_t t0 = steady_ns();
    media::Encoder encoder;
    std::vector<media::EncodedVideo> videos;
    for (const media::SourceVideo& source : media::Dataset::test_set()) {
      videos.push_back(encoder.encode(source));
    }
    const uint64_t t1 = steady_ns();
    std::vector<net::ThroughputTrace> traces = make_traces(seed);
    const uint64_t t2 = steady_ns();
    const core::Sensei sensei(core::Experiments::oracle());
    std::vector<std::vector<double>> weights;
    for (const media::EncodedVideo& v : videos) weights.push_back(sensei.profile(v).profile.weights);
    const uint64_t t3 = steady_ns();
    times->encode_ns = t1 - t0;
    times->trace_gen_ns = t2 - t1;
    times->profile_ns = t3 - t2;

    videos_ = std::move(videos);
    traces_ = std::move(traces);
    weights_ = std::move(weights);
    single_videos_.clear();
    for (const media::EncodedVideo& v : videos_) single_videos_.push_back({v});
    std::string digest = video_digest(videos_);
    for (const net::ThroughputTrace& t : traces_) {
      digest += t.name() + "/" + std::to_string(t.sample_count()) + "/" +
                fmt_double(t.mean_kbps()) + " ";
    }
    for (const auto& w : weights_) {
      for (double x : w) digest += fmt_double(x) + ",";
      digest += " ";
    }
    return digest;
  }

  std::vector<std::string> check_setup() override {
    // The profiled weights are exactly the library's cached Experiments::weights().
    std::vector<std::string> bad;
    if (weights_ != core::Experiments::weights()) {
      bad.push_back("profiled weights differ from Experiments::weights()");
    }
    if (video_digest(videos_) != video_digest(core::Experiments::videos())) {
      bad.push_back("encoded videos differ from Experiments::videos()");
    }
    return bad;
  }

  PassOutput pass(HostClock& clock) override {
    const Grids g = run_grids(clock, nullptr, -1);
    return summarize(g);
  }

  TracedPass traced_pass(PolicyTimer& timer, SpanLog& spans, int parent,
                         HostClock& clock) override {
    timer.harvest();
    const Grids g = run_grids(clock, &spans, parent);
    TracedPass tp;
    tp.abr = timer.harvest();
    tp.out = summarize(g);
    tp.layer["core.grid.run.ns.fugu"] = static_cast<double>(g.fugu_ns);
    tp.layer["core.grid.run.ns.sensei-fugu"] = static_cast<double>(g.sensei_ns);
    tp.layer["core.grid.self.ns"] = static_cast<double>(g.fugu_ns + g.sensei_ns) -
                                    static_cast<double>(tp.abr.decorated_ns());
    return tp;
  }

 private:
  // Evaluation traces in the paper's 0.2-6 Mbps band, cellular and
  // broadband alternating, with means at the centres of kTraces equal
  // slices of the band; the seed draws each trace's shape. Planning cost
  // depends mostly on the mean (a 1-2.5 Mbps trace costs ~30x one above
  // 3 Mbps), so fixed means keep the work per pass close for every seed,
  // and 30 traces rather than the paper's 10 average out most of what the
  // shapes still change (the seed-to-seed spread of sessions/s falls from
  // about 14% to about 5%).
  static constexpr size_t kTraces = 30;

  static std::vector<net::ThroughputTrace> make_traces(uint64_t seed) {
    sensei::util::Rng rng(sensei::util::mix_seed(seed, 0x67726964));
    std::vector<net::ThroughputTrace> out;
    const double lo = 200.0, hi = 6000.0, duration_s = 700.0;
    const double slice = (hi - lo) / static_cast<double>(kTraces);
    for (size_t i = 0; i < kTraces; ++i) {
      const double mean = lo + slice * (static_cast<double>(i) + 0.5);
      const std::string name = "grid-" + std::to_string(i);
      out.push_back(i % 2 == 0
                        ? net::TraceGenerator::cellular(name, mean, duration_s, rng.next_u64())
                        : net::TraceGenerator::broadband(name, mean, duration_s, rng.next_u64()));
    }
    return out;
  }

  struct Grids {
    std::vector<core::Experiments::RunResult> fugu, sensei;
    double seconds = 0.0;                  // library calls, at the reference host speed
    uint64_t fugu_ns = 0, sensei_ns = 0;   // wall time of each policy's calls
  };

  // Both policies' grids, as one run_grid call per video and policy, so that
  // the clock samples the host speed every ~70 ms rather than once per ~2 s
  // pass. run_grid's output is video-major, so the concatenated results are
  // exactly those of one call over all videos. With `spans`, each call gets
  // a span under `parent`.
  Grids run_grids(HostClock& clock, SpanLog* spans, int parent) const {
    Grids g;
    const auto fugu = core::Experiments::policy_factory("fugu");
    const auto sensei = core::Experiments::policy_factory("sensei-fugu");
    for (size_t v = 0; v < single_videos_.size(); ++v) {
      for (const bool weighted : {false, true}) {
        const uint64_t t0 = steady_ns();
        std::vector<core::Experiments::RunResult> cells = core::Experiments::run_grid(
            single_videos_[v], traces_, weighted ? sensei : fugu,
            weighted ? std::vector<std::vector<double>>{weights_[v]}
                     : std::vector<std::vector<double>>{},
            runner_);
        const uint64_t t1 = steady_ns();
        g.seconds += to_s(t1 - t0) * clock.mark();
        (weighted ? g.sensei_ns : g.fugu_ns) += t1 - t0;
        auto& out = weighted ? g.sensei : g.fugu;
        out.insert(out.end(), std::make_move_iterator(cells.begin()),
                   std::make_move_iterator(cells.end()));
        if (spans != nullptr) {
          spans->add(std::string("core.grid.run_grid ") + (weighted ? "sensei-fugu " : "fugu ") +
                         videos_[v].source().name(),
                     t0, t1, parent);
        }
      }
    }
    return g;
  }

  static PassOutput summarize(const Grids& g) {
    const std::vector<core::Experiments::RunResult>& fugu = g.fugu;
    const std::vector<core::Experiments::RunResult>& sensei = g.sensei;
    PassOutput out;
    out.seconds = g.seconds;
    out.wall_seconds = to_s(g.fugu_ns + g.sensei_ns);
    out.digest = "fugu: " + grid_digest(fugu) + "\nsensei-fugu: " + grid_digest(sensei);
    out.violations = grid_violations(fugu, "fugu");
    for (std::string& v : grid_violations(sensei, "sensei-fugu")) out.violations.push_back(v);
    if (fugu.size() != sensei.size() || fugu.empty()) {
      out.violations.push_back("grid sizes differ or are empty");
      return out;
    }
    double qoe = 0.0, gain = 0.0, chunks = 0.0;
    for (size_t i = 0; i < fugu.size(); ++i) {
      qoe += sensei[i].true_qoe;
      gain += sensei[i].true_qoe - fugu[i].true_qoe;
      chunks += static_cast<double>(fugu[i].session.chunks().size() +
                                    sensei[i].session.chunks().size());
    }
    const double n = static_cast<double>(fugu.size());
    out.sessions = 2.0 * n;
    out.qoe_mean = qoe / n;
    out.sensei_qoe_gain = gain / n;
    out.counts = {{"sim.sessions", 2.0 * n}, {"sim.chunks", chunks}};
    return out;
  }

  core::ExperimentRunner runner_;
  std::vector<media::EncodedVideo> videos_;
  std::vector<std::vector<media::EncodedVideo>> single_videos_;  // run_grid's input, per video
  std::vector<net::ThroughputTrace> traces_;
  std::vector<std::vector<double>> weights_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fleet-mix") return std::make_unique<FleetWorkload>("fleet-mix", 1, shape_fleet_mix);
  if (name == "fleet-faults") {
    return std::make_unique<FleetWorkload>("fleet-faults", 2, shape_fleet_faults);
  }
  if (name == "paper-grid") return std::make_unique<PaperGridWorkload>();
  return nullptr;
}

}  // namespace perfbench
