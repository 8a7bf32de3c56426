// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload fleet-mix|fleet-faults|paper-grid --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//             [--commit SHA] [--source-hash HASH]
//
// --trace 0 (timed run): sets the workload up, then repeats untraced
// passes for S seconds, setting up again before each pass, and reports the
// end-to-end metrics (sessions_per_s is the median over passes, setup_s the
// median set-up repetition, both at the reference host speed: a HostClock
// probes the host after every set-up slice and every library call, and each
// wall time is rescaled by the mean of the probes on either side).
// --trace 1 (traced run): the same set-up, then alternates untraced and
// traced passes for S seconds and reports the per-layer metrics; spans go to --trace-out. Every pass is checked: its
// digest must equal the first pass's, its conservation checks must hold,
// and traced digests must equal untraced ones.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted counts passes and failed counts passes that threw or
// failed a check. Earlier lines carry the host fingerprint and a
// human-readable summary.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "digest.h"
#include "host.h"
#include "layers.h"
#include "metrics.h"
#include "workloads.h"

using namespace perfbench;

namespace {

// Set-up runs kFirstSetupReps times before the first pass, then before every
// later untraced pass for about kSetupSliceS (at least once, at most
// kMaxSetupRepsPerSlice times); setup_s is the median repetition.
constexpr size_t kFirstSetupReps = 3;
constexpr double kSetupSliceS = 0.01;
constexpr size_t kMaxSetupRepsPerSlice = 64;
constexpr size_t kMinPasses = 3;  // per kind of pass, even past the deadline

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_hash = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload fleet-mix|fleet-faults|paper-grid "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--commit SHA] "
               "[--source-hash HASH]\n",
               why);
  std::exit(2);
}

uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || text[0] == '-') {
    usage((std::string(flag) + " needs a non-negative integer").c_str());
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(value, "--seconds"));
      if (a.seconds < 1) usage("--seconds must be >= 1");
    } else if (flag == "--trace") {
      const uint64_t t = parse_u64(value, "--trace");
      if (t > 1) usage("--trace must be 0 or 1");
      a.trace = static_cast<int>(t);
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--source-hash") {
      a.source_hash = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

double seconds_since(uint64_t t0) { return static_cast<double>(steady_ns() - t0) / 1e9; }

// Pass bookkeeping shared by both modes.
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  std::string reference;  // digest of the first good pass
  PassOutput first;
  std::vector<std::string> problems;

  // Records one pass's verdict; returns true when it counts as good.
  bool record(const PassOutput& out, const std::string& label) {
    ++attempted;
    bool ok = true;
    for (const std::string& v : out.violations) {
      problems.push_back(label + ": " + v);
      ok = false;
    }
    if (reference.empty()) {
      reference = out.digest;
      first = out;
    } else if (out.digest != reference) {
      problems.push_back(label + ": digest differs from the first pass");
      ok = false;
    }
    if (!ok) ++failed;
    return ok;
  }

  void threw(const std::string& label, const char* what) {
    ++attempted;
    ++failed;
    problems.push_back(label + " threw: " + what);
  }
};

// Sessions per second of library time, at the reference host speed and as
// measured; both -1 when the pass threw or failed a check.
struct PassRate {
  double rate = -1.0;
  double wall_rate = -1.0;
};

// Runs fn() as one pass.
template <typename Fn>
PassRate run_pass(Tally& tally, const std::string& label, Fn&& fn) {
  try {
    const PassOutput out = fn();
    if (tally.record(out, label) && out.sessions > 0 && out.seconds > 0 && out.wall_seconds > 0) {
      return {out.sessions / out.seconds, out.sessions / out.wall_seconds};
    }
  } catch (const std::exception& e) {
    tally.threw(label, e.what());
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  if (!workload) usage(("unknown workload " + args.workload).c_str());

  RunIdentity identity{args.workload, args.seed, workload->threads(), args.commit,
                       args.source_hash};
  std::printf("host %s\n", host_fingerprint_json(identity).c_str());
  std::fflush(stdout);

  Tally tally;
  SpanLog spans;

  // --- set-up: every repetition must build identical inputs -------------
  // A few repetitions run before the first pass; the rest run between
  // untraced passes, so set-up time samples the same stretch of host time
  // as the passes do, and every pass runs on freshly built inputs.
  HostClock clock;
  std::vector<double> setup_s;  // at the reference host speed
  std::vector<SetupTimes> setup_times;
  std::string setup_digest;
  bool setup_ok = true;
  auto set_up = [&](size_t max_reps) {
    const uint64_t start = steady_ns();
    const size_t first = setup_s.size();
    size_t reps = 0;
    while (reps < max_reps && (reps == 0 || seconds_since(start) < kSetupSliceS)) {
      setup_times.emplace_back();
      std::string digest;
      try {
        digest = workload->setup(args.seed, &setup_times.back());
      } catch (const std::exception& e) {
        tally.problems.push_back(std::string("set-up threw: ") + e.what());
        setup_ok = false;
        setup_times.pop_back();
        break;
      }
      setup_s.push_back(static_cast<double>(setup_times.back().total_ns()) / 1e9);
      ++reps;
      if (setup_digest.empty()) {
        setup_digest = digest;
      } else if (digest != setup_digest) {
        tally.problems.push_back("set-up repetition " + std::to_string(setup_s.size()) +
                                 " built other inputs");
        setup_ok = false;
      }
    }
    spans.add("setup x" + std::to_string(reps), start, steady_ns());
    const double scale = clock.mark();
    for (size_t r = first; r < setup_s.size(); ++r) setup_s[r] *= scale;
  };
  set_up(kFirstSetupReps);
  if (setup_s.empty()) {
    for (const std::string& p : tally.problems) std::fprintf(stderr, "perfbench: %s\n", p.c_str());
    return 1;
  }
  for (const std::string& v : workload->check_setup()) {
    tally.problems.push_back("set-up: " + v);
    setup_ok = false;
  }

  // --- passes -----------------------------------------------------------------
  // Sessions per second of each good pass, at the reference host speed;
  // wall_rates are the untraced ones as measured.
  std::vector<double> rates;
  std::vector<double> wall_rates;
  std::vector<double> traced_rates;
  std::vector<std::map<std::string, double>> layer_samples;
  PolicyTimer timer;
  const uint64_t start = steady_ns();
  for (size_t i = 0;; ++i) {
    const bool enough = rates.size() >= kMinPasses &&
                        (args.trace == 0 || traced_rates.size() >= kMinPasses);
    if (seconds_since(start) >= args.seconds && enough) break;
    if (i >= 4 * kMinPasses && seconds_since(start) >= args.seconds) break;  // all failing
    if (i > 0) set_up(kMaxSetupRepsPerSlice);
    const PassRate r =
        run_pass(tally, "pass " + std::to_string(i), [&] { return workload->pass(clock); });
    if (r.rate > 0) {
      rates.push_back(r.rate);
      wall_rates.push_back(r.wall_rate);
    }
    if (args.trace == 0) continue;

    TracedPass tp;
    timer.install();
    const uint64_t t0 = steady_ns();
    const int span = spans.add("traced pass " + std::to_string(i), t0, t0);
    const PassRate traced = run_pass(tally, "traced pass " + std::to_string(i), [&] {
      tp = workload->traced_pass(timer, spans, span, clock);
      return tp.out;
    });
    timer.uninstall();
    spans.close(span, steady_ns());
    if (traced.rate > 0) {
      traced_rates.push_back(traced.rate);
      layer_samples.push_back(layer_metrics(tp));
    }
  }
  for (auto& [label, out] : workload->check_passes()) tally.record(out, label);

  // --- report -------------------------------------------------------------------
  bool correct = setup_ok && tally.failed == 0 && !rates.empty();
  for (const std::string& p : tally.problems) std::printf("problem %s\n", p.c_str());
  const PassOutput& ref = tally.first;
  std::printf(
      "result workload=%s seed=%llu passes=%zu failed=%zu error_rate=%.9g sessions_per_pass=%.9g "
      "sessions_per_s=%s setup_s=%s wall_sessions_per_s=%s host_speed=%s qoe_mean=%.9g "
      "sensei_qoe_gain=%.9g recovery_rate=%.9g digest=%016llx\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), tally.attempted,
      tally.failed,
      tally.attempted ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted)
                      : 1.0,
      ref.sessions, describe(rates).c_str(), describe(setup_s).c_str(),
      describe(wall_rates).c_str(), describe(clock.scales()).c_str(), ref.qoe_mean,
      ref.sensei_qoe_gain, ref.recovery_rate,
      static_cast<unsigned long long>(fnv1a(tally.reference)));

  MetricSet metrics;
  if (args.trace == 0) {
    metrics = end_to_end_metrics(median(rates), median(setup_s), peak_rss_mib(), ref.qoe_mean);
  } else {
    std::map<std::string, double> extra = setup_layer_metrics(setup_times);
    extra["trace.overhead"] =
        traced_rates.empty() ? 0.0 : median(rates) / median(traced_rates);
    extra["sim.recovery_rate"] = ref.recovery_rate;
    extra["core.grid.sensei_qoe_gain"] = ref.sensei_qoe_gain;
    metrics = per_layer_metrics(layer_samples, extra);
    std::printf("layers traced_passes=%zu traced_sessions_per_s=%s\n", traced_rates.size(),
                describe(traced_rates).c_str());
    for (const Metric& m : metrics) {
      std::printf("layer %s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!args.trace_out.empty()) {
      if (spans.write_json(args.trace_out)) {
        std::printf("spans %zu written to %s\n", spans.spans().size(), args.trace_out.c_str());
      } else {
        std::printf("spans could not be written to %s\n", args.trace_out.c_str());
      }
    }
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("problem metric %s is not finite\n", m.name.c_str());
      correct = false;
    }
  }
  std::printf("%s\n", result_json(correct, tally.attempted, tally.failed, metrics).c_str());
  return 0;
}
