// Shared helpers for the bench binaries that regenerate the paper's tables
// and figures. Each binary prints the same rows/series the paper reports.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "abr/planner.h"
#include "crowd/campaign.h"
#include "crowd/ground_truth.h"
#include "media/encoder.h"
#include "sim/render.h"
#include "util/stats.h"
#include "util/table.h"

namespace sensei::bench {

// Parses `--planner dp|vi` for the Fugu-based grid benches. dp is the exact
// branch and bound; vi is the lossy discretized value iteration: output may
// legitimately shift within the accuracy bound pinned by
// tests/test_planner_accuracy.cpp, so CI treats dp-vs-vi diffs as
// informational, never as a determinism failure.
inline abr::PlannerKind planner_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--planner") == 0 && i + 1 < argc) {
      if (std::strcmp(argv[i + 1], "dp") == 0) return abr::PlannerKind::kDp;
      if (std::strcmp(argv[i + 1], "vi") == 0) return abr::PlannerKind::kVi;
      std::fprintf(stderr, "error: --planner expects dp or vi\n");
      std::exit(2);
    }
  }
  return abr::PlannerKind::kDp;
}

// The registry's `planner=` value for `planner`.
inline const char* planner_text(abr::PlannerKind planner) {
  return planner == abr::PlannerKind::kVi ? "vi" : "dp";
}

// Parses `--threads N` for the grid benches. 0 (the default) lets
// core::ExperimentRunner pick std::thread::hardware_concurrency(). A value
// that is present but unparsable or non-positive aborts: falling back
// silently would run with a different thread count than the caller asked
// for, which defeats determinism comparisons keyed on `--threads`.
inline size_t threads_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      char* end = nullptr;
      long n = (i + 1 < argc) ? std::strtol(argv[i + 1], &end, 10) : 0;
      if (i + 1 >= argc || end == argv[i + 1] || *end != '\0' || n <= 0) {
        std::fprintf(stderr, "error: --threads requires a positive integer\n");
        std::exit(2);
      }
      return static_cast<size_t>(n);
    }
  }
  return 0;
}

// Parses `--shards N` / `--cells N` for the fleet benches: a non-negative
// integer, 0 = automatic. A present but unparsable or negative value aborts.
inline size_t count_arg(int argc, char** argv, const char* flag, size_t fallback) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      char* end = nullptr;
      long n = (i + 1 < argc) ? std::strtol(argv[i + 1], &end, 10) : -1;
      if (i + 1 >= argc || end == argv[i + 1] || *end != '\0' || n < 0) {
        std::fprintf(stderr, "error: %s requires a non-negative integer\n", flag);
        std::exit(2);
      }
      return static_cast<size_t>(n);
    }
  }
  return fallback;
}

// Collects every `--policy SPEC` occurrence: abr::PolicyRegistry spec
// strings ("bba", "fugu:planner=vi", ... — grammar in abr/registry.h) the
// spec-driven benches append to or substitute for their default policy
// set. Syntax/vocabulary validation is the registry's job, so a bad spec
// fails with the registry's position-annotated error at construction.
inline std::vector<std::string> policy_specs_arg(int argc, char** argv) {
  std::vector<std::string> specs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) specs.push_back(argv[i + 1]);
  }
  return specs;
}

// Parses `--smoke`: bench_fleet's reduced sweep for the CI thread and shard
// diffs.
inline bool smoke_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  }
  return false;
}

// Parses `--out FILE` for the JSON-emitting benches; a present flag without
// a destination aborts rather than silently writing the default path.
inline std::string out_arg(int argc, char** argv, const std::string& default_path) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --out requires a file path\n");
        std::exit(2);
      }
      return argv[i + 1];
    }
  }
  return default_path;
}

// Rejects argv entries outside the accepted flag set, so a typo fails loudly
// instead of silently running the default sweep. `value_flags` consume the
// following argument; `bool_flags` stand alone.
inline void check_flags(int argc, char** argv, std::initializer_list<const char*> value_flags,
                        std::initializer_list<const char*> bool_flags,
                        const char* usage) {
  for (int i = 1; i < argc; ++i) {
    bool known = false;
    for (const char* flag : value_flags) {
      if (std::strcmp(argv[i], flag) == 0) {
        // A value flag with a missing value — or another flag where its
        // value belongs — must fail loudly: silently running the default
        // would e.g. let a dropped `--threads 4` turn CI's thread diff into
        // a default-vs-default run, and `--out --smoke` would be
        // double-read as both an output path and the smoke switch.
        if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
          std::fprintf(stderr, "error: %s requires a value\nusage: %s\n", flag, usage);
          std::exit(2);
        }
        known = true;
        ++i;  // the flag's value
        break;
      }
    }
    if (!known) {
      for (const char* flag : bool_flags) {
        if (std::strcmp(argv[i], flag) == 0) {
          known = true;
          break;
        }
      }
    }
    if (!known) {
      std::fprintf(stderr, "usage: %s\n", usage);
      std::exit(2);
    }
  }
}

// Crowdsourced MOS for a set of renderings of one source video: runs a
// simulated MTurk campaign against the pristine reference, as §4.1 does.
inline std::vector<double> crowdsourced_mos(const crowd::GroundTruthQoE& oracle,
                                            const media::EncodedVideo& video,
                                            const std::vector<sim::RenderedVideo>& renderings,
                                            size_t ratings_per_video, uint64_t seed) {
  crowd::Campaign campaign(oracle, crowd::RaterConfig(), crowd::CampaignConfig(), seed);
  auto reference = sim::RenderedVideo::pristine(video);
  return campaign.run(renderings, reference, ratings_per_video).mos;
}

// Prints an empirical CDF as "value fraction" rows at the given quantiles.
inline void print_cdf(const std::string& title, const std::vector<double>& values) {
  std::printf("%s", util::banner(title).c_str());
  util::Table table({"percentile", "value"});
  for (double p : {0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0}) {
    table.add_row(std::vector<double>{p, util::percentile(values, p)}, 2);
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace sensei::bench
