#include "host.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#if __has_include("util/kernels.h")
#include "util/kernels.h"
#define PERFBENCH_HAS_KERNELS 1
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SIMD_OPTION
#define PERFBENCH_SIMD_OPTION "unknown"
#endif

namespace perfbench {

namespace {

volatile double probe_sink = 0.0;  // keeps the probe loop from being optimized out

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// JSON string literal with quotes and backslashes escaped and control
// characters dropped.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string host_fingerprint_json(const RunIdentity& id) {
#ifdef PERFBENCH_HAS_KERNELS
  const std::string backend = sensei::util::kernel_backend_name();
#else
  const std::string backend = "none";
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::string out = "{";
  out += "\"cpu\": " + quoted(cpu_model());
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"compiler\": " + quoted(compiler);
  out += ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE);
  out += ", \"sensei_enable_simd\": " + quoted(PERFBENCH_SIMD_OPTION);
  out += ", \"kernel_backend\": " + quoted(backend);
  out += ", \"commit\": " + quoted(id.commit);
  out += ", \"source_hash\": " + quoted(id.source_hash);
  out += ", \"workload\": " + quoted(id.workload);
  out += ", \"seed\": " + std::to_string(id.seed);
  out += ", \"runner_threads\": " + std::to_string(id.threads);
  return out + "}";
}

double speed_probe_ns() {
  const auto t0 = std::chrono::steady_clock::now();
  double acc = 0.0;
  for (int i = 1; i <= 200000; ++i) acc += std::log(static_cast<double>(i)) * std::exp(-1.0 / i);
  const auto t1 = std::chrono::steady_clock::now();
  probe_sink = acc;
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

HostClock::HostClock() : probe_ns_(speed_probe_ns()) {}

double HostClock::mark() {
  const double before = probe_ns_;
  probe_ns_ = speed_probe_ns();
  scales_.push_back(kReferenceProbeNs / (0.5 * (before + probe_ns_)));
  return scales_.back();
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace perfbench
