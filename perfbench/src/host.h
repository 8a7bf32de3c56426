// Host fingerprint and process memory for every benchmark result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunIdentity {
  std::string workload;
  uint64_t seed = 0;
  size_t threads = 1;
  std::string commit;       // git commit of the measured tree, or "unknown"
  std::string source_hash;  // hash of the library sources, or "unknown"
};

// One JSON object: CPU model, nproc, compiler and version, build type, the
// SENSEI_ENABLE_SIMD build option and the resolved kernel backend, plus the
// run identity above.
std::string host_fingerprint_json(const RunIdentity& id);

// Host speed. The vCPUs of a shared VM get a changing share of their
// physical cores: other tenants' load slows the same pass by up to 1.7x,
// for seconds or for minutes, with no steal time and no hardware counters
// to show it. speed_probe_ns() times a fixed throughput-bound loop of libm
// calls, which slows down with the library's code (see README, "Host
// noise"); at the reference speed it takes kReferenceProbeNs, about its
// time on an uncontended vCPU of the development host.
constexpr double kReferenceProbeNs = 2.4e6;
double speed_probe_ns();

// Rescales wall time to the reference speed. The clock probes the host when
// it is made and at every mark(); mark() returns the factor for the stretch
// since the previous probe, kReferenceProbeNs over the mean of the two
// probes (below 1 while the host is slow). Multiply a wall time taken
// inside the stretch by it.
class HostClock {
 public:
  HostClock();
  double mark();
  // Every factor mark() returned, in order.
  const std::vector<double>& scales() const { return scales_; }

 private:
  double probe_ns_;
  std::vector<double> scales_;
};

// Peak resident set size of this process (VmHWM), in MiB; 0 when the
// kernel does not report it.
double peak_rss_mib();

}  // namespace perfbench
