#include "net/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace sensei::net {
namespace {

TEST(Trace, ConstructionValidation) {
  EXPECT_THROW(ThroughputTrace("x", {}), std::runtime_error);
  EXPECT_THROW(ThroughputTrace("x", {100.0}, 0.0), std::runtime_error);
  EXPECT_THROW(ThroughputTrace("x", {-5.0}), std::runtime_error);
}

TEST(Trace, ThroughputAtAndWrap) {
  ThroughputTrace t("t", {100, 200, 300}, 1.0);
  EXPECT_DOUBLE_EQ(t.throughput_at(0.0), 100);
  EXPECT_DOUBLE_EQ(t.throughput_at(1.5), 200);
  EXPECT_DOUBLE_EQ(t.throughput_at(2.9), 300);
  EXPECT_DOUBLE_EQ(t.throughput_at(3.0), 100);  // wraps
  EXPECT_DOUBLE_EQ(t.throughput_at(7.2), 200);
  EXPECT_DOUBLE_EQ(t.throughput_at(-1.0), 100);  // clamped to start
}

TEST(Trace, MeanAndStddev) {
  ThroughputTrace t("t", {100, 300}, 1.0);
  EXPECT_DOUBLE_EQ(t.mean_kbps(), 200);
  EXPECT_DOUBLE_EQ(t.stddev_kbps(), 100);
  EXPECT_DOUBLE_EQ(t.duration_s(), 2.0);
}

TEST(Trace, DownloadTimeSimpleCase) {
  // Constant 1000 Kbps: 125000 bytes = 1 Mbit -> 1 s + rtt.
  ThroughputTrace t("t", std::vector<double>(10, 1000.0), 1.0);
  EXPECT_NEAR(t.download_time_s(125000, 0.0, 0.08), 1.08, 1e-9);
}

TEST(Trace, DownloadTimeIntegratesSteps) {
  // 1 Mbit to download: first second at 500 Kbps moves 0.5 Mbit, second
  // second at 1000 Kbps moves the rest in 0.5 s.
  ThroughputTrace t("t", {500, 1000, 1000}, 1.0);
  EXPECT_NEAR(t.download_time_s(125000, 0.0, 0.0), 1.5, 1e-9);
}

TEST(Trace, DownloadTimeMidIntervalStart) {
  ThroughputTrace t("t", {1000, 2000}, 1.0);
  // Start at 0.5: 0.5 s at 1000 (0.5 Mbit), then at 2000 the remaining
  // 0.5 Mbit takes 0.25 s.
  EXPECT_NEAR(t.download_time_s(125000, 0.5, 0.0), 0.75, 1e-9);
}

TEST(Trace, DownloadTimeZeroBytes) {
  ThroughputTrace t("t", {1000}, 1.0);
  EXPECT_DOUBLE_EQ(t.download_time_s(0.0, 0.0, 0.08), 0.08);
}

TEST(Trace, DownloadSurvivesZeroThroughputStretch) {
  ThroughputTrace t("t", {0, 0, 1000}, 1.0);
  // Two dead seconds, then 1 s of transfer.
  EXPECT_NEAR(t.download_time_s(125000, 0.0, 0.0), 3.0, 1e-9);
}

TEST(Trace, AllZeroLoopingTraceIsAnOutage) {
  // The old integrator walked 10,000 intervals and then returned a finite
  // time as if the chunk had completed. A dead link must surface as an
  // outage: advance() reports it and download_time_s is unbounded.
  ThroughputTrace t("dead", {0, 0, 0, 0}, 1.0);
  TransferResult r = t.advance(1000.0, 2.5);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(std::isinf(r.elapsed_s));
  EXPECT_TRUE(std::isinf(t.download_time_s(1000.0, 0.0, 0.08)));
}

TEST(Trace, FiniteTraceEndsInOutageMidTransfer) {
  // 2 s of 1000 Kbps, finite: a 0.5 Mbit chunk started at 1.8 can never
  // finish — 0.2 s of capacity remain. Looping, it completes fine.
  ThroughputTrace looping("loop", {1000, 1000}, 1.0);
  ThroughputTrace finite = looping.as_finite();
  EXPECT_TRUE(finite.finite());
  EXPECT_FALSE(looping.finite());
  EXPECT_TRUE(looping.advance(62500.0, 1.8).completed);
  TransferResult r = finite.advance(62500.0, 1.8);
  EXPECT_FALSE(r.completed);
  // Past the end a finite trace reads 0 Kbps; in range both agree.
  EXPECT_DOUBLE_EQ(finite.throughput_at(2.1), 0.0);
  EXPECT_DOUBLE_EQ(looping.throughput_at(2.1), 1000.0);
  EXPECT_DOUBLE_EQ(finite.throughput_at(1.5), 1000.0);
}

TEST(Trace, FiniteTraceCompletesExactlyAtTheEnd) {
  // Exactly enough capacity: 1 Mbit over the last second of a finite trace.
  ThroughputTrace t = ThroughputTrace("edge", {1000.0}, 1.0).as_finite();
  TransferResult r = t.advance(125000.0, 0.0);
  EXPECT_TRUE(r.completed);
  EXPECT_NEAR(r.elapsed_s, 1.0, 1e-12);
  EXPECT_FALSE(t.advance(125001.0, 0.0).completed);
}

TEST(Trace, NonDyadicIntervalBoundariesMakeProgress) {
  // interval_s = 0.1 (real 100 ms captures): at boundaries like t = 4.3,
  // (floor(t/0.1)+1)*0.1 equals t in floating point — the old walk got
  // span 0 and spun forever once the iteration cap was removed. The
  // index-based walk must cross hundreds of such boundaries and finish.
  ThroughputTrace t("fcc-100ms", std::vector<double>(100, 1000.0), 0.1);
  // 10 Mbit at 1000 Kbps: exactly 10 s spanning 100 boundaries, looping.
  TransferResult r = t.advance(1250000.0, 0.0);
  EXPECT_TRUE(r.completed);
  EXPECT_NEAR(r.elapsed_s, 10.0, 1e-6);
  // Start exactly on the troublesome boundary family too.
  TransferResult r2 = t.advance(125000.0, 4.3);
  EXPECT_TRUE(r2.completed);
  EXPECT_NEAR(r2.elapsed_s, 1.0, 1e-6);
  // And an all-zero 100 ms trace still reads as an outage, not a hang.
  ThroughputTrace dead("dead-100ms", std::vector<double>(100, 0.0), 0.1);
  EXPECT_FALSE(dead.advance(1000.0, 4.3).completed);
}

TEST(Trace, NonFiniteWallClockReadsAsDeadLink) {
  // An earlier outage propagates a +inf wall clock into later queries (the
  // legacy loop in tests/oracle and the offline planner do exactly this). Those
  // must degrade to "dead link", not undefined index arithmetic.
  ThroughputTrace t("t", {1000, 2000}, 1.0);
  double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(t.throughput_at(inf), 0.0);
  EXPECT_DOUBLE_EQ(t.throughput_at(std::nan("")), 0.0);
  TransferResult r = t.advance(1000.0, inf);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(std::isinf(t.download_time_s(1000.0, inf, 0.08)));
}

TEST(Trace, ConstructionRejectsNonFiniteValues) {
  double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ThroughputTrace("x", {100.0, inf}), std::runtime_error);
  EXPECT_THROW(ThroughputTrace("x", {std::nan("")}), std::runtime_error);
  EXPECT_THROW(ThroughputTrace("x", {100.0}, std::nan("")), std::runtime_error);
}

TEST(Trace, RttPlacedBeforeTheTransfer) {
  // 1000 Kbps then dead then 1000 Kbps. With rtt = 0.5 the transfer starts
  // at t = 0.5 and only 0.5 s of the first interval's capacity is usable.
  ThroughputTrace t("gap", {1000, 0, 1000}, 1.0);
  // 0.75 Mbit: 0.5 s of capacity in [0.5,1), dead [1,2), 0.25 s into [2,3).
  EXPECT_NEAR(t.download_time_s(93750.0, 0.0, 0.5), 0.5 + 1.75, 1e-9);
  // Zero-byte request still costs the round trip.
  EXPECT_DOUBLE_EQ(t.download_time_s(0.0, 0.0, 0.5), 0.5);
}

TEST(Trace, ScaledMultipliesSamples) {
  ThroughputTrace t("t", {100, 200}, 1.0);
  ThroughputTrace s = t.scaled(0.5, "half");
  EXPECT_EQ(s.name(), "half");
  EXPECT_DOUBLE_EQ(s.mean_kbps(), 75.0);
  EXPECT_THROW(t.scaled(-1.0), std::runtime_error);
}

TEST(Trace, WithNoiseChangesSamplesButKeepsFloor) {
  ThroughputTrace t("t", std::vector<double>(500, 1000.0), 1.0);
  ThroughputTrace n = t.with_noise(400.0, 99, 50.0);
  ASSERT_EQ(n.sample_count(), t.sample_count());
  bool any_diff = false;
  for (size_t i = 0; i < n.sample_count(); ++i) {
    EXPECT_GE(n.samples_kbps()[i], 50.0);
    if (n.samples_kbps()[i] != 1000.0) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
  // Deterministic for the same seed.
  ThroughputTrace n2 = t.with_noise(400.0, 99, 50.0);
  EXPECT_EQ(n.samples_kbps(), n2.samples_kbps());
}

TEST(Trace, CsvRoundTrip) {
  ThroughputTrace t("orig", {123.5, 456.25, 789.0}, 2.0);
  ThroughputTrace back = ThroughputTrace::from_csv("copy", t.to_csv());
  ASSERT_EQ(back.sample_count(), 3u);
  EXPECT_DOUBLE_EQ(back.interval_s(), 2.0);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(back.samples_kbps()[i], t.samples_kbps()[i]);
  }
}

TEST(Trace, FromCsvRejectsEmpty) {
  EXPECT_THROW(ThroughputTrace::from_csv("x", "time_s,throughput_kbps\n"),
               std::runtime_error);
}

TEST(Trace, FromCsvSkipsBlankAndCommentLines) {
  ThroughputTrace t = ThroughputTrace::from_csv(
      "x", "# a captured trace\ntime_s,throughput_kbps\n\n0,100\n  \n1,200\n# tail\n");
  ASSERT_EQ(t.sample_count(), 2u);
  EXPECT_DOUBLE_EQ(t.samples_kbps()[1], 200.0);
  EXPECT_DOUBLE_EQ(t.interval_s(), 1.0);
}

namespace {

// Asserts from_csv throws and the message carries the expected fragment
// (in particular the 1-based line number of the offending row).
void expect_csv_error(const std::string& csv, const std::string& fragment) {
  try {
    ThroughputTrace::from_csv("bad", csv);
    FAIL() << "expected from_csv to throw for: " << csv;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message '" << e.what() << "' lacks '" << fragment << "'";
  }
}

}  // namespace

TEST(Trace, FromCsvRejectsNonMonotonicTimestampsWithLineNumber) {
  expect_csv_error("time_s,throughput_kbps\n0,100\n2,200\n1,300\n", "line 4");
  expect_csv_error("0,100\n0,200\n", "non-monotonic");
}

TEST(Trace, FromCsvRejectsNonUniformSpacingWithLineNumber) {
  // 0,1,3: the second gap (2 s) disagrees with the first (1 s).
  expect_csv_error("0,100\n1,200\n3,300\n", "non-uniform");
  expect_csv_error("0,100\n1,200\n3,300\n", "line 3");
}

TEST(Trace, FromCsvRejectsMalformedCellsWithLineNumber) {
  expect_csv_error("time_s,throughput_kbps\n0,abc\n", "line 2");
  expect_csv_error("0,100\nnan-ish,200\n", "malformed timestamp");
  expect_csv_error("0,100\n1,\n", "malformed throughput");
  expect_csv_error("just-one-field\n", "expected");
  expect_csv_error("0,100\n1,1.5trailing\n", "line 2");
  expect_csv_error("0,-40\n", "negative");
  // std::stod parses "nan"/"inf"; both must be rejected, not ingested.
  expect_csv_error("0,nan\n1,100\n", "line 1");
  expect_csv_error("0,100\n1,inf\n", "malformed throughput");
  expect_csv_error("0,100\ninf,200\n", "malformed timestamp");
}

}  // namespace
}  // namespace sensei::net
