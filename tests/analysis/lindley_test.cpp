#include "analysis/lindley.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "tests/analysis/trace_fixtures.h"
#include "util/rng.h"

namespace bolot::analysis {
namespace {

using testing::make_trace;

TEST(WorkloadSamplesTest, ComputesGFromConsecutiveReceived) {
  // g_n = rtt_{n+1} - rtt_n + delta.
  const auto trace = make_trace(20, {150.0, 145.0, std::nullopt, 160.0, 190.0});
  const auto g = workload_samples_ms(trace);
  ASSERT_EQ(g.size(), 2u);
  EXPECT_DOUBLE_EQ(g[0], 15.0);  // 145 - 150 + 20
  EXPECT_DOUBLE_EQ(g[1], 50.0);  // 190 - 160 + 20
}

// Synthetic trace with the paper's Fig.-8 structure: compression samples
// at P/mu, idle samples at delta, and one-FTP-packet samples.
ProbeTrace fig8_trace(double delta_ms) {
  // With mu = 128 kb/s, P = 72 B: P/mu = 4.5 ms; one 512-B FTP packet
  // adds 32 ms, so the "first in a series" samples sit at 36.5 ms.
  std::vector<std::optional<double>> rtts;
  double rtt = 150.0;
  Rng rng(29);
  for (int i = 0; i < 4000; ++i) {
    const double u = rng.uniform();
    double g;
    if (u < 0.3) {
      g = 4.5;  // compression
    } else if (u < 0.8) {
      g = delta_ms;  // idle
    } else if (u < 0.95) {
      g = 36.5;  // one FTP packet
    } else {
      g = 68.5;  // two FTP packets
    }
    rtt += g - delta_ms;
    rtt = std::max(rtt, 140.0);
    rtts.push_back(rtt);
  }
  return make_trace(delta_ms, rtts);
}

TEST(AnalyzeWorkloadTest, FindsPaperPeaks) {
  const auto trace = fig8_trace(20.0);
  WorkloadOptions options;
  options.bottleneck_bps = 128e3;
  options.bin_ms = 2.0;
  options.max_ms = 90.0;
  const WorkloadAnalysis wa = analyze_workload(trace, options);

  // Expect peaks near 4.5 (compression), 20 (idle), 36.5 (1 FTP packet).
  bool has_compression = false, has_idle = false, has_one_packet = false;
  for (const auto& peak : wa.peaks) {
    if (std::abs(peak.position_ms - 5.0) <= 2.0) has_compression = true;
    if (std::abs(peak.position_ms - 20.0) <= 2.0) has_idle = true;
    if (std::abs(peak.position_ms - 36.5) <= 2.5) {
      has_one_packet = true;
      ASSERT_TRUE(peak.cross_packets.has_value());
      // b_n = mu * 36.5ms - P = 4096 bits = 512 bytes = 1 FTP packet.
      EXPECT_NEAR(*peak.cross_packets, 1.0, 0.15);
      EXPECT_NEAR(peak.workload_bits, 4096.0, 500.0);
    }
  }
  EXPECT_TRUE(has_compression);
  EXPECT_TRUE(has_idle);
  EXPECT_TRUE(has_one_packet);
}

TEST(AnalyzeWorkloadTest, PeakLabelsSkipCompressionAndIdle) {
  const auto trace = fig8_trace(20.0);
  WorkloadOptions options;
  options.bin_ms = 2.0;
  const WorkloadAnalysis wa = analyze_workload(trace, options);
  for (const auto& peak : wa.peaks) {
    if (std::abs(peak.position_ms - 4.5) <= 1.0 ||
        std::abs(peak.position_ms - 20.0) <= 1.0) {
      EXPECT_FALSE(peak.cross_packets.has_value()) << peak.position_ms;
    }
  }
}

TEST(AnalyzeWorkloadTest, LabelsPeakOneBinAwayFromDelta) {
  // Regression: the idle/compression windows are half a bin wide, not a
  // full bin.  A peak centered exactly one bin away from delta is a
  // distinct peak (its bin does not cover delta) and must keep its
  // cross-traffic label.
  const double delta_ms = 21.0;  // bin center with bin_ms = 2, lo = 0
  std::vector<std::optional<double>> rtts;
  double rtt = 150.0;
  rtts.push_back(rtt);
  for (int cycle = 0; cycle < 40; ++cycle) {
    for (int i = 0; i < 10; ++i) {
      rtt += 2.0;  // g = 23 ms: exactly one bin right of delta
      rtts.push_back(rtt);
    }
    rtt -= 20.0;  // g = 1 ms: keeps the rtt series bounded
    rtts.push_back(rtt);
  }
  const auto trace = make_trace(delta_ms, rtts);
  WorkloadOptions options;
  options.bottleneck_bps = 128e3;
  options.bin_ms = 2.0;
  options.max_ms = 90.0;  // 45 bins of exactly 2 ms
  const WorkloadAnalysis wa = analyze_workload(trace, options);

  const WorkloadPeak* near_23 = nullptr;
  for (const auto& peak : wa.peaks) {
    if (std::abs(peak.position_ms - 23.0) < 1e-9) near_23 = &peak;
  }
  ASSERT_NE(near_23, nullptr);
  ASSERT_TRUE(near_23->cross_packets.has_value());
  // b = mu*g - P = 128 bits/ms * 23 ms - 576 bits = 2368 bits.
  EXPECT_NEAR(near_23->workload_bits, 2368.0, 1e-6);
  EXPECT_NEAR(*near_23->cross_packets, 2368.0 / 4096.0, 1e-6);
}

TEST(AnalyzeWorkloadTest, Validation) {
  const auto trace = fig8_trace(20.0);
  // NaN gave busy fraction 0 and two peaks; infinity an infinite mean.
  for (const double bad : {0.0, std::nan(""), HUGE_VAL}) {
    SCOPED_TRACE(bad);
    WorkloadOptions options;
    options.bottleneck_bps = bad;
    try {
      analyze_workload(trace, options);
      ADD_FAILURE() << "mu = " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(),
                   "analyze_workload: mu must be finite and positive");
    }
  }
  EXPECT_THROW(analyze_workload(make_trace(20, {}), {}),
               std::invalid_argument);
  // A bad bin or edge is a named error, never a plausible histogram (a
  // zero bin made the bin count +inf, converted to std::size_t).
  const auto expect_named = [&trace](const WorkloadOptions& bad,
                                     const std::string& field) {
    try {
      analyze_workload(trace, bad);
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("analyze_workload: " + field, 0), 0u) << what;
    }
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bin : {-1.0, 0.0, std::nan(""), inf}) {
    WorkloadOptions bad;
    bad.bin_ms = bin;
    expect_named(bad, "bin_ms");
  }
  for (const double edge : {std::nan(""), inf}) {
    WorkloadOptions bad;
    bad.max_ms = edge;
    expect_named(bad, "max_ms");
  }
}

TEST(AnalyzeWorkloadTest, LossBreaksTheOnlyPair) {
  // Two received probes around a lost one form no pair, so there is no
  // g_n to histogram: a named error, with a pinned edge as well.
  const auto trace = make_trace(50, {80.0, std::nullopt, 90.0});
  WorkloadOptions options;
  options.max_ms = 100.0;
  try {
    analyze_workload(trace, options);
    ADD_FAILURE() << "a pairless trace was analyzed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "analyze_workload: no consecutive pairs");
  }
}

TEST(AnalyzeWorkloadTest, ReceivedProbeWithZeroRttFormsPairs) {
  // Pairing follows ProbeRecord::received, never rtt == 0: the received
  // 0-ns probe pairs with both neighbors (g = -80 ms, then 120 ms).
  const auto trace = make_trace(20, {100.0, 0.0, 100.0, std::nullopt, 100.0});
  for (const double max_ms : {200.0, 0.0}) {
    SCOPED_TRACE(max_ms);
    WorkloadOptions options;
    options.max_ms = max_ms;
    const WorkloadAnalysis wa = analyze_workload(trace, options);
    EXPECT_EQ(wa.histogram.bin_count(), max_ms > 0.0 ? 200u : 126u);
    // Two samples, one binned: the density is over the binned one, the
    // peak mass over both (g = -80 ms falls below the first bin).
    EXPECT_EQ(wa.histogram.count(120), 1u);
    EXPECT_EQ(wa.histogram.densities()[120], 1.0);
    EXPECT_EQ(wa.histogram.find_peaks(0.0).at(0).mass, 0.5);
    EXPECT_EQ(wa.mean_workload_bits, 0x1.cep+13);  // 128 * 120 - 576
    EXPECT_EQ(wa.busy_sample_fraction, 0.5);
    ASSERT_EQ(wa.peaks.size(), 1u);
    EXPECT_EQ(wa.peaks[0].position_ms, 0x1.e2p+6);
  }
}

/// Histogram bins weighted by (index + 1): one number that moves when any
/// sample lands in a different bin.
std::uint64_t bin_checksum(const Histogram& histogram) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < histogram.bin_count(); ++i) {
    sum += (i + 1) * histogram.count(i);
  }
  return sum;
}

/// Samples in the histogram's bins.
std::uint64_t binned(const Histogram& histogram) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < histogram.bin_count(); ++i) {
    sum += histogram.count(i);
  }
  return sum;
}

/// Whether every sample landed in a bin: a bin's density is over the
/// binned samples, a peak's mass over all of them.
bool none_out_of_range(const Histogram& histogram) {
  const auto peaks = histogram.find_peaks(0.0);
  return !peaks.empty() &&
         peaks[0].mass == histogram.densities()[peaks[0].bin];
}

struct PinnedPeak {
  double position_ms, mass, workload_bits;
  std::optional<double> cross_packets;
};

void expect_peaks(const WorkloadAnalysis& wa,
                  const std::vector<PinnedPeak>& want) {
  ASSERT_EQ(wa.peaks.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(wa.peaks[i].position_ms, want[i].position_ms) << i;
    EXPECT_EQ(wa.peaks[i].mass, want[i].mass) << i;
    EXPECT_EQ(wa.peaks[i].workload_bits, want[i].workload_bits) << i;
    EXPECT_EQ(wa.peaks[i].cross_packets, want[i].cross_packets) << i;
  }
}

TEST(AnalyzeWorkloadTest, MillionSampleStreamIsPinned) {
  // analyze_workload on the million-sample random-walk stream, pinned bit
  // for bit (hex floats).  The auto edge at delta = 20 ms is 1.05 * max g,
  // not a whole number of ns: converting it through Duration would move
  // the bin width and every pin below.
  const auto rtts = testing::random_rtt_stream(
      11, testing::kMillionSamples, 0.05, 19.5, /*tick_ms=*/0.0);
  WorkloadOptions options;
  options.bottleneck_bps = 128e3;
  options.bin_ms = 1.0;

  options.max_ms = 200.0;
  const WorkloadAnalysis explicit_edge =
      analyze_workload(make_trace(50.0, rtts), options);
  EXPECT_EQ(explicit_edge.histogram.bin_count(), 200u);
  EXPECT_EQ(explicit_edge.histogram.bin_width(), 1.0);
  EXPECT_EQ(binned(explicit_edge.histogram), 902483u);
  EXPECT_TRUE(none_out_of_range(explicit_edge.histogram));
  EXPECT_EQ(bin_checksum(explicit_edge.histogram), 45576632u);
  EXPECT_EQ(explicit_edge.mean_workload_bits, 0x1.6c03f5f0005bap+12);
  EXPECT_EQ(explicit_edge.busy_sample_fraction, 1.0);
  expect_peaks(explicit_edge,
               {{0x1.e8p+4, 0x1.48f056b805661p-4, 0x1.ap+11, 0x1.ap-1},
                {0x1.94p+5, 0x1.6fc5600275bdp-4, 0x1.7p+12, std::nullopt},
                {0x1.b4p+5, 0x1.6fe711cc86b1fp-4, 0x1.9p+12, 0x1.9p+0}});

  options.max_ms = 0.0;
  const WorkloadAnalysis auto_edge =
      analyze_workload(make_trace(20.0, rtts), options);
  EXPECT_EQ(auto_edge.histogram.bin_count(), 53u);
  EXPECT_EQ(auto_edge.histogram.bin_width(), 0x1.f9f68b34bcdcep-1);
  EXPECT_EQ(binned(auto_edge.histogram), 902483u);
  EXPECT_TRUE(none_out_of_range(auto_edge.histogram));
  EXPECT_EQ(bin_checksum(auto_edge.histogram), 18719839u);
  EXPECT_EQ(auto_edge.mean_workload_bits, 0x1.13eb769bec6f2p+11);
  EXPECT_EQ(auto_edge.busy_sample_fraction, 0x1.d5dcae1cdf25dp-1);
  expect_peaks(
      auto_edge,
      {{0x1.f9f68b34bcdcep-2, 0x1.48ee03d63931ep-4, 0.0, std::nullopt},
       {0x1.4421f12dc8fd8p+4, 0x1.6a3e34dbad8e3p-4, 0x1.f843e25b91fbp+10,
        std::nullopt},
       {0x1.8360c29460992p+4, 0x1.6a648c6956eb8p-4, 0x1.3b60c29460992p+11,
        0x1.3b60c29460992p-1}});
}

TEST(EstimateBottleneckTest, ExactClockRecoversMu) {
  const auto trace = fig8_trace(20.0);
  const BottleneckEstimate estimate = estimate_bottleneck(trace);
  EXPECT_NEAR(estimate.service_time_ms, 4.5, 0.3);
  EXPECT_NEAR(estimate.mu_bps, 128e3, 10e3);
  EXPECT_GT(estimate.cluster_samples, 100u);
}

TEST(EstimateBottleneckTest, QuantizedClockRecoversMu) {
  auto trace = fig8_trace(20.0);
  trace.clock_tick = Duration::micros(3906);
  for (auto& record : trace.records) {
    const double tick = 3.906;
    record.rtt =
        Duration::millis(std::floor(record.rtt.millis() / tick) * tick);
  }
  const BottleneckEstimate estimate = estimate_bottleneck(trace);
  // Quantization spreads the cluster over two ticks; the pair centroid
  // lands within roughly half a tick of the truth.
  EXPECT_NEAR(estimate.service_time_ms, 4.5, 2.0);
}

ProbeTrace packet_pair_trace(double service_ms, double contamination_rate,
                             std::uint64_t seed) {
  // Pairs sent 0.2 ms apart every 100 ms; return spacing = service time,
  // occasionally inflated by an interleaved cross packet.
  Rng rng(seed);
  ProbeTrace trace;
  trace.delta = Duration::millis(50);  // nominal
  trace.probe_wire_bytes = 72;
  std::uint64_t seq = 0;
  for (int pair = 0; pair < 400; ++pair) {
    const double base_ms = 100.0 * pair;
    const double rtt1 = 140.0 + rng.uniform(0.0, 30.0);
    ProbeRecord first;
    first.seq = seq++;
    first.send_time = Duration::millis(base_ms);
    first.received = true;
    first.rtt = Duration::millis(rtt1);
    trace.records.push_back(first);

    double spacing = service_ms;
    if (rng.chance(contamination_rate)) spacing += 32.0;  // FTP interleave
    ProbeRecord second;
    second.seq = seq++;
    second.send_time = Duration::millis(base_ms + 0.2);
    second.received = true;
    // r2 = r1 + spacing  =>  rtt2 = rtt1 + spacing - send_gap.
    second.rtt = Duration::millis(rtt1 + spacing - 0.2);
    trace.records.push_back(second);
  }
  return trace;
}

TEST(PacketPairTest, RecoversServiceTime) {
  const auto trace = packet_pair_trace(4.5, 0.0, 3);
  const auto estimate = estimate_bottleneck_packet_pair(trace);
  EXPECT_NEAR(estimate.service_time_ms, 4.5, 0.05);
  EXPECT_NEAR(estimate.mu_bps, 128e3, 2e3);
  EXPECT_NEAR(estimate.cluster_fraction, 1.0, 1e-9);
}

TEST(PacketPairTest, RobustToInterleavedCrossTraffic) {
  const auto trace = packet_pair_trace(4.5, 0.3, 5);
  const auto estimate = estimate_bottleneck_packet_pair(trace);
  EXPECT_NEAR(estimate.service_time_ms, 4.5, 0.3);
  EXPECT_NEAR(estimate.cluster_fraction, 0.7, 0.08);
}

TEST(PacketPairTest, RejectsOutlierFactorBelowOne) {
  // The cluster cut sits at 1.5 x the median spacing, never below it: the
  // median is always in the cluster, a spacing at the cut is kept, and
  // one past it counts as interleaved.
  ProbeTrace trace;
  trace.delta = Duration::millis(50);
  trace.probe_wire_bytes = 72;
  std::uint64_t seq = 0;
  for (const std::int64_t spacing_us : {4000, 4000, 4000, 6000, 6100}) {
    const Duration base = Duration::millis(100) * static_cast<double>(seq);
    ProbeRecord first;
    first.seq = seq++;
    first.send_time = base;
    first.received = true;
    first.rtt = Duration::millis(150);
    trace.records.push_back(first);
    ProbeRecord second;
    second.seq = seq++;
    second.send_time = base + Duration::micros(200);
    second.received = true;
    // Returns spacing_us after the first probe.
    second.rtt = first.rtt + Duration::nanos(spacing_us * 1000) -
                 Duration::micros(200);
    trace.records.push_back(second);
  }
  const auto estimate = estimate_bottleneck_packet_pair(trace);
  EXPECT_EQ(estimate.cluster_samples, 4u);
  EXPECT_EQ(estimate.service_time_ms, 4.5);
  EXPECT_EQ(estimate.cluster_fraction, 0.8);
}

TEST(PacketPairTest, IgnoresWideSendGaps) {
  // A trace with only delta-spaced probes has no pairs.
  std::vector<std::optional<double>> rtts(100, 150.0);
  EXPECT_THROW(
      estimate_bottleneck_packet_pair(testing::make_trace(50, rtts)),
      std::invalid_argument);
}

TEST(EstimateBottleneckTest, ThrowsWithoutCompressionCluster) {
  // Uncongested: all g == delta.
  std::vector<std::optional<double>> rtts(200, 150.0);
  EXPECT_THROW(estimate_bottleneck(make_trace(500.0, rtts)),
               std::runtime_error);
}

}  // namespace
}  // namespace bolot::analysis
