// Streaming estimator tests (docs/ESTIMATORS.md states the per-estimator
// contract these tests pin).  loss_stats and fit_gilbert are folds over
// StreamingLossState, so their outputs are pinned in loss_test instead;
// what stays here is what a fold cannot show: snapshots taken mid-stream
// and the packet-pair front end under seeded out-of-order, duplicate and
// late returns.
#include "analysis/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/lindley.h"
#include "analysis/loss.h"
#include "trace_fixtures.h"
#include "util/rng.h"

namespace bolot::analysis {
namespace {

using testing::random_gilbert_losses;

// ---------------------------------------------------------------------------
// StreamingLossState
// ---------------------------------------------------------------------------

void expect_loss_stats_equal(const LossStats& got, const LossStats& want) {
  EXPECT_EQ(got.probes, want.probes);
  EXPECT_EQ(got.losses, want.losses);
  EXPECT_EQ(got.ulp, want.ulp);
  EXPECT_EQ(got.clp, want.clp);
  EXPECT_EQ(got.plg_from_clp, want.plg_from_clp);
  EXPECT_EQ(got.mean_burst_length, want.mean_burst_length);
  EXPECT_EQ(got.burst_length_counts, want.burst_length_counts);
}

TEST(StreamingLossStateTest, SnapshotMatchesBatchAtEveryPrefix) {
  const auto losses = random_gilbert_losses(7, 0.3, 0.4, 300);
  StreamingLossState streaming;
  for (std::size_t n = 0; n < losses.size(); ++n) {
    streaming.push_lost(losses[n] != 0);
    const auto prefix =
        std::span<const std::uint8_t>(losses.data(), n + 1);
    expect_loss_stats_equal(streaming.stats(), loss_stats(prefix));
  }
}

TEST(StreamingLossStateTest, DegenerateChainsMatchBatch) {
  for (bool all_lost : {true, false}) {
    StreamingLossState streaming;
    for (int i = 0; i < 10; ++i) streaming.push_lost(all_lost);
    const GilbertFit fit = streaming.gilbert();
    EXPECT_EQ(fit.p, all_lost ? 1.0 : 0.0);
    EXPECT_EQ(fit.q, all_lost ? 0.0 : 1.0);
    EXPECT_TRUE(fit.degenerate);
    const LossStats stats = streaming.stats();
    EXPECT_EQ(stats.ulp, all_lost ? 1.0 : 0.0);
    EXPECT_EQ(stats.mean_burst_length, all_lost ? 10.0 : 0.0);
  }
}

TEST(StreamingLossStateTest, EmptyThrowsLikeBatch) {
  StreamingLossState streaming;
  EXPECT_THROW(streaming.stats(), std::invalid_argument);
  EXPECT_THROW(streaming.gilbert(), std::invalid_argument);
  streaming.push_lost(false);
  EXPECT_THROW(streaming.gilbert(), std::invalid_argument);
  EXPECT_EQ(streaming.stats().probes, 1u);
}

// ---------------------------------------------------------------------------
// StreamingPacketPair
// ---------------------------------------------------------------------------

void expect_estimates_equal(const BottleneckEstimate& got,
                            const BottleneckEstimate& want) {
  EXPECT_EQ(got.service_time_ms, want.service_time_ms);
  EXPECT_EQ(got.mu_bps, want.mu_bps);
  EXPECT_EQ(got.cluster_samples, want.cluster_samples);
  EXPECT_EQ(got.cluster_fraction, want.cluster_fraction);
}

/// The packet-pair walk written out directly over a seq-ordered trace, an
/// oracle independent of StreamingPacketPair (which the batch entry point
/// folds over): adjacent received records sent within the pair gap keep
/// their positive return spacing; then the median and the centroid of
/// the spacings within 1.5 x of it.  nullopt when no pair formed.
std::optional<BottleneckEstimate> reference_packet_pair(
    const ProbeTrace& trace) {
  constexpr double kOutlierFactor = 1.5;
  std::vector<double> spacings;
  const auto& records = trace.records;
  for (std::size_t n = 0; n + 1 < records.size(); ++n) {
    const ProbeRecord& first = records[n];
    const ProbeRecord& second = records[n + 1];
    if (!first.received || !second.received) continue;
    if (second.send_time - first.send_time > kPairSendGap) continue;
    const double spacing = ((second.send_time + second.rtt) -
                            (first.send_time + first.rtt))
                               .millis();
    if (spacing > 0.0) spacings.push_back(spacing);
  }
  if (spacings.empty()) return std::nullopt;
  std::sort(spacings.begin(), spacings.end());
  const double med = spacings[spacings.size() / 2];
  double sum = 0.0;
  std::size_t count = 0;
  for (const double spacing : spacings) {
    if (spacing <= med * kOutlierFactor) {
      sum += spacing;
      ++count;
    }
  }
  BottleneckEstimate estimate;
  estimate.service_time_ms = sum / static_cast<double>(count);
  estimate.mu_bps = static_cast<double>(trace.probe_wire_bytes * 8) /
                    (estimate.service_time_ms * 1e-3);
  estimate.cluster_samples = count;
  estimate.cluster_fraction =
      static_cast<double>(count) / static_cast<double>(spacings.size());
  return estimate;
}

/// One seeded mutation of a packet-pair return stream.  The in-order
/// trace has pairs (send gaps straddling kPairSendGap), long loss gaps,
/// and zero and negative return spacings.  The arrival order pushes the
/// received probes in seq order, with duplicates of pushed returns and
/// late returns of skipped seqs injected behind the pushed prefix.
struct MutatedReturns {
  struct Return {
    std::uint64_t seq;
    Duration send_time;
    Duration return_time;
  };
  ProbeTrace in_order;  // the de-duplicated trace: pushed seqs received
  std::vector<Return> arrivals;
  std::size_t injected = 0;  // duplicates + late returns
};

MutatedReturns mutate_returns(std::uint64_t seed) {
  Rng rng(seed);
  MutatedReturns m;
  m.in_order.delta = Duration::millis(20);
  m.in_order.probe_wire_bytes = 72;
  const std::size_t n = 2 + rng.uniform_int(60);
  std::vector<MutatedReturns::Return> all;
  Duration send = Duration::millis(rng.uniform(0.0, 10.0));
  Duration back = send + Duration::millis(80);
  for (std::size_t seq = 0; seq < n; ++seq) {
    const bool tiny_gap = seq > 0 && rng.chance(0.5);
    if (seq > 0) {
      send += tiny_gap ? Duration::micros(rng.uniform(0.0, 700.0))
                       : Duration::millis(rng.uniform(5.0, 100.0));
    }
    if (tiny_gap) {
      // Spacing behind the previous return: zero, negative, the service
      // time, or inflated by an interleaved cross packet.
      const std::uint64_t kind = rng.uniform_int(4);
      back += kind == 0   ? Duration::zero()
              : kind == 1 ? Duration::millis(-rng.uniform(0.0, 2.0))
              : kind == 2 ? Duration::millis(4.5)
                          : Duration::millis(rng.uniform(5.0, 40.0));
    } else {
      back = send + Duration::millis(rng.uniform(50.0, 150.0));
    }
    all.push_back({seq, send, back});
  }

  std::vector<bool> pushed(n, false);
  std::vector<std::uint64_t> pushed_seqs;
  std::vector<std::uint64_t> skipped_seqs;
  for (std::size_t seq = 0; seq < n; ++seq) {
    // Lost, or held back to return late; a long gap now and then.
    const double miss = rng.chance(0.05) ? 0.9 : 0.2;
    if (rng.chance(miss)) {
      skipped_seqs.push_back(seq);
      continue;
    }
    m.arrivals.push_back(all[seq]);
    pushed[seq] = true;
    pushed_seqs.push_back(seq);
    while (rng.chance(0.3)) {
      const bool duplicate = skipped_seqs.empty() || rng.chance(0.5);
      const std::vector<std::uint64_t>& from =
          duplicate ? pushed_seqs : skipped_seqs;
      m.arrivals.push_back(all[from[rng.uniform_int(from.size())]]);
      ++m.injected;
    }
  }
  for (std::size_t seq = 0; seq < n; ++seq) {
    ProbeRecord record;
    record.seq = seq;
    record.send_time = all[seq].send_time;
    record.received = pushed[seq];
    if (record.received) record.rtt = all[seq].return_time - record.send_time;
    m.in_order.records.push_back(record);
  }
  return m;
}

TEST(StreamingPacketPairTest, SeededMutationsMatchBatchOnInOrderTrace) {
  std::size_t with_pairs = 0;
  for (std::uint64_t seed = 0; seed < 10'000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const MutatedReturns m = mutate_returns(seed);
    StreamingPacketPair streaming(ByteSize::bytes(72), m.arrivals.size());
    for (const MutatedReturns::Return& r : m.arrivals) {
      streaming.push(r.seq, r.send_time, r.return_time);
    }
    ASSERT_EQ(streaming.rejected(), m.injected);
    const std::optional<BottleneckEstimate> want =
        reference_packet_pair(m.in_order);
    if (!want) {
      ASSERT_EQ(streaming.pairs(), 0u);
      ASSERT_THROW(estimate_bottleneck_packet_pair(m.in_order),
                   std::invalid_argument);
      ASSERT_THROW(streaming.estimate(), std::invalid_argument);
      continue;
    }
    ++with_pairs;
    expect_estimates_equal(streaming.estimate(), *want);
    expect_estimates_equal(estimate_bottleneck_packet_pair(m.in_order),
                           *want);
    if (HasFailure()) return;
  }
  // Both outcomes were exercised.
  EXPECT_GT(with_pairs, 1000u);
  EXPECT_LT(with_pairs, 10'000u);
}

TEST(StreamingPacketPairTest, KeepsOnlyPositiveSpacingsWithinTheSendGap) {
  StreamingPacketPair streaming(ByteSize::bytes(72), 2);
  const auto ms = [](double v) { return Duration::millis(v); };
  streaming.push(0, ms(0.0), ms(100.0));
  streaming.push(1, ms(0.2), ms(104.5));   // pair: spacing 4.5 ms
  streaming.push(2, ms(0.4), ms(104.5));   // zero spacing: dropped
  streaming.push(3, ms(0.6), ms(104.0));   // negative spacing: dropped
  streaming.push(4, ms(50.0), ms(150.0));  // send gap too wide
  streaming.push(6, ms(50.1), ms(152.0));  // seq gap breaks the chain
  streaming.push(6, ms(50.1), ms(152.0));  // duplicate
  streaming.push(5, ms(50.05), ms(151.0));  // late
  EXPECT_EQ(streaming.pairs(), 1u);
  EXPECT_EQ(streaming.rejected(), 2u);
  streaming.push(7, ms(50.2), ms(156.5));  // pair: spacing 4.5 ms
  const BottleneckEstimate estimate = streaming.estimate();
  EXPECT_EQ(estimate.service_time_ms, 4.5);
  EXPECT_EQ(estimate.cluster_samples, 2u);
  // The capacity fixed at construction is a hard bound.
  EXPECT_THROW(streaming.push(8, ms(50.3), ms(161.0)), std::length_error);
}

TEST(StreamingPacketPairTest, RejectsOutlierFactorBelowOne) {
  // The cut is 1.5 x the median, never below it: the median spacing is
  // always in the cluster, 6 ms (at the cut) is kept, 6.1 ms is not.
  StreamingPacketPair streaming(ByteSize::bytes(72), 8);
  EXPECT_THROW(streaming.estimate(), std::invalid_argument);
  const auto us = [](std::int64_t v) { return Duration::nanos(v * 1000); };
  std::uint64_t seq = 0;
  for (const std::int64_t spacing_us : {4000, 6100, 4000, 6000, 4000}) {
    const Duration base = us(100'000) * static_cast<double>(seq);
    streaming.push(seq++, base, base + us(150'000));
    streaming.push(seq++, base + us(200), base + us(150'000 + spacing_us));
  }
  ASSERT_EQ(streaming.pairs(), 5u);
  const BottleneckEstimate estimate = streaming.estimate();
  EXPECT_EQ(estimate.cluster_samples, 4u);
  EXPECT_EQ(estimate.service_time_ms, 4.5);
  EXPECT_EQ(estimate.cluster_fraction, 0.8);
}

}  // namespace
}  // namespace bolot::analysis
