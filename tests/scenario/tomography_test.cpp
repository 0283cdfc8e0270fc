// run_tomography: inference accuracy against simulator ground truth,
// determinism (same spec -> same result, including across PDES domain
// counts for the loss pass), and the mesh-level push audit.  Heap growth
// with run length is tomography_alloc_test's.
#include "scenario/tomography.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>

#include "runner/thread_pool.h"
#include "tests/scenario/tomography_ci_spec.h"
#include "tests/sim/lent_workers.h"

namespace bolot::scenario {
namespace {

TEST(TomographyTest, LossInferenceWithinTenPercentOfGroundTruth) {
  // The headline acceptance gate against mesh size and probe rate:
  // per-link-class loss recovered from end-to-end streaming estimates
  // alone, within 10% aggregate error, with an exact push audit.  The
  // 18-host mesh is gated by bench/perf_ledger.
  struct Row {
    std::size_t hosts;
    int delta_ms;
    std::size_t link_classes;
    std::uint64_t events;
  };
  const Row rows[] = {
      {4, 10, 5, 904'938},
      {8, 10, 13, 3'927'332},
      {8, 20, 13, 1'961'778},
      {8, 40, 13, 982'840},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::to_string(row.hosts) + " hosts, delta " +
                 std::to_string(row.delta_ms) + " ms");
    TomographySpec spec = ci_spec();
    if (row.hosts == 4) spec.topology.hosts_per_stub = 1;
    spec.delta = Duration::millis(row.delta_ms);
    const TomographyResult result = run_tomography(spec);
    EXPECT_EQ(result.hosts, row.hosts);
    EXPECT_EQ(result.streams, row.hosts * (row.hosts - 1));
    EXPECT_EQ(result.link_classes, row.link_classes);
    EXPECT_LE(result.link_classes, result.probed_links);
    EXPECT_EQ(result.events, row.events);
    EXPECT_LT(result.loss_error, 0.10);
    EXPECT_EQ(result.audit_loss_mismatch, 0.0);
    EXPECT_EQ(result.audit_summary_mismatch, 0.0);
    EXPECT_EQ(result.audit_lindley_mismatch, 0.0);
    EXPECT_EQ(result.audit_pair_late_returns, 0u);
    // Every stream actually probed and returned traffic.
    for (const TomographyStreamSummary& s : result.stream_summaries) {
      EXPECT_GT(s.sent, 0u);
      EXPECT_GT(s.received, 0u);
      EXPECT_LT(s.loss_fraction, 0.9);
    }
  }
}

TEST(TomographyTest, DelayInferenceMatchesDeliveryHookTruth) {
  const TomographyResult result = run_tomography(ci_spec());
  // Without background load, per-link sojourns are near deterministic
  // (transmission + propagation + light probe-on-probe queueing), so the
  // least-squares recovery should land well within the loss gate.
  EXPECT_LT(result.delay_error, 0.10);
  for (const TomographyLinkClass& c : result.classes) {
    EXPECT_GT(c.true_loss_sum, 0.0);
  }
}

TEST(TomographyTest, DelayTruthIsPinned) {
  // The ledger digest leaves the delay ground truth out, so these hex
  // floats are what prove the per-probe hop table exact: every class's true_delay_ms and the
  // delay_error.  Recorded before the hop table replaced a hash map keyed
  // by packet id.
  TomographySpec spec = ci_spec();
  spec.duration = Duration::seconds(10);
  const TomographyResult result = run_tomography(spec);
  const double true_delay_ms[] = {
      0x1.21f81b2fc9ee4p-1, 0x1.d2b28e8ac7184p-2, 0x1.01cca70d1feb6p+1,
      0x1.ef806a582652ep-2, 0x1.f4c4b87ccd09cp-2, 0x1.349b6f663c752p+1,
      0x1.ee3da07f959d8p+1, 0x1.0ace75acf2d92p-1, 0x1.da2bbc87e1155p-2,
      0x1.146ac6070ef37p+1, 0x1.0ba59aecf0524p+1, 0x1.0833b51c7017p-1,
      0x1.f678ab112d306p-2};
  ASSERT_EQ(result.classes.size(), std::size(true_delay_ms));
  for (std::size_t c = 0; c < result.classes.size(); ++c) {
    EXPECT_EQ(result.classes[c].true_delay_ms, true_delay_ms[c])
        << "class " << c;
  }
  EXPECT_EQ(result.delay_error, 0x1.a83cb22abaea6p-9);
}

TEST(TomographyTest, PacketPairRecoversBottleneckCapacity) {
  const TomographyResult result = run_tomography(ci_spec());
  std::size_t with_pairs = 0;
  for (const TomographyStreamSummary& s : result.stream_summaries) {
    EXPECT_GT(s.bottleneck_true.bps(), 0.0);
    if (s.bottleneck_pair.bps() > 0.0) ++with_pairs;
  }
  EXPECT_GT(with_pairs, result.streams / 2);
  // Median relative error of the dispersion estimates.
  EXPECT_LT(result.capacity_error, 0.10);
}

/// FNV-1a over the bit patterns of every stream's bottleneck_pair.
std::uint64_t pair_digest(const TomographyResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325u;
  for (const TomographyStreamSummary& s : result.stream_summaries) {
    const auto bits = std::bit_cast<std::uint64_t>(s.bottleneck_pair.bps());
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3u;
    }
  }
  return hash;
}

TEST(TomographyTest, PacketPairEstimatesArePinned) {
  // Recorded when the pair pass still ran the batch estimator over a
  // per-stream trace, so these prove the streaming pass exact: a digest
  // of every stream's bottleneck_pair bits and the median capacity error,
  // on the sequential kernel and on 2 PDES domains.
  constexpr std::uint64_t kPairDigest = 0x00ad7eaa53eecd90u;
  constexpr double kCapacityError = 0x1.5cf751db94e6bp-49;
  for (const std::size_t domains : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(domains) + " domains");
    TomographySpec spec = ci_spec();
    spec.domains = domains;
    const TomographyResult result = run_tomography(spec);
    ASSERT_EQ(result.domains_used, domains);
    EXPECT_EQ(pair_digest(result), kPairDigest);
    EXPECT_EQ(result.capacity_error, kCapacityError);
    EXPECT_EQ(result.audit_pair_late_returns, 0u);
  }
}

TEST(TomographyTest, StreamingMatchesBatchOnSimulatedStreams) {
  const TomographyResult result = run_tomography(ci_spec());
  // The counter audit: every sent probe was pushed into its stream's loss
  // state (gaps and the post-drain close-out as losses), the pushed
  // prefix splits exactly into losses and received returns, and no return
  // arrived late or twice, on the main flow or the pair side flow.  Each
  // counter is exactly 0 when the push bookkeeping is right.
  EXPECT_EQ(result.audit_loss_mismatch, 0.0);
  EXPECT_EQ(result.audit_summary_mismatch, 0.0);
  EXPECT_EQ(result.audit_lindley_mismatch, 0.0);
  EXPECT_EQ(result.audit_pair_late_returns, 0u);
}

TEST(TomographyTest, DeterministicAcrossRepeatRuns) {
  TomographySpec spec = ci_spec();
  spec.duration = Duration::seconds(10);
  const TomographyResult a = run_tomography(spec);
  const TomographyResult b = run_tomography(spec);
  ASSERT_EQ(a.streams, b.streams);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.loss_error, b.loss_error);
  EXPECT_EQ(a.delay_error, b.delay_error);
  for (std::size_t s = 0; s < a.streams; ++s) {
    EXPECT_EQ(a.stream_summaries[s].received, b.stream_summaries[s].received);
    EXPECT_EQ(a.stream_summaries[s].mean_rtt_ms,
              b.stream_summaries[s].mean_rtt_ms);
  }
}

TEST(TomographyTest, InferenceInvariantAcrossPdesDomainCounts) {
  TomographySpec spec = ci_spec();
  spec.duration = Duration::seconds(10);
  const TomographyResult one = run_tomography(spec);
  spec.domains = 2;
  // A lent worker drives the second domain, so the sharded run really
  // crosses threads (the TSan CI job runs this case).
  runner::ThreadPool worker(1);
  sim::LentWorkers lent(&worker);
  const TomographyResult two = run_tomography(spec);
  ASSERT_EQ(one.domains_used, 1u);
  ASSERT_EQ(two.domains_used, 2u);
  EXPECT_GT(lent.jobs(), 0u);
  // The PDES kernel's identical-event-stream contract carries through the
  // whole mesh: same returns, same streaming estimates, same inference,
  // and the same delay ground truth, which the delivery hooks collect in
  // both domains' threads.
  ASSERT_EQ(one.streams, two.streams);
  for (std::size_t s = 0; s < one.streams; ++s) {
    EXPECT_EQ(one.stream_summaries[s].received,
              two.stream_summaries[s].received);
    EXPECT_EQ(one.stream_summaries[s].loss_fraction,
              two.stream_summaries[s].loss_fraction);
    EXPECT_EQ(one.stream_summaries[s].mean_rtt_ms,
              two.stream_summaries[s].mean_rtt_ms);
  }
  EXPECT_EQ(one.loss_error, two.loss_error);
  ASSERT_EQ(one.classes.size(), two.classes.size());
  for (std::size_t c = 0; c < one.classes.size(); ++c) {
    EXPECT_EQ(one.classes[c].est_loss_sum, two.classes[c].est_loss_sum);
    EXPECT_GT(one.classes[c].true_delay_ms, 0.0);
    EXPECT_EQ(one.classes[c].true_delay_ms, two.classes[c].true_delay_ms);
  }
  EXPECT_GT(one.delay_error, 0.0);
  EXPECT_EQ(one.delay_error, two.delay_error);
}

TEST(TomographyTest, RejectsMalformedSpecs) {
  TomographySpec bad = ci_spec();
  bad.delta = Duration::zero();
  EXPECT_THROW(run_tomography(bad), std::invalid_argument);
  bad = ci_spec();
  bad.drop_max = 1.0;
  EXPECT_THROW(run_tomography(bad), std::invalid_argument);
  bad = ci_spec();
  bad.drop_min = 0.5;
  bad.drop_max = 0.1;
  EXPECT_THROW(run_tomography(bad), std::invalid_argument);
  bad = ci_spec();
  // Pairs kMeshPairStride x 31.25 us = 500 us apart: chained at the send
  // gap.
  bad.delta = Duration::nanos(31'250);
  EXPECT_THROW(run_tomography(bad), std::invalid_argument);
  // A negative window would size the per-stream pair buffers from a
  // negative probe count.
  bad = ci_spec();
  bad.duration = Duration::seconds(-1);
  EXPECT_THROW(run_tomography(bad), std::invalid_argument);
}

}  // namespace
}  // namespace bolot::scenario
