// run_tomography: inference accuracy against simulator ground truth,
// determinism (same spec -> same result, including across PDES domain
// counts for the loss pass), and the mesh-level push audit.  Heap growth
// with run length is tomography_alloc_test's.
#include "scenario/tomography.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>

#include "tests/scenario/malformed_fluid_configs.h"
#include "tests/scenario/tomography_ci_spec.h"

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
  ASSERT_TRUE(result.delay_truth_collected);
  // Without background load, per-link sojourns are near deterministic
  // (transmission + propagation + light probe-on-probe queueing), so the
  // least-squares recovery should land well within the loss gate.
  EXPECT_LT(result.delay_error, 0.10);
  for (const TomographyLinkClass& c : result.classes) {
    EXPECT_GT(c.true_loss_sum, 0.0);
  }
}

TEST(TomographyTest, DelayTruthIsPinned) {
  // The ledger digest leaves the delay ground truth out (it exists on the
  // sequential kernel only), so these hex floats are what prove the
  // per-probe hop table exact: every class's true_delay_ms and the
  // delay_error, on the idle mesh and under a 3-state fluid background
  // whose M/D/1 wait lengthens every loaded sojourn.  Recorded before the
  // hop table replaced a hash map keyed by packet id.
  TomographySpec spec = ci_spec();
  spec.duration = Duration::seconds(10);
  const TomographyResult idle = run_tomography(spec);
  FluidBackgroundConfig background;
  background.flows = 10000;
  background.max_link_load = 0.5;
  background.envelope_states = 3;
  background.envelope_mean_holding = Duration::millis(500);
  background.queue_model = sim::FluidQueueModel::kMd1Wait;
  spec.fluid_background = background;
  const TomographyResult loaded = run_tomography(spec);

  struct Pinned {
    const char* name;
    const TomographyResult& result;
    double delay_error;
    double true_delay_ms[13];
  };
  const Pinned cases[] = {
      {"idle",
       idle,
       0x1.a83cb22abaea6p-9,
       {0x1.21f81b2fc9ee4p-1, 0x1.d2b28e8ac7184p-2, 0x1.01cca70d1feb6p+1,
        0x1.ef806a582652ep-2, 0x1.f4c4b87ccd09cp-2, 0x1.349b6f663c752p+1,
        0x1.ee3da07f959d8p+1, 0x1.0ace75acf2d92p-1, 0x1.da2bbc87e1155p-2,
        0x1.146ac6070ef37p+1, 0x1.0ba59aecf0524p+1, 0x1.0833b51c7017p-1,
        0x1.f678ab112d306p-2}},
      {"fluid",
       loaded,
       0x1.e2be0f5bc71a4p-6,
       {0x1.3bf8f05af115p+0, 0x1.2f53bb51cf942p+0, 0x1.07b1c84d26236p+1,
        0x1.28133e42eee91p+0, 0x1.0b523a30bbfc4p+0, 0x1.39e6432577c38p+1,
        0x1.ef2afd3fc8c55p+1, 0x1.5e1866e4bbbdbp+0, 0x1.69ae73922ec52p+0,
        0x1.1ac0ee6e139ap+1, 0x1.116065ac3ae4ap+1, 0x1.4fab3f7564f82p+0,
        0x1.43251272d6bbap+0}},
  };
  for (const Pinned& pinned : cases) {
    SCOPED_TRACE(pinned.name);
    ASSERT_TRUE(pinned.result.delay_truth_collected);
    ASSERT_EQ(pinned.result.classes.size(), std::size(pinned.true_delay_ms));
    for (std::size_t c = 0; c < pinned.result.classes.size(); ++c) {
      EXPECT_EQ(pinned.result.classes[c].true_delay_ms,
                pinned.true_delay_ms[c])
          << "class " << c;
    }
    EXPECT_EQ(pinned.result.delay_error, pinned.delay_error);
  }
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

TEST(TomographyTest, StreamingMatchesBatchOnSimulatedStreams) {
  const TomographyResult result = run_tomography(ci_spec());
  // The counter audit: every sent probe was pushed into its stream's loss
  // state (gaps and the post-drain close-out as losses), the pushed
  // prefix splits exactly into losses and received returns, and no return
  // arrived late or twice.  Each counter is exactly 0 when the push
  // bookkeeping is right.
  EXPECT_EQ(result.audit_loss_mismatch, 0.0);
  EXPECT_EQ(result.audit_summary_mismatch, 0.0);
  EXPECT_EQ(result.audit_lindley_mismatch, 0.0);
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

TEST(TomographyTest, LossInferenceInvariantAcrossPdesDomainCounts) {
  TomographySpec spec = ci_spec();
  spec.duration = Duration::seconds(10);
  const TomographyResult one = run_tomography(spec);
  spec.domains = 2;
  const TomographyResult two = run_tomography(spec);
  ASSERT_EQ(one.domains_used, 1u);
  ASSERT_EQ(two.domains_used, 2u);
  // The PDES kernel's identical-event-stream contract carries through the
  // whole mesh: same returns, same streaming estimates, same inference.
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
  }
  // Delay truth only attaches on the sequential kernel.
  EXPECT_TRUE(one.delay_truth_collected);
  EXPECT_FALSE(two.delay_truth_collected);
}

TEST(TomographyTest, ObsSeriesRecordMeshGauges) {
  TomographySpec spec = ci_spec();
  spec.duration = Duration::seconds(10);
  spec.obs_sample_interval = Duration::millis(500);
  const TomographyResult result = run_tomography(spec);
  ASSERT_EQ(result.series.size(), 3u);
  EXPECT_EQ(result.series[0].name(), "mesh.received_total");
  EXPECT_GT(result.series[0].size(), 0u);
  // Monotone counter; the final sample sums every stream's returns.
  const auto& received = result.series[0];
  EXPECT_GT(received.values().back(), 0.0);
  // Loss gauge lives strictly inside (0, 1) once probing is underway.
  const auto& loss = result.series[1];
  EXPECT_GT(loss.values().back(), 0.0);
  EXPECT_LT(loss.values().back(), 0.5);
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
  expect_malformed_fluid_configs_rejected(
      FluidBackgroundConfig{}, [&](const FluidBackgroundConfig& config) {
        bad.fluid_background = config;
        run_tomography(bad);
      });
}

TEST(TomographyTest, FluidBackgroundLoadsTheMeshDeterministically) {
  TomographySpec spec = ci_spec();
  spec.duration = Duration::seconds(10);
  const TomographyResult idle = run_tomography(spec);
  FluidBackgroundConfig background;
  background.flows = 10000;
  background.max_link_load = 0.5;
  background.envelope_states = 3;
  background.envelope_mean_holding = Duration::millis(500);
  spec.fluid_background = background;
  const TomographyResult loaded = run_tomography(spec);
  const TomographyResult again = run_tomography(spec);
  spec.domains = 2;
  const TomographyResult sharded = run_tomography(spec);
  ASSERT_EQ(sharded.domains_used, 2u);

  ASSERT_EQ(loaded.streams, idle.streams);
  ASSERT_EQ(again.streams, loaded.streams);
  ASSERT_EQ(sharded.streams, loaded.streams);
  EXPECT_EQ(again.events, loaded.events);
  EXPECT_EQ(again.loss_error, loaded.loss_error);
  EXPECT_EQ(again.delay_error, loaded.delay_error);
  EXPECT_EQ(sharded.loss_error, loaded.loss_error);
  double idle_rtt = 0.0, loaded_rtt = 0.0;
  for (std::size_t s = 0; s < loaded.streams; ++s) {
    const TomographyStreamSummary& x = loaded.stream_summaries[s];
    EXPECT_EQ(again.stream_summaries[s].received, x.received);
    EXPECT_EQ(again.stream_summaries[s].mean_rtt_ms, x.mean_rtt_ms);
    EXPECT_EQ(sharded.stream_summaries[s].received, x.received);
    EXPECT_EQ(sharded.stream_summaries[s].loss_fraction, x.loss_fraction);
    idle_rtt += idle.stream_summaries[s].mean_rtt_ms;
    loaded_rtt += x.mean_rtt_ms;
  }
  ASSERT_EQ(sharded.classes.size(), loaded.classes.size());
  for (std::size_t c = 0; c < loaded.classes.size(); ++c) {
    EXPECT_EQ(sharded.classes[c].est_loss_sum, loaded.classes[c].est_loss_sum);
  }
  // Fluid demand takes capacity from every loaded link, so the probes
  // queue longer on average than on the idle fabric.
  EXPECT_GT(loaded_rtt, idle_rtt);
}

TEST(TomographyTest, FluidLoadedInferenceIsPinned) {
  // Recorded as hex floats: the mesh's per-class estimates see the fluid
  // background only through each link's folded demand, so a change to
  // the fold moves bits here.
  TomographySpec spec = ci_spec();
  spec.duration = Duration::seconds(4);
  FluidBackgroundConfig background;
  background.flows = 10000;
  background.max_link_load = 0.5;
  background.duty = 0.3;
  background.queue_model = sim::FluidQueueModel::kMd1Wait;
  spec.fluid_background = background;
  const TomographyResult result = run_tomography(spec);
  EXPECT_EQ(result.events, 392354u);
  const double expected[][2] = {
      {0x1.012f3e360a997p-4, 0x1.2f4dc83329df7p+0},
      {0x1.6ee5353a5ed2cp-4, 0x1.06fe4b61cb357p+0},
      {0x1.ed43a52fd242cp-5, 0x1.0276045d39ea3p+1},
      {0x1.0d0e7b07fa53cp-4, 0x1.0c2d79d93bf29p+0},
      {0x1.22f8547c11ba1p-4, 0x1.0fba8b2299781p+0},
      {0x1.5ae12ed33d3fap-5, 0x1.33243c635decfp+1},
      {0x1.1c09569ad629p-4, 0x1.f5527ca15a0cap+1},
      {0x1.11fd0260e154dp-4, 0x1.2946dfb811fddp+0},
      {0x1.228d70205d92dp-4, 0x1.15ebe44028f1dp+0},
      {0x1.42b764715a54ep-4, 0x1.126c1f6c58f63p+1},
      {0x1.451200e28980ep-5, 0x1.0d182cf12489cp+1},
      {0x1.817eaea5b875cp-4, 0x1.099ddaeaca21cp+0},
      {0x1.6d7756f4cddb2p-4, 0x1.e6c2a5217d224p-1},
  };
  ASSERT_EQ(result.classes.size(), std::size(expected));
  for (std::size_t c = 0; c < result.classes.size(); ++c) {
    EXPECT_EQ(result.classes[c].est_loss_sum, expected[c][0]) << "class " << c;
    EXPECT_EQ(result.classes[c].est_delay_ms, expected[c][1]) << "class " << c;
  }
}

}  // namespace
}  // namespace bolot::scenario
