#include "obs/sampler.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/timeseries.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/traffic.h"
#include "tests/sim/sim_fixtures.h"
#include "tests/obs/find_metric.h"

namespace bolot::obs {
namespace {

/// Time of sample `i` on a series' grid.
SimTime time_at(const TimeSeries& series, std::size_t i) {
  return series.start() + series.stride() * static_cast<std::int64_t>(i);
}

TEST(TimeSeriesTest, GridAndPush) {
  TimeSeries series("s", 4);
  series.reset(Duration::seconds(1), Duration::millis(10));
  series.push(1.0);
  series.push(2.0);
  EXPECT_EQ(series.size(), 2u);
  EXPECT_EQ(time_at(series, 0), Duration::seconds(1));
  EXPECT_EQ(time_at(series, 1), Duration::seconds(1) + Duration::millis(10));
  EXPECT_THROW(TimeSeries("tiny", 1), std::invalid_argument);
  EXPECT_THROW(series.reset(SimTime(), Duration::zero()),
               std::invalid_argument);
}

TEST(TimeSeriesTest, DecimateKeepsEvenSamplesAndDoublesStride) {
  TimeSeries series("s", 8);
  series.reset(SimTime(), Duration::millis(5));
  for (int i = 0; i < 8; ++i) series.push(static_cast<double>(i));
  EXPECT_TRUE(series.full());
  series.decimate();
  // Samples 0,2,4,6 survive; the grid origin is unchanged.
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series.values()[0], 0.0);
  EXPECT_EQ(series.values()[1], 2.0);
  EXPECT_EQ(series.values()[2], 4.0);
  EXPECT_EQ(series.values()[3], 6.0);
  EXPECT_EQ(series.stride(), Duration::millis(10));
  EXPECT_EQ(time_at(series, 3), Duration::millis(30));
  // Sample 8 was due at t=40ms = time_at(4) on the coarser grid: the next
  // push lands exactly where the pre-decimation cadence put it.
  EXPECT_EQ(time_at(series, 4), Duration::millis(40));
  EXPECT_FALSE(series.full());  // decimation frees half the budget
}

TEST(TimeSeriesTest, PushPastBudgetThrows) {
  TimeSeries series("s", 2);
  series.reset(SimTime(), Duration::millis(1));
  series.push(0.0);
  series.push(1.0);
  EXPECT_THROW(series.push(2.0), std::logic_error);
}

TEST(SamplerTest, RecordsUniformlySpacedSamples) {
  sim::Simulator simulator;
  Sampler sampler(simulator, Duration::millis(10), 1024);
  double level = 0.0;
  const std::size_t idx = sampler.add_series("level", [&level] {
    return level;
  });
  sampler.start(Duration::millis(100));
  simulator.schedule_at(Duration::millis(145), [&level] { level = 7.0; });
  simulator.run_until(Duration::millis(200));
  sampler.stop();
  sim::drain(simulator);

  const TimeSeries& series = sampler.series(idx);
  // Samples at 100,110,...,200 ms inclusive.
  ASSERT_EQ(series.size(), 11u);
  EXPECT_EQ(series.start(), Duration::millis(100));
  EXPECT_EQ(series.stride(), Duration::millis(10));
  EXPECT_EQ(series.values()[4], 0.0);   // t = 140 ms
  EXPECT_EQ(series.values()[5], 7.0);   // t = 150 ms
  EXPECT_EQ(series.values()[10], 7.0);  // t = 200 ms
  EXPECT_EQ(series.name(), "level");
}

TEST(SamplerTest, DecimatesAllSeriesTogetherPastBudget) {
  sim::Simulator simulator;
  Sampler sampler(simulator, Duration::millis(1), 8);
  int ticks = 0;
  sampler.add_series("tick", [&ticks] { return double(ticks++); });
  sampler.add_series("const", [] { return 5.0; });
  sampler.start(SimTime());
  simulator.run_until(Duration::millis(20));  // 21 grid points > 2x budget
  sampler.stop();
  sim::drain(simulator);

  // 8 samples fill the budget; decimation at sample 9 halves to 4 and
  // doubles the stride to 2 ms; the second fill + decimation leaves the
  // series on a 4 ms grid.
  EXPECT_EQ(sampler.series(1).stride(), Duration::millis(4));
  const TimeSeries& tick = sampler.series(0);
  const TimeSeries& cnst = sampler.series(1);
  ASSERT_EQ(tick.size(), cnst.size());
  EXPECT_EQ(tick.stride(), Duration::millis(4));
  // The probe numbers its evaluations 0,1,2,...: ticks 0..7 fill the
  // budget on the 1 ms grid; the tick due at 8 ms decimates to [0,2,4,6]
  // on a 2 ms grid and records 8; 9..11 land at 10/12/14 ms; the tick due
  // at 16 ms decimates again to [0,4,8,10] on a 4 ms grid and records 12;
  // 13 lands at 20 ms.  Each surviving value sits exactly where it was
  // recorded — the origin never moves, the stride only doubles.
  const std::vector<double> expected = {0, 4, 8, 10, 12, 13};
  ASSERT_EQ(tick.size(), expected.size());
  for (std::size_t i = 0; i < tick.size(); ++i) {
    EXPECT_EQ(tick.values()[i], expected[i]) << i;
    EXPECT_EQ(cnst.values()[i], 5.0);
    EXPECT_EQ(time_at(tick, i), Duration::millis(4) * std::int64_t(i));
  }
}

TEST(SamplerTest, OddBudgetThrows) {
  // With an odd budget the sample taken right after a decimation falls
  // off the coarser grid, so an odd budget is rejected up front, by the
  // Sampler even before any series exists.
  sim::Simulator simulator;
  try {
    Sampler(simulator, Duration::millis(10), 5);
    ADD_FAILURE() << "budget 5 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("got 5"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Sampler(simulator, Duration::millis(10), 3),
               std::invalid_argument);
  EXPECT_THROW(TimeSeries("s", 7), std::invalid_argument);
  EXPECT_NO_THROW(Sampler(simulator, Duration::millis(10), 6));
}

TEST(SamplerTest, EvenBudgetStampsEverySampleAtItsTakenTime) {
  // A probe that reads the clock: every sample's value is the time it was
  // taken, which must equal the time its grid position claims.  Budget 6
  // is even but not a power of two.
  sim::Simulator simulator;
  Sampler sampler(simulator, Duration::millis(10), 6);
  sampler.add_series("now_ns", [&simulator] {
    return static_cast<double>(simulator.now().count_nanos());
  });
  sampler.start(SimTime());
  simulator.run_until(Duration::seconds(1));
  sampler.stop();
  sim::drain(simulator);

  // At least three decimations.
  EXPECT_GE(sampler.series(0).stride(), Duration::millis(80));
  const TimeSeries& series = sampler.series(0);
  ASSERT_GE(series.size(), 3u);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(series.values()[i],
              static_cast<double>(time_at(series, i).count_nanos()))
        << i;
  }
}

TEST(SamplerTest, AddSeriesAfterStartThrows) {
  sim::Simulator simulator;
  Sampler sampler(simulator, Duration::millis(1));
  sampler.add_series("ok", [] { return 0.0; });
  sampler.start(SimTime());
  EXPECT_THROW(sampler.add_series("late", [] { return 0.0; }),
               std::logic_error);
  sampler.stop();
  EXPECT_THROW(Sampler(simulator, Duration::zero()), std::invalid_argument);
  EXPECT_THROW(Sampler(simulator, Duration::millis(1), 1),
               std::invalid_argument);
}

TEST(SamplerTest, StopHaltsSampling) {
  sim::Simulator simulator;
  Sampler sampler(simulator, Duration::millis(1), 64);
  sampler.add_series("x", [] { return 1.0; });
  sampler.start(SimTime());
  simulator.run_until(Duration::millis(5));
  sampler.stop();
  const std::size_t at_stop = sampler.series(0).size();
  sim::drain(simulator);  // terminates: no self-re-arming event left
  EXPECT_EQ(sampler.series(0).size(), at_stop);
}

TEST(SamplerTest, WatchHelpersTrackComponentState) {
  sim::Simulator simulator;
  sim::Network net(simulator, 5);
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  sim::LinkConfig config;
  config.name = "ab";
  config.rate = Bandwidth::bps(8e6);  // 1000-byte packet = 1 ms service
  config.propagation = Duration::millis(1);
  config.buffer_packets = 64;
  sim::Link& link = net.add_link(a, b, config, simulator);

  Sampler sampler(simulator, Duration::micros(500), 4096);
  const std::size_t q_idx = watch_queue_packets(sampler, link);
  const std::size_t w_idx = watch_backlog_work_ms(sampler, link);
  const std::size_t u_idx = watch_utilization(sampler, link);
  EXPECT_EQ(sampler.series(q_idx).name(), "ab.queue_pkts");

  sim::CbrSource source(simulator, net, a, b, 1, sim::PacketKind::kBulk,
                        Duration::millis(1), ByteSize::bytes(1000),
                        /*last=*/Duration::millis(10));
  net.compute_routes();
  source.start(SimTime());
  sampler.start(SimTime());
  simulator.run_until(Duration::millis(10));
  sampler.stop();
  sim::drain(simulator);

  // CBR at exactly the service rate: past the first packet the queue has
  // one packet in service, i.e. 1 packet / 1 ms of work, utilization -> 1.
  const auto& queue = sampler.series(q_idx).values();
  const auto& work = sampler.series(w_idx).values();
  const auto& util = sampler.series(u_idx).values();
  ASSERT_EQ(queue.size(), 21u);
  // The source started before the sampler, so the t=0 sample already
  // sees the first packet in service.
  EXPECT_EQ(queue.front(), 1.0);
  EXPECT_EQ(queue.back(), 1.0);
  EXPECT_DOUBLE_EQ(work.back(), 1.0);
  EXPECT_GT(util.back(), 0.8);
}

TEST(SamplerTest, UtilizationSeriesEqualsRegistryGaugeOnFluidLink) {
  // One definition of link utilization: on a link whose only load is a
  // constant fluid demand (the transmitter never runs), the
  // watch_utilization series and the registry's utilization gauge, read
  // at the same instants, are equal and carry the fluid share.
  sim::Simulator simulator;
  sim::LinkConfig config;
  config.name = "fluid";
  config.rate = Bandwidth::bps(1e6);
  sim::Link link(simulator, config, Rng(1));
  link.attach_fluid(Bandwidth::bps(400e3), 0, Duration::zero(), Rng(2),
                    Rng(0));
  MetricsRegistry registry;
  link.publish_metrics(registry);

  Sampler sampler(simulator, Duration::millis(1));
  const std::size_t series_idx = watch_utilization(sampler, link);
  const std::size_t gauge_idx = sampler.add_series("gauge", [&] {
    return *find_metric(registry.snapshot(simulator.now()),
                        "fluid.utilization");
  });
  sampler.start(SimTime());
  simulator.run_until(Duration::millis(10));
  sampler.stop();

  const auto& series = sampler.series(series_idx).values();
  ASSERT_EQ(series.size(), 11u);
  EXPECT_EQ(series, sampler.series(gauge_idx).values());
  EXPECT_DOUBLE_EQ(series.back(), 0.4);
}

}  // namespace
}  // namespace bolot::obs
