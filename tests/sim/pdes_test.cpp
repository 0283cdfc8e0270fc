// Parallel-kernel tests: SPSC channel semantics, lookahead/partition
// rules, cross-domain merge ordering, and — the core contract — exact
// equality of sharded and sequential event streams.
#include "sim/pdes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "runner/thread_pool.h"
#include "scenario/tomography.h"
#include "sim/network.h"
#include "sim/spsc_channel.h"
#include "sim/traffic.h"
#include "util/rng.h"
#include "tests/scenario/tomography_ci_spec.h"
#include "tests/sim/lent_workers.h"
#include "tests/sim/sim_fixtures.h"

namespace bolot::sim {
namespace {

Handoff make_handoff(std::int64_t at_ns, std::uint32_t link,
                     std::uint64_t stamp, std::uint64_t id = 0) {
  Handoff h{};
  h.at = Duration::nanos(at_ns);
  h.link = link;
  h.stamp = stamp;
  h.packet.id = id;
  h.packet.size_bytes = 100;
  return h;
}

TEST(SpscChannelTest, FifoOrderPreserved) {
  SpscChannel chan(8);
  for (std::uint64_t i = 0; i < 6; ++i) {
    chan.push(make_handoff(1000 + static_cast<std::int64_t>(i), 0, i, i));
  }
  Handoff h;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(chan.pop(h));
    EXPECT_EQ(h.stamp, i);
    EXPECT_EQ(h.packet.id, i);
  }
  EXPECT_FALSE(chan.pop(h));
}

TEST(SpscChannelTest, RejectsNonPowerOfTwoCapacity) {
  EXPECT_THROW(SpscChannel(0), std::invalid_argument);
  EXPECT_THROW(SpscChannel(12), std::invalid_argument);
}

TEST(SpscChannelTest, OverflowSpillsAndPreservesOrder) {
  SpscChannel chan(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    chan.push(make_handoff(static_cast<std::int64_t>(100 * i), 0, i, i));
  }
  EXPECT_FALSE(chan.spill_empty());  // 6 handoffs did not fit the ring
  EXPECT_EQ(chan.spilled(), 6u);
  std::vector<std::uint64_t> ids;
  Handoff h;
  // Consumer drains, producer flushes, repeatedly — the pattern a real
  // domain pair follows — and the total order must be the push order.
  while (ids.size() < 10) {
    while (chan.pop(h)) ids.push_back(h.packet.id);
    chan.flush();
  }
  EXPECT_TRUE(chan.spill_empty());
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(ids[i], i);
}

TEST(SpscChannelTest, SpillBoundCapsSafeTimeByLookahead) {
  SpscChannel chan(2);
  chan.set_lookahead(Duration::millis(3));
  EXPECT_EQ(chan.spill_bound_ns(), SpscChannel::kNever);  // nothing spilled
  chan.push(make_handoff(Duration::millis(10).count_nanos(), 0, 0));
  chan.push(make_handoff(Duration::millis(11).count_nanos(), 0, 1));
  chan.push(make_handoff(Duration::millis(12).count_nanos(), 0, 2));  // spills
  // The producer must not advertise past (earliest spilled arrival -
  // lookahead): the consumer's horizon is safe + lookahead, and the
  // spilled packet at 12 ms is invisible to it.
  EXPECT_EQ(chan.spill_bound_ns(), Duration::millis(9).count_nanos());
  Handoff h;
  ASSERT_TRUE(chan.pop(h));
  chan.flush();
  EXPECT_TRUE(chan.spill_empty());
  EXPECT_EQ(chan.spill_bound_ns(), SpscChannel::kNever);
}

TEST(PdesTest, AttachRejectsZeroLookaheadCut) {
  ParallelSimulation psim(2);
  Network net(psim.simulator(0), 7);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkConfig config;
  config.name = "a->b";
  config.rate = Bandwidth::bps(1e6);
  config.propagation = Duration::zero();  // no lookahead across the cut
  net.add_link(a, b, config, psim.simulator(0));
  EXPECT_THROW(psim.attach(net, {0, 1}), std::invalid_argument);
}

TEST(PdesTest, AttachRejectsBadPartition) {
  ParallelSimulation psim(2);
  Network net(psim.simulator(0), 7);
  net.add_node("a");
  net.add_node("b");
  EXPECT_THROW(psim.attach(net, {0}), std::invalid_argument);      // short
  EXPECT_THROW(psim.attach(net, {0, 5}), std::invalid_argument);   // range
}

TEST(PdesTest, AttachRejectsASecondAttach) {
  ParallelSimulation psim(2);
  Network net(psim.simulator(0), 7);
  net.add_node("a");
  net.add_node("b");
  psim.attach(net, {0, 1});
  try {
    psim.attach(net, {0, 1});
    ADD_FAILURE() << "second attach was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "ParallelSimulation: attach called twice");
  }
}

TEST(PdesTest, EqualTimestampHandoffsDeliverInSendOrder) {
  // A fluid M/D/1 wait can hold a packet back onto its predecessor's
  // arrival time (the link's FIFO clamp), so two packets cross the cut
  // with the SAME arrival nanosecond; the per-link send stamp must keep
  // them FIFO at the receiver.  At this seed the first packet waits
  // 17.8 ms and arrives at 8 + 2 + 17.8 ms; the second, 8 ms behind it,
  // waits 1.6 ms and is clamped from 19.6 ms onto the first's arrival.
  ParallelSimulation psim(2);
  Network net(psim.simulator(0), 7);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkConfig config;
  config.name = "a->b";
  config.rate = Bandwidth::bps(1e6);  // 8 ms per 1000-byte packet
  config.propagation = Duration::millis(2);
  config.buffer_packets = 8;
  Link& link = net.add_link(a, b, config, psim.simulator(0));
  link.attach_fluid(config.rate * 0.5, 0, Duration::zero(), Rng(45), Rng(0));
  std::vector<std::pair<std::int64_t, std::uint64_t>> arrivals;
  link.set_delivery_hook([&arrivals](const Packet& p, SimTime at) {
    arrivals.emplace_back(at.count_nanos(), p.id);
  });
  psim.attach(net, {0, 1});
  psim.simulator(0).schedule_at(Duration::zero(), [&link, a, b] {
    Packet p;
    p.size_bytes = 1000;
    p.src = a;
    p.dst = b;  // consumed at b (the Network sink routes by dst)
    p.id = 1;
    link.enqueue(Packet(p));
    p.id = 2;
    link.enqueue(Packet(p));
  });
  psim.run_until(Duration::millis(500));
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GT(arrivals[0].first, Duration::millis(18).count_nanos());
  EXPECT_EQ(arrivals[0].first, arrivals[1].first);  // same nanosecond
  EXPECT_EQ(arrivals[0].second, 1u);                // send order kept
  EXPECT_EQ(arrivals[1].second, 2u);
}

/// Dispatch order at b of a packet arriving over a->b at 10 ms (armed at
/// its 8 ms transmission-complete) and a local event at b due at 10 ms,
/// armed at `local_armed` (zero: scheduled before the run; else by an
/// event at that time).  `domains` == 0 runs the sequential kernel, 2
/// cuts a->b.
std::string tie_order(std::size_t domains, Duration local_armed) {
  std::optional<ParallelSimulation> psim;
  std::optional<Simulator> seq;
  if (domains > 0) {
    psim.emplace(domains);
  } else {
    seq.emplace();
  }
  Simulator& sim_a = psim ? psim->simulator(0) : *seq;
  Simulator& sim_b = psim ? psim->simulator(1) : *seq;
  Network net(sim_a, 7);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkConfig config;
  config.name = "a->b";
  config.rate = Bandwidth::bps(1e6);  // 8 ms per 1000-byte packet
  config.propagation = Duration::millis(2);
  Link& link = net.add_link(a, b, config, sim_a);
  std::string order;
  link.set_delivery_hook(
      [&order](const Packet&, SimTime) { order += "arrival "; });
  if (psim) {
    psim->attach(net, {0, 1});
  } else {
    net.compute_routes();
  }
  const SimTime due = Duration::millis(10);
  if (local_armed.is_zero()) {
    sim_b.schedule_at(due, [&order] { order += "local "; });
  } else {
    sim_b.schedule_at(local_armed, [&sim_b, &order, due] {
      sim_b.schedule_at(due, [&order] { order += "local "; });
    });
  }
  sim_a.schedule_at(Duration::zero(), [&link, a, b] {
    Packet p;
    p.size_bytes = 1000;
    p.src = a;
    p.dst = b;
    link.enqueue(std::move(p));
  });
  if (psim) {
    psim->run_until(Duration::millis(20));
  } else {
    seq->run_until(Duration::millis(20));
  }
  return order;
}

TEST(PdesTest, EqualTimestampTiesDispatchInArmOrder) {
  // The sequential kernel runs equal-time events in the order they were
  // armed; merging a cross-domain arrival with a local event must do the
  // same, whichever of the two was armed first.
  EXPECT_EQ(tie_order(0, Duration::zero()), "local arrival ");
  EXPECT_EQ(tie_order(2, Duration::zero()), "local arrival ");
  EXPECT_EQ(tie_order(0, Duration::millis(9)), "arrival local ");
  EXPECT_EQ(tie_order(2, Duration::millis(9)), "arrival local ");
}

// ---------------------------------------------------------------------
// Exact-equality harness: one bidirectional 4-node chain with Poisson
// traffic both ways, run by the sequential kernel (domains == 0) or a
// sharded kernel, recording every delivery on the two end links plus the
// total event count.  Every variant must produce the same bytes.

struct ChainTrace {
  // (arrival ns, packet id, flow) per delivery, in delivery order.
  std::vector<std::tuple<std::int64_t, std::uint64_t, std::uint32_t>> fwd;
  std::vector<std::tuple<std::int64_t, std::uint64_t, std::uint32_t>> rev;
  std::uint64_t events = 0;

  bool operator==(const ChainTrace& other) const {
    return fwd == other.fwd && rev == other.rev && events == other.events;
  }
};

ChainTrace run_chain_case(std::size_t domains, Duration slice = {}) {
  std::optional<ParallelSimulation> psim;
  std::optional<Simulator> seq;
  if (domains > 0) {
    psim.emplace(domains);
  } else {
    seq.emplace();
  }
  const std::size_t node_count = 4;
  const auto domain_of = [&](std::size_t i) {
    return domains > 0 ? i * domains / node_count : 0;
  };
  const auto sim_of = [&](std::size_t i) -> Simulator& {
    return psim ? psim->simulator(domain_of(i)) : *seq;
  };

  Network net(sim_of(0), 42);
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < node_count; ++i) {
    nodes.push_back(net.add_node("n" + std::to_string(i)));
  }
  const Duration props[] = {Duration::micros(1300.5), Duration::micros(2701.3),
                            Duration::micros(897.1)};
  for (std::size_t h = 0; h < 3; ++h) {
    LinkConfig config;
    config.name = "n" + std::to_string(h) + "<->n" + std::to_string(h + 1);
    config.rate = Bandwidth::bps(1e6);
    config.propagation = props[h];
    config.buffer_packets = 6;  // small: overflow drops are part of the run
    net.add_duplex_link(nodes[h], nodes[h + 1], config, sim_of(h),
                        sim_of(h + 1));
  }

  Rng rng(0xFEEDull);
  PoissonSource fwd_src(sim_of(0), net, nodes[0], nodes[3], 1,
                        PacketKind::kBulk, rng.split(),
                        Duration::micros(3517.9), ByteSize::bytes(400));
  PoissonSource rev_src(sim_of(3), net, nodes[3], nodes[0], 2,
                        PacketKind::kInteractive, rng.split(),
                        Duration::micros(5233.7), ByteSize::bytes(200));

  // Hop h is the link pair 2h (forward) and 2h + 1 (reverse): trace the
  // forward direction's last hop and the reverse direction's last hop.
  ChainTrace trace;
  net.link_at(4)
      .set_delivery_hook([&trace](const Packet& p, SimTime at) {
        trace.fwd.emplace_back(at.count_nanos(), p.id, p.flow);
      });
  net.link_at(1)
      .set_delivery_hook([&trace](const Packet& p, SimTime at) {
        trace.rev.emplace_back(at.count_nanos(), p.id, p.flow);
      });

  net.compute_routes();
  if (psim) {
    std::vector<std::size_t> node_domain;
    for (std::size_t i = 0; i < node_count; ++i) {
      node_domain.push_back(domain_of(i));
    }
    psim->attach(net, node_domain);
  }
  fwd_src.start(Duration::zero());
  rev_src.start(Duration::micros(733.3));

  const Duration end = Duration::seconds(2);
  if (slice > Duration::zero()) {
    // Slice stepping, the fuzz harness's pattern: repeated run_until
    // calls with increasing end must match a single-shot run.
    for (Duration t = slice; t < end; t += slice) {
      if (psim) {
        psim->run_until(t);
      } else {
        seq->run_until(t);
      }
    }
  }
  if (psim) {
    psim->run_until(end);
    trace.events = psim->events_dispatched();
  } else {
    seq->run_until(end);
    trace.events = seq->events_dispatched();
  }
  return trace;
}

TEST(PdesTest, SingleDomainMatchesSequentialByteForByte) {
  const ChainTrace sequential = run_chain_case(0);
  ASSERT_FALSE(sequential.fwd.empty());
  ASSERT_FALSE(sequential.rev.empty());
  EXPECT_TRUE(run_chain_case(1) == sequential);
}

TEST(PdesTest, ShardedChainMatchesSequentialExactly) {
  const ChainTrace sequential = run_chain_case(0);
  for (std::size_t domains : {2u, 3u, 4u}) {
    const ChainTrace sharded = run_chain_case(domains);
    EXPECT_EQ(sharded.fwd, sequential.fwd) << domains << " domains";
    EXPECT_EQ(sharded.rev, sequential.rev) << domains << " domains";
    EXPECT_EQ(sharded.events, sequential.events) << domains << " domains";
  }
}

TEST(PdesTest, SliceSteppingMatchesSingleShot) {
  const ChainTrace single = run_chain_case(2);
  EXPECT_TRUE(run_chain_case(2, Duration::millis(83)) == single);
}

TEST(PdesTest, RepeatedShardedRunsIdenticalWithWorkerThreads) {
  // Lend a pool of hardware-concurrency workers so domain driving really
  // crosses threads where the host has them; the result must not depend
  // on scheduling either way.
  runner::ThreadPool pool(0);
  LentWorkers lent(&pool);
  const ChainTrace first = run_chain_case(4);
  const ChainTrace second = run_chain_case(4);
  EXPECT_TRUE(first == second);
  EXPECT_TRUE(run_chain_case(0) == first);
}

// ---------------------------------------------------------------------
// Quantized rates: a 9-node duplex chain at 1.024e8 b/s, where a 512 B
// packet takes exactly 40 us and every hop propagates for 1 ms, so service
// completions, arrivals and CBR ticks share whole microseconds and
// same-nanosecond ties are routine.  domains == 1 is the sequential kernel.

enum class ChainLoad {
  kLineRateCbr,  // line-rate CBR end to end in both directions
  kParkingLot,   // every node sends Poisson to the far end: load grows by hop
};

struct ChainCounters {
  std::uint64_t hop_deliveries = 0;
  std::uint64_t events = 0;
  std::vector<DomainStats> stats;  // empty on the sequential kernel
};

struct PinnedChain {
  const char* name;
  ChainLoad load;
  std::uint64_t hop_deliveries;
  std::uint64_t events;
};

constexpr PinnedChain kPinnedChains[] = {
    {"line-rate chain", ChainLoad::kLineRateCbr, 798'544, 1'696'690},
    {"parking lot", ChainLoad::kParkingLot, 178'109, 395'598},
};

ChainCounters run_quantized_chain(ChainLoad load, std::size_t domains) {
  constexpr std::size_t kNodes = 9;
  std::optional<ParallelSimulation> psim;
  std::optional<Simulator> seq;
  if (domains > 1) {
    psim.emplace(domains);
  } else {
    seq.emplace();
  }
  const auto domain_of = [&](std::size_t i) { return i * domains / kNodes; };
  const auto sim_of = [&](std::size_t i) -> Simulator& {
    return psim ? psim->simulator(domain_of(i)) : *seq;
  };

  Network net(sim_of(0), 7);
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(net.add_node(std::to_string(i)));
  }
  LinkConfig config;
  config.rate = Bandwidth::bps(1.024e8);
  config.propagation = Duration::millis(1);
  config.buffer_packets = 64;
  for (std::size_t h = 0; h + 1 < kNodes; ++h) {
    config.name = "hop" + std::to_string(h);
    net.add_duplex_link(nodes[h], nodes[h + 1], config, sim_of(h),
                        sim_of(h + 1));
  }

  std::vector<std::unique_ptr<TrafficSource>> sources;
  if (load == ChainLoad::kLineRateCbr) {
    sources.push_back(std::make_unique<CbrSource>(
        sim_of(0), net, nodes.front(), nodes.back(), 1, PacketKind::kBulk,
        Duration::micros(40), ByteSize::bytes(512)));
    sources.push_back(std::make_unique<CbrSource>(
        sim_of(kNodes - 1), net, nodes.back(), nodes.front(), 2,
        PacketKind::kBulk, Duration::micros(40), ByteSize::bytes(512)));
  } else {
    // Each flow at 1/10 of line rate: the last hop carries eight (~80%).
    Rng rng(29);
    for (std::size_t i = 0; i + 1 < kNodes; ++i) {
      sources.push_back(std::make_unique<PoissonSource>(
          sim_of(i), net, nodes[i], nodes.back(),
          static_cast<std::uint32_t>(10 + i), PacketKind::kBulk, rng.split(),
          Duration::micros(400), ByteSize::bytes(512)));
    }
  }

  net.compute_routes();
  if (psim) {
    std::vector<std::size_t> node_domain;
    for (std::size_t i = 0; i < kNodes; ++i) node_domain.push_back(domain_of(i));
    psim->attach(net, node_domain);
  }
  for (auto& source : sources) source->start(SimTime());

  const Duration span = Duration::seconds(2);
  if (psim) {
    psim->run_until(span);
  } else {
    seq->run_until(span);
  }
  if (psim) {
    return {net.total_delivered(), psim->events_dispatched(), psim->stats()};
  }
  return {net.total_delivered(), seq->events_dispatched(), {}};
}

TEST(PdesTest, QuantizedChainAndParkingLotCountersMatchAcrossDomainCounts) {
  runner::ThreadPool pool(0);
  LentWorkers lent(&pool);  // domains borrow the lent workers
  for (const PinnedChain& c : kPinnedChains) {
    for (const std::size_t domains : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(std::string(c.name) + ", " + std::to_string(domains) +
                   " domains");
      const ChainCounters counters = run_quantized_chain(c.load, domains);
      EXPECT_EQ(counters.hop_deliveries, c.hop_deliveries);
      EXPECT_EQ(counters.events, c.events);
    }
  }
}

TEST(PdesTest, QuantizedChainsInvariantAcrossWorkerCounts) {
  // The calling thread alone, one lent worker, and a lent pool of
  // hardware-concurrency workers drive the same sharded runs: the pinned
  // counters hold every way, the deterministic stats() fields agree field
  // for field, and the domains' own event counts add up to the kernel's
  // total.
  runner::ThreadPool one_worker(1);
  runner::ThreadPool all_cores(0);
  LentWorkers lent;
  const std::pair<const char*, runner::ThreadPool*> ways[] = {
      {"no donor", nullptr},
      {"1-worker donor", &one_worker},
      {"hardware-concurrency pool", &all_cores},
  };
  for (const PinnedChain& c : kPinnedChains) {
    for (const std::size_t domains : {2u, 4u, 8u}) {
      std::vector<DomainStats> reference;
      for (const auto& [way, pool] : ways) {
        SCOPED_TRACE(std::string(c.name) + ", " + std::to_string(domains) +
                     " domains, " + way);
        lent.lend(pool);
        const ChainCounters counters = run_quantized_chain(c.load, domains);
        EXPECT_EQ(counters.hop_deliveries, c.hop_deliveries);
        EXPECT_EQ(counters.events, c.events);
        ASSERT_EQ(counters.stats.size(), domains);
        std::uint64_t events = 0;
        std::uint64_t handoffs = 0;
        for (const DomainStats& d : counters.stats) {
          events += d.events;
          handoffs += d.handoffs_in;
          EXPECT_GE(d.claims, 1u);
          EXPECT_LE(d.stalled_claims, d.claims);
        }
        EXPECT_EQ(events, counters.events);
        EXPECT_GT(handoffs, 0u);
        if (reference.empty()) {
          reference = counters.stats;
          continue;
        }
        for (std::size_t d = 0; d < domains; ++d) {
          EXPECT_EQ(counters.stats[d].events, reference[d].events) << d;
          EXPECT_EQ(counters.stats[d].handoffs_in, reference[d].handoffs_in)
              << d;
        }
      }
    }
  }
}

TEST(PdesTest, ThrowingCallbackStopsTheRunAndLeavesItResumable) {
  // A callback that throws in either domain, with the calling thread
  // alone or with a lent worker: run_until stops every driver, rethrows
  // the callback's exception on the calling thread, and leaves no domain
  // claimed, so the next run_until completes.
  runner::ThreadPool one_worker(1);
  LentWorkers lent;
  const std::pair<const char*, runner::ThreadPool*> ways[] = {
      {"no donor", nullptr},
      {"1-worker donor", &one_worker},
  };
  for (const auto& [way, pool] : ways) {
    for (const std::size_t thrower : {0u, 1u}) {
      SCOPED_TRACE(std::string(way) + ", throw in domain " +
                   std::to_string(thrower));
      lent.lend(pool);
      ParallelSimulation psim(2);
      Network net(psim.simulator(0), 11);
      const NodeId a = net.add_node("a");
      const NodeId b = net.add_node("b");
      LinkConfig config;
      config.name = "a<->b";
      config.rate = Bandwidth::bps(1e6);
      config.propagation = Duration::millis(1);
      net.add_duplex_link(a, b, config, psim.simulator(0),
                          psim.simulator(1));
      Rng rng(5);
      PoissonSource ab(psim.simulator(0), net, a, b, 1, PacketKind::kBulk,
                       rng.split(), Duration::micros(700),
                       ByteSize::bytes(100));
      PoissonSource ba(psim.simulator(1), net, b, a, 2, PacketKind::kBulk,
                       rng.split(), Duration::micros(900),
                       ByteSize::bytes(100));
      psim.attach(net, {0, 1});
      ab.start(Duration::zero());
      ba.start(Duration::zero());
      psim.simulator(thrower).schedule_at(Duration::millis(5), [] {
        throw std::runtime_error("callback failed");
      });
      try {
        psim.run_until(Duration::millis(10));
        ADD_FAILURE() << "run_until swallowed the callback's exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "callback failed");
      }
      EXPECT_NO_THROW(psim.run_until(Duration::millis(20)));
      EXPECT_EQ(psim.simulator(0).now(), Duration::millis(20));
      EXPECT_EQ(psim.simulator(1).now(), Duration::millis(20));
    }
  }
}

TEST(PdesScenarioTest, DomainsClampAndFallback) {
  // The mesh is the one scenario that shards.  Far more domains than the
  // generator's partition hints clamp to the hint count (one per provider
  // core), and zero falls back to the sequential kernel.
  scenario::TomographySpec spec = scenario::ci_spec();
  spec.duration = Duration::seconds(1);
  spec.domains = 64;
  const scenario::TomographyResult big = scenario::run_tomography(spec);
  EXPECT_EQ(big.domains_used, spec.topology.core_count);
  EXPECT_GT(big.stream_summaries.front().received, 0u);
  spec.domains = 0;
  EXPECT_EQ(scenario::run_tomography(spec).domains_used, 1u);
}

}  // namespace
}  // namespace bolot::sim
