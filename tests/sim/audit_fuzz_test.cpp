// Randomized audit fuzz: ~50 seeded random topologies (1-5 hops, mixed
// drop-tail/RED queues, faulty-interface stages, Gilbert loss channels,
// UDP probes + closed-loop TCP + open-loop cross traffic) driven with every
// deep invariant walk enabled, with each topology run twice from the same
// seed.
//
// The test asserts four distinct properties the figures depend on:
//
//   1. Invariants hold everywhere the generator can reach — the event
//      queue's heap/slab discipline, per-link packet conservation, and
//      the datapath arming discipline are re-walked every 250 ms of
//      simulated time on every link, not just on the canned scenarios.
//   2. Determinism: a simulation is a pure function of its seed.  Two
//      same-seed runs must produce bit-identical trace digests (probe
//      timestamps, per-link packet logs, link stats, TCP state, event
//      counts).  A nondeterministic iteration order, an uninitialized
//      read, or time-travel in the queue shows up here as a digest split.
//   3. Shard-invariance: the SAME topology run on the parallel kernel
//      (sim/pdes.h) with 2, 4, and 8 domains must produce the SAME
//      digest as the sequential kernel — the conservative-lookahead
//      protocol claims the event stream is identical, and this is where
//      that claim meets fifty random datapaths.
//   4. Independence from the datapath's own arithmetic: every audited
//      link is replayed through the paper's Fig.-3 server
//      (model::FifoServer), and its departures and overflow drops must
//      equal the link's to the nanosecond.  Self-comparison cannot
//      see a datapath that is wrong the same way every run; this can.
//
// Audit failures surface as thrown exceptions (a throwing handler is
// installed), so a corrupted invariant fails the test with the formatted
// report instead of aborting the whole binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/fifo_server.h"
#include "runner/thread_pool.h"
#include "scenario/topology_gen.h"
#include "sim/channel.h"
#include "sim/fluid.h"
#include "sim/network.h"
#include "tests/sim/packet_log.h"
#include "sim/pdes.h"
#include "sim/simulator.h"
#include "sim/tcp.h"
#include "sim/traffic.h"
#include "sim/udp_echo.h"
#include "util/audit.h"
#include "util/rng.h"
#include "tests/sim/lent_workers.h"

namespace bolot::sim {
namespace {

[[noreturn]] void throwing_handler(const util::AuditReport& report) {
  throw std::logic_error(std::string("audit failure: ") + report.expression +
                         " — " + report.message + " (" + report.file + ":" +
                         std::to_string(report.line) + ")");
}

class AuditFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_ = util::set_audit_handler(&throwing_handler);
  }
  void TearDown() override { util::set_audit_handler(previous_); }

 private:
  util::AuditHandler previous_ = nullptr;
};

/// FNV-1a over the run's observable outputs.
class Digest {
 public:
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((v >> (8 * byte)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void mix_time(Duration d) { mix(static_cast<std::uint64_t>(d.count_nanos())); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// What the per-link Fig.-3 oracle saw over one run's audited links.
struct OracleTally {
  std::uint64_t links = 0;
  std::uint64_t arrivals = 0;  // arrivals replayed
  std::uint64_t ties = 0;      // arrivals at the instant of a departure
  std::uint64_t channel_links = 0;     // links with a Gilbert channel
  std::uint64_t channel_arrivals = 0;  // arrivals replayed on those links
  std::uint64_t channel_drops = 0;     // channel drops replayed
  std::string mismatch;        // the first link that disagreed, if any
};

/// Replays one drop-tail link's arrivals through model::FifoServer and
/// returns where the link and the server first disagree ("" if nowhere).
/// The arrivals come from the link's logs: an admitted packet arrived at
/// its hop_start and departed at its delivery minus the propagation
/// delay, or, if the channel lost it, at its drop (the channel decides
/// as the packet leaves the transmitter); a refused one arrived when it
/// fell.  Random and RED drops are inputs (the server never sees them);
/// an admitted packet must get the link's departure and an overflow drop
/// must find K packets held.
///
/// The refused drops' `offered` count places each among the link's
/// arrivals, and the admitted packets fill the other places in FIFO
/// order.  Where an arrival ties a departure to the nanosecond, the
/// server frees the slot (its `<=` rule); the kernel does so only if the
/// completion event dispatched first, and a drop's `sent` count says
/// which.  An admitted packet needs no such record: the kernel admitted
/// it, so the freer `<=` rule must too.  The first admitted packet still
/// in flight when the run ends stops the replay, since later drops may
/// have found it held.
std::string replay_fifo(const Link& link, const PacketLog& deliveries,
                        const PacketLog& drops, OracleTally& tally) {
  ++tally.links;
  const LinkConfig& config = link.config();
  if (config.channel) ++tally.channel_links;
  // Admitted packets in FIFO (departure) order, each with `at` set to its
  // departure: the deliveries merged with the channel drops.
  std::vector<PacketEvent> admitted;
  std::vector<PacketEvent> refused;
  for (PacketEvent event : deliveries.events()) {
    event.at = event.at - config.propagation;
    admitted.push_back(event);
  }
  const auto delivered_end = static_cast<std::ptrdiff_t>(admitted.size());
  for (const PacketEvent& event : drops.events()) {
    (event.cause == DropCause::kChannel ? admitted : refused).push_back(event);
  }
  std::inplace_merge(
      admitted.begin(), admitted.begin() + delivered_end, admitted.end(),
      [](const PacketEvent& a, const PacketEvent& b) { return a.at < b.at; });
  if (deliveries.events().size() < link.stats().delivered) {
    // A packet still in flight has left no record, so a channel drop
    // after the last delivery may belong behind it: stop there.
    while (!admitted.empty() &&
           admitted.back().kind != PacketEventKind::kDelivered) {
      admitted.pop_back();
    }
  }
  model::FifoServer server(config.buffer_packets);
  std::vector<Duration> departures;  // the server's, in FIFO order
  std::size_t next_admitted = 0;
  std::size_t next_refused = 0;
  SimTime last_arrival;
  for (std::uint64_t n = 1; n <= link.stats().offered; ++n) {
    const bool is_refused = next_refused < refused.size() &&
                            refused[next_refused].offered == n;
    if (!is_refused && next_admitted == admitted.size()) break;
    const PacketEvent& event =
        is_refused ? refused[next_refused++] : admitted[next_admitted++];
    const SimTime arrival = is_refused ? event.at : event.hop_start;
    const std::string where = config.name + " at " +
                              std::to_string(arrival.count_nanos()) + " ns: ";
    if (arrival < last_arrival) return where + "arrivals out of order";
    last_arrival = arrival;
    ++tally.arrivals;
    if (config.channel) ++tally.channel_arrivals;
    // Departures before the arrival, and those at or before it.
    const auto gone_before = static_cast<std::size_t>(
        std::lower_bound(departures.begin(), departures.end(), arrival) -
        departures.begin());
    const auto gone = static_cast<std::size_t>(
        std::upper_bound(departures.begin(), departures.end(), arrival) -
        departures.begin());
    if (gone != gone_before) ++tally.ties;
    const Duration service =
        config.rate.transmission_time(ByteSize::bytes(event.size_bytes));
    if (!is_refused) {
      if (event.kind == PacketEventKind::kDropped) {
        ++tally.channel_drops;
        // Dropped at its departure, after its own arrival.
        if (event.offered < n) return where + "channel drop before arrival";
      }
      const auto model = server.admit(arrival, service);
      if (model != event.at) {
        return where + "link departs at " +
               std::to_string(event.at.count_nanos()) + " ns, server " +
               (model ? std::to_string(model->count_nanos()) + " ns"
                      : std::string("drops"));
      }
      departures.push_back(event.at);
      continue;
    }
    if (event.sent != gone && event.sent != gone_before) {
      return where + "link has sent " + std::to_string(event.sent) +
             " packets, server " + std::to_string(gone);
    }
    if (event.cause != DropCause::kOverflow) continue;
    // At a tie where the arrival dispatched first, the departing packet
    // still holds its slot, so the server's `<=` rule does not apply.
    const bool full = event.sent == gone
                          ? !server.admit(arrival, service).has_value()
                          : departures.size() - gone_before ==
                                config.buffer_packets;
    if (!full) return where + "link overflows, server admits";
  }
  return "";
}

struct FuzzOutcome {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t probes_received = 0;
  std::uint64_t hop_deliveries = 0;
  OracleTally oracle;
};

/// Builds and runs one random topology.  Everything random derives from
/// `seed`, so two calls with the same seed must return identical
/// outcomes — and `domains` must not matter: `domains <= 1` runs the
/// sequential kernel, anything larger shards the path into contiguous
/// node blocks on a ParallelSimulation, and the digests must agree.
FuzzOutcome run_topology(std::uint64_t seed, std::size_t domains = 0) {
  Rng rng(seed);
  const std::size_t hops = 1 + rng.uniform_int(5);  // 1..5

  // Node i of the path lives in domain i*d/(hops+1); the TCP endpoints
  // ride with the router they hang off.  Construction happens on this
  // thread in one fixed order either way, so every Rng split happens in
  // the sequential order and the streams are identical by construction.
  std::optional<ParallelSimulation> psim;
  std::optional<Simulator> seq;
  if (domains > 1) {
    psim.emplace(domains);
  } else {
    seq.emplace();
  }
  const auto domain_of = [&](std::size_t i) {
    return psim ? i * domains / (hops + 1) : 0;
  };
  const auto sim_of = [&](std::size_t i) -> Simulator& {
    return psim ? psim->simulator(domain_of(i)) : *seq;
  };
  Simulator& sim = sim_of(0);
  Network net(sim, /*rng_seed=*/seed ^ 0x9E3779B97F4A7C15ULL);

  std::vector<NodeId> path;
  for (std::size_t i = 0; i <= hops; ++i) {
    path.push_back(net.add_node("n" + std::to_string(i)));
  }

  std::vector<Link*> audited;
  for (std::size_t i = 0; i < hops; ++i) {
    LinkConfig cfg;
    cfg.name = "hop" + std::to_string(i);
    // Continuous rate draw: real links do not run at exact multiples of
    // 128 kb/s.  Same-nanosecond ties still happen (a TCP segment's
    // completion meets the next segment's arrival in one of these
    // topologies), and the parallel kernel must order them as the
    // sequential one does: by arm time (MODEL_NOTES §14).
    cfg.rate = Bandwidth::bps(128e3 * rng.uniform(1.0, 17.0));
    cfg.propagation = Duration::millis(1.0 + rng.uniform(0.0, 15.0));
    cfg.buffer_packets = 4 + rng.uniform_int(28);
    if (rng.chance(1.0 / 3.0)) {
      cfg.random_drop_probability =
          Probability::checked(0.002 + 0.01 * rng.uniform());
    }
    if (rng.chance(0.5)) {
      RedConfig red;
      red.min_threshold = 2.0 + rng.uniform(0.0, 4.0);
      red.max_threshold = red.min_threshold + 4.0 + rng.uniform(0.0, 8.0);
      red.weight = 0.002 + 0.02 * rng.uniform();
      red.max_probability = Probability::checked(0.02 + 0.15 * rng.uniform());
      cfg.red = red;
    }
    if (rng.chance(0.25)) {
      cfg.channel = GilbertChannelConfig{
          Probability::checked(0.005 + 0.1 * rng.uniform()),
          Probability::checked(0.1 + 0.5 * rng.uniform())};
    }
    audited.push_back(&net.add_duplex_link(path[i], path[i + 1], cfg,
                                           sim_of(i), sim_of(i + 1)));
  }

  // TCP endpoints hang off the chain on their own access links so the
  // closed-loop flow crosses every hop without competing for the probe
  // endpoints' receiver slots.
  const NodeId tcp_src = net.add_node("tcp-src");
  const NodeId tcp_dst = net.add_node("tcp-dst");
  LinkConfig access;
  access.propagation = Duration::millis(1);
  access.buffer_packets = 64;
  access.name = "acc-src";
  access.rate = Bandwidth::bps(10e6 * rng.uniform(0.8, 1.2));  // continuous, as above
  net.add_duplex_link(tcp_src, path.front(), access, sim_of(0), sim_of(0));
  access.name = "acc-dst";
  access.rate = Bandwidth::bps(10e6 * rng.uniform(0.8, 1.2));
  net.add_duplex_link(tcp_dst, path.back(), access, sim_of(hops), sim_of(hops));

  TcpSink tcp_sink(sim_of(hops), net, tcp_dst);
  TcpConfig tcp_cfg;
  tcp_cfg.receiver_window_packets = 4.0 + static_cast<double>(rng.uniform_int(28));
  tcp_cfg.initial_ssthresh_packets =
      2.0 + static_cast<double>(rng.uniform_int(14));
  if (rng.chance(0.5)) tcp_cfg.mean_file_packets = 10.0 + rng.uniform(0.0, 40.0);
  TcpSource tcp(sim, net, tcp_src, tcp_dst, /*flow=*/7, rng.split(), tcp_cfg);
  tcp.start(Duration::millis(rng.uniform(0.0, 50.0)));

  // Open-loop cross traffic in both directions (receiver-less: consumed
  // at the far node, which is exactly the no-sink delivery path).
  PoissonSource telnet(sim, net, path.front(), path.back(), /*flow=*/21,
                       PacketKind::kInteractive, rng.split(),
                       Duration::millis(3.0 + rng.uniform(0.0, 10.0)),
                       kTelnetWireBytes);
  telnet.start(Duration::millis(rng.uniform(0.0, 20.0)));
  BurstConfig burst_cfg;
  burst_cfg.mean_burst_gap = Duration::millis(80.0 + rng.uniform(0.0, 200.0));
  burst_cfg.mean_burst_packets = 2.0 + rng.uniform(0.0, 6.0);
  BurstSource ftp(sim_of(hops), net, path.back(), path.front(), /*flow=*/22,
                  PacketKind::kBulk, rng.split(), burst_cfg);
  ftp.start(Duration::millis(rng.uniform(0.0, 20.0)));

  ProbeSourceConfig probe_cfg;
  probe_cfg.delta = Duration::millis(10.0 + rng.uniform(0.0, 40.0));
  probe_cfg.probe_count = 40 + rng.uniform_int(80);
  UdpEchoSource probe(sim, net, path.front(), path.back(), probe_cfg);
  EchoHost echo(sim_of(hops), net, path.back());
  probe.start(Duration::millis(rng.uniform(0.0, 5.0)));

  // One paired log per audited link, split into its two thread-local
  // halves: a cut link's drop hooks fire in the sending domain and its
  // delivery hooks in the receiving domain, so a single shared log would
  // be a data race.  The sequential run uses the identical structure so
  // the digests are comparable byte for byte.
  std::vector<std::unique_ptr<PacketLog>> drop_logs;
  std::vector<std::unique_ptr<PacketLog>> delivery_logs;
  for (std::size_t i = 0; i < audited.size(); ++i) {
    delivery_logs.push_back(std::make_unique<PacketLog>());
    delivery_logs.back()->attach_deliveries(*audited[i]);
    drop_logs.push_back(std::make_unique<PacketLog>());
    drop_logs.back()->attach_drops(sim_of(i), *audited[i]);
  }

  if (psim) {
    std::vector<std::size_t> node_domain;
    for (std::size_t i = 0; i <= hops; ++i) node_domain.push_back(domain_of(i));
    node_domain.push_back(domain_of(0));     // tcp-src
    node_domain.push_back(domain_of(hops));  // tcp-dst
    psim->attach(net, node_domain);
  }

  // Run in slices, deep-walking every audited structure at each slice
  // boundary so a corruption is caught within 250 ms of simulated time
  // of its introduction (the audit build additionally re-walks the event
  // queue every 1024 dispatches from inside the loop).
  const Duration kSlice = Duration::millis(250);
  const Duration kEnd = Duration::seconds(2.5);
  for (Duration t = kSlice; t <= kEnd; t += kSlice) {
    if (psim) {
      psim->run_until(t);
      psim->audit_verify();
    } else {
      sim.run_until(t);
      sim.audit_verify();
    }
    for (const Link* link : audited) link->audit_verify();
  }

  FuzzOutcome outcome;
  outcome.events = psim ? psim->events_dispatched() : sim.events_dispatched();
  outcome.probes_received = probe.trace().received_count();

  Digest digest;
  const analysis::ProbeTrace trace = probe.trace();
  digest.mix(trace.records.size());
  for (const analysis::ProbeRecord& record : trace.records) {
    digest.mix(record.seq);
    digest.mix_time(record.send_time);
    digest.mix_time(record.rtt);
    digest.mix_time(record.echo_time);
    digest.mix(record.received ? 1 : 0);
  }
  const auto mix_log = [&digest](const PacketLog& log) {
    digest.mix(log.events().size());
    for (const PacketEvent& event : log.events()) {
      digest.mix_time(event.at);
      digest.mix(static_cast<std::uint64_t>(event.kind));
      digest.mix(static_cast<std::uint64_t>(event.cause));
      digest.mix(event.link_id);
      digest.mix(event.packet_id);
      digest.mix(event.flow);
      digest.mix(static_cast<std::uint64_t>(event.size_bytes));
    }
  };
  for (std::size_t i = 0; i < audited.size(); ++i) {
    mix_log(*delivery_logs[i]);
    mix_log(*drop_logs[i]);
  }
  for (std::size_t i = 0; i < audited.size(); ++i) {
    const std::string mismatch = replay_fifo(*audited[i], *delivery_logs[i],
                                             *drop_logs[i], outcome.oracle);
    if (outcome.oracle.mismatch.empty()) outcome.oracle.mismatch = mismatch;
  }
  for (const Link* link : audited) {
    const LinkStats& stats = link->stats();
    digest.mix(stats.offered);
    digest.mix(stats.delivered);
    digest.mix(stats.overflow_drops);
    digest.mix(stats.random_drops);
    digest.mix(stats.red_drops);
    digest.mix(stats.channel_drops);
    digest.mix(static_cast<std::uint64_t>(stats.bytes_delivered));
    digest.mix(stats.max_queue);
    digest.mix_time(stats.busy);
    outcome.hop_deliveries += stats.delivered;
  }
  const TcpStats& tcp_stats = tcp.stats();
  digest.mix(tcp_stats.segments_sent);
  digest.mix(tcp_stats.segments_acked);
  digest.mix(tcp_stats.retransmissions);
  digest.mix(tcp_stats.timeouts);
  digest.mix(tcp_stats.fast_retransmits);
  digest.mix(outcome.events);
  outcome.digest = digest.value();
  return outcome;
}

TEST_F(AuditFuzzTest, FiftyRandomTopologiesHoldInvariantsAndReplayExactly) {
  constexpr std::uint64_t kTopologies = 50;
  std::uint64_t total_probes = 0;
  std::uint64_t total_hops = 0;
  OracleTally oracle;
  for (std::uint64_t i = 0; i < kTopologies; ++i) {
    const std::uint64_t seed = derive_stream_seed(0xB010793ULL, i);
    SCOPED_TRACE("topology " + std::to_string(i) + " seed " +
                 std::to_string(seed));
    FuzzOutcome first;
    ASSERT_NO_THROW(first = run_topology(seed));
    FuzzOutcome second;
    ASSERT_NO_THROW(second = run_topology(seed));
    EXPECT_EQ(first.digest, second.digest)
        << "same-seed runs diverged: " << first.events << " vs "
        << second.events << " events";
    EXPECT_EQ(first.events, second.events);
    EXPECT_EQ(first.oracle.mismatch, "");
    total_probes += first.probes_received;
    total_hops += first.hop_deliveries;
    oracle.links += first.oracle.links;
    oracle.arrivals += first.oracle.arrivals;
    oracle.ties += first.oracle.ties;
    oracle.channel_links += first.oracle.channel_links;
    oracle.channel_arrivals += first.oracle.channel_arrivals;
    oracle.channel_drops += first.oracle.channel_drops;
  }
  std::cout << "Fig.-3 oracle: " << oracle.arrivals << " arrivals on "
            << oracle.links << " links, " << oracle.ties
            << " at the instant of a departure; " << oracle.channel_arrivals
            << " arrivals and " << oracle.channel_drops
            << " channel drops on " << oracle.channel_links
            << " channel links\n";
  EXPECT_GT(oracle.arrivals, 100u * kTopologies);
  EXPECT_GT(oracle.channel_drops, 0u);
  // The generator must actually exercise the datapath: a wiring bug that
  // silently dropped all traffic would make every digest trivially equal.
  EXPECT_GT(total_probes, kTopologies);
  EXPECT_GT(total_hops, 100u * kTopologies);
}

TEST_F(AuditFuzzTest, ShardedRunsMatchSequentialDigestsExactly) {
  // Every fuzz topology again, but this time the sequential digest is
  // the reference for the parallel kernel at 2, 4, and 8 domains (8
  // usually exceeds the path length, leaving some domains empty — that
  // degenerate case must hold too).  Worker threads come from a lent
  // pool of hardware-concurrency workers, so domains cross threads when
  // the host has cores to spare; either way the claim is the same: the
  // event stream is a function of the seed, not of the domain count or
  // thread schedule.
  runner::ThreadPool pool(0);
  LentWorkers lent(&pool);
  constexpr std::uint64_t kTopologies = 50;
  std::map<std::size_t, OracleTally> oracle;  // by domain count
  for (std::uint64_t i = 0; i < kTopologies; ++i) {
    const std::uint64_t seed = derive_stream_seed(0xB010793ULL, i);
    SCOPED_TRACE("topology " + std::to_string(i) + " seed " +
                 std::to_string(seed));
    FuzzOutcome sequential;
    ASSERT_NO_THROW(sequential = run_topology(seed));
    for (std::size_t domains : {2u, 4u, 8u}) {
      SCOPED_TRACE(std::to_string(domains) + " domains");
      FuzzOutcome sharded;
      ASSERT_NO_THROW(sharded = run_topology(seed, domains));
      EXPECT_EQ(sharded.digest, sequential.digest)
          << "sharded event stream diverged: " << sharded.events << " vs "
          << sequential.events << " events";
      EXPECT_EQ(sharded.events, sequential.events);
      EXPECT_EQ(sharded.probes_received, sequential.probes_received);
      EXPECT_EQ(sharded.hop_deliveries, sequential.hop_deliveries);
      EXPECT_EQ(sharded.oracle.mismatch, "");
      EXPECT_EQ(sharded.oracle.arrivals, sequential.oracle.arrivals);
      EXPECT_EQ(sharded.oracle.channel_arrivals,
                sequential.oracle.channel_arrivals);
      EXPECT_EQ(sharded.oracle.channel_drops, sequential.oracle.channel_drops);
      oracle[domains].channel_links += sharded.oracle.channel_links;
      oracle[domains].channel_arrivals += sharded.oracle.channel_arrivals;
    }
  }
  for (const auto& [domains, tally] : oracle) {
    std::cout << "Fig.-3 oracle at " << domains << " domains: "
              << tally.channel_arrivals << " arrivals on "
              << tally.channel_links << " channel links\n";
  }
  // The sharded runs really handed domains to the lent pool's threads.
  EXPECT_GT(lent.jobs(), 0u);
}

/// One generated fabric (scenario/topology_gen.h) with fluid-served links
/// (sim/fluid.h), probed end to end, run with every deep invariant walk
/// enabled.  Aggregates and envelope flows are seeded by link uid and
/// homed in the link's domain, so the trajectory — and with it the whole
/// event stream — must be a function of the seed alone, not of how the
/// fabric is sharded.
FuzzOutcome run_generated_fabric(std::uint64_t seed, std::size_t domains) {
  scenario::TopologySpec spec;
  spec.family = seed % 2 == 0 ? scenario::TopologySpec::Family::kFatTree
                              : scenario::TopologySpec::Family::kAsHierarchy;
  spec.seed = seed;
  spec.fat_tree_k = 8;  // 8 partition hints either way, so 8 domains fit
  spec.hosts_per_edge = 1;
  spec.core_count = 8;
  spec.stubs_per_core = 2;
  spec.hosts_per_stub = 1;
  const scenario::TopologyPlan plan = scenario::generate_topology(spec);

  std::optional<ParallelSimulation> psim;
  std::optional<Simulator> seq;
  if (domains > 1) {
    psim.emplace(domains);
  } else {
    seq.emplace();
  }
  const auto sim_of = [&](std::size_t d) -> Simulator& {
    return psim ? psim->simulator(d) : *seq;
  };
  Network net(sim_of(0), seed ^ 0x9E3779B97F4A7C15ULL);
  const scenario::BuiltTopology built = scenario::instantiate_topology(
      plan, net, domains > 1 ? domains : 1, sim_of);
  net.compute_routes();
  std::vector<std::size_t> domain_of_node(net.node_count(), 0);
  for (std::size_t i = 0; i < built.nodes.size(); ++i) {
    domain_of_node[built.nodes[i]] = built.node_domain[i];
  }

  // Fluid on every third link: half constant base demand, half an
  // envelope-modulated demand (the only event source a fluid link has),
  // alternating queue models so both service paths are audited.
  std::vector<std::unique_ptr<FluidAggregate>> aggregates;
  std::vector<std::unique_ptr<FluidFlow>> envelopes;
  std::vector<Link*> fluid_links;
  for (std::size_t uid = 0; uid < net.link_count(); uid += 3) {
    Link& link = net.link_at(uid);
    Simulator& link_sim = sim_of(domain_of_node[net.link_source(uid)]);
    FluidAggregateConfig config;
    config.capacity = Bandwidth::bps(link.config().rate.bps());
    config.queue_model = uid % 2 == 0 ? FluidQueueModel::kResidualRate
                                      : FluidQueueModel::kMd1Wait;
    aggregates.push_back(std::make_unique<FluidAggregate>(
        link_sim, config, Rng(derive_stream_seed(seed ^ 0xF1u, uid))));
    link.attach_fluid(*aggregates.back());
    fluid_links.push_back(&link);
    const double demand = 0.4 * link.config().rate.bps();
    if (uid % 6 == 0) {
      aggregates.back()->add_base_rate(Bandwidth::bps(demand));
    } else {
      envelopes.push_back(std::make_unique<FluidFlow>(
          link_sim, Bandwidth::bps(demand), 3, Duration::millis(120),
          Rng(derive_stream_seed(seed ^ 0xE2u, uid))));
      envelopes.back()->attach(*aggregates.back());
    }
  }

  const NodeId probe_src = built.nodes[plan.hosts.front()];
  const NodeId probe_dst = built.nodes[plan.hosts.back()];
  ProbeSourceConfig probe_cfg;
  probe_cfg.delta = Duration::millis(15);
  probe_cfg.probe_count = 120;
  UdpEchoSource probe(sim_of(domain_of_node[probe_src]), net, probe_src,
                      probe_dst, probe_cfg);
  EchoHost echo(sim_of(domain_of_node[probe_dst]), net, probe_dst);
  Rng cross_rng(derive_stream_seed(seed, 0xC0));
  PoissonSource cross(sim_of(domain_of_node[probe_dst]), net, probe_dst,
                      probe_src, /*flow=*/31, PacketKind::kBulk,
                      cross_rng.split(), Duration::millis(5), ByteSize::bytes(512));

  if (psim) psim->attach(net, built.node_domain);
  for (auto& envelope : envelopes) envelope->start(Duration::zero());
  probe.start(Duration::millis(1));
  cross.start(Duration::millis(2));

  const Duration kSlice = Duration::millis(250);
  const Duration kEnd = Duration::seconds(2);
  for (Duration t = kSlice; t <= kEnd; t += kSlice) {
    if (psim) {
      psim->run_until(t);
      psim->audit_verify();
    } else {
      seq->run_until(t);
      seq->audit_verify();
    }
    for (const Link* link : fluid_links) link->audit_verify();
  }

  FuzzOutcome outcome;
  outcome.events = psim ? psim->events_dispatched() : seq->events_dispatched();
  outcome.probes_received = probe.trace().received_count();
  Digest digest;
  const analysis::ProbeTrace trace = probe.trace();
  digest.mix(trace.records.size());
  for (const analysis::ProbeRecord& record : trace.records) {
    digest.mix(record.seq);
    digest.mix_time(record.send_time);
    digest.mix_time(record.rtt);
    digest.mix(record.received ? 1 : 0);
  }
  for (std::size_t uid = 0; uid < net.link_count(); ++uid) {
    const LinkStats& stats = net.link_at(uid).stats();
    digest.mix(stats.offered);
    digest.mix(stats.delivered);
    digest.mix(static_cast<std::uint64_t>(stats.bytes_delivered));
    digest.mix_time(stats.busy);
    outcome.hop_deliveries += stats.delivered;
  }
  for (const auto& aggregate : aggregates) {
    digest.mix(aggregate->rate_changes());
    digest.mix(aggregate->wait_samples());
  }
  digest.mix(outcome.events);
  outcome.digest = digest.value();
  return outcome;
}

TEST_F(AuditFuzzTest, GeneratedFluidFabricsShardInvariantAcrossDomains) {
  runner::ThreadPool pool(0);
  LentWorkers lent(&pool);  // domains borrow the lent workers
  constexpr std::uint64_t kFabrics = 6;
  for (std::uint64_t i = 0; i < kFabrics; ++i) {
    const std::uint64_t seed = derive_stream_seed(0xFA88ULL, i);
    SCOPED_TRACE("fabric " + std::to_string(i) + " seed " +
                 std::to_string(seed));
    // Same wiring both times: the generator itself must replay exactly.
    scenario::TopologySpec spec;
    spec.seed = seed;
    EXPECT_EQ(scenario::generate_topology(spec).wiring_digest(),
              scenario::generate_topology(spec).wiring_digest());
    FuzzOutcome sequential;
    ASSERT_NO_THROW(sequential = run_generated_fabric(seed, 1));
    EXPECT_GT(sequential.probes_received, 0u);
    for (const std::size_t domains : {2u, 4u, 8u}) {
      SCOPED_TRACE(std::to_string(domains) + " domains");
      FuzzOutcome sharded;
      ASSERT_NO_THROW(sharded = run_generated_fabric(seed, domains));
      EXPECT_EQ(sharded.digest, sequential.digest)
          << "sharded event stream diverged: " << sharded.events << " vs "
          << sequential.events << " events";
      EXPECT_EQ(sharded.events, sequential.events);
    }
  }
  EXPECT_GT(lent.jobs(), 0u);
}

TEST_F(AuditFuzzTest, OracleTakesTheKernelOrderAtATie) {
  // K = 1 and 1 ms of service: B arrives exactly when A departs.  Armed
  // before A's completion, B's arrival dispatches first and finds A still
  // held; armed after it, B finds the slot free.  The oracle must replay
  // both orders, and both are ties.
  for (const bool arrival_first : {true, false}) {
    SCOPED_TRACE(arrival_first ? "arrival first" : "completion first");
    Simulator sim;
    LinkConfig config;
    config.name = "tie";
    config.rate = Bandwidth::bps(512 * 8 * 1000.0);
    config.propagation = Duration::millis(1);
    config.buffer_packets = 1;
    Link link(sim, config, Rng(1));
    PacketLog deliveries;
    PacketLog drops;
    deliveries.attach_deliveries(link);
    drops.attach_drops(sim, link);
    const auto send = [&link] {
      Packet packet;
      packet.size_bytes = 512;
      link.enqueue(std::move(packet));
    };
    const Duration tie = Duration::millis(1);
    if (arrival_first) sim.schedule_at(tie, send);
    sim.schedule_at(Duration::zero(), [&] {
      send();  // arms A's completion
      if (!arrival_first) sim.schedule_at(tie, send);
    });
    sim.run_until(Duration::millis(10));
    EXPECT_EQ(link.stats().overflow_drops, arrival_first ? 1u : 0u);

    OracleTally tally;
    EXPECT_EQ(replay_fifo(link, deliveries, drops, tally), "");
    EXPECT_EQ(tally.arrivals, 2u);
    EXPECT_EQ(tally.ties, 1u);
  }
}

TEST_F(AuditFuzzTest, CorruptedInvariantIsReportedWithContext) {
  // End-to-end check of the failure path itself: a deliberately broken
  // invariant must surface the formatted report through the handler.
  try {
    util::audit_fail(__FILE__, __LINE__, "forced", "object state %d", 42);
    FAIL() << "audit_fail returned";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("forced"), std::string::npos);
    EXPECT_NE(what.find("object state 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace bolot::sim
