// run_tomography: the N x N mesh, its online streaming analysis, and the
// per-link least-squares inference.  See tomography.h for the model and
// MODEL_NOTES section 17 for the identifiability analysis.
#include "scenario/tomography.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/lindley.h"
#include "analysis/linalg.h"
#include "analysis/streaming.h"
#include "obs/trace.h"
#include "scenario/build.h"

namespace bolot::scenario {

namespace {

constexpr Duration kMeshWarmup = Duration::seconds(2);
constexpr Duration kMeshDrain = Duration::seconds(2);
/// Ridge lambda used when the link-class system is rank deficient.
constexpr double kRidgeLambda = 1e-6;

/// One round-trip probe stream: per-stream state only, nothing per probe.
/// The loss state is the main flow's estimator bank (the inference and
/// the gauges read it); each rtt comes from the probe's own source_ts, as
/// NetDyn takes it, so the sender keeps no per-probe table.  The side
/// flow's returns stream into one packet-pair estimator, which keeps one
/// spacing per pair.  Cache-line aligned: no two streams share a line,
/// and the 256-byte stride keeps `streams[s]` on the per-probe path a
/// shift.
struct alignas(64) Stream {
  Stream(sim::NodeId src_node, sim::NodeId dst_node, std::uint64_t probes,
         ByteSize probe_wire, std::size_t max_pairs)
      : src(src_node),
        dst(dst_node),
        probe_count(probes),
        pair(probe_wire, max_pairs) {}

  sim::NodeId src;
  sim::NodeId dst;
  std::uint64_t probe_count;
  std::uint64_t next_seq = 0;       // probes sent
  std::uint64_t received = 0;       // returns pushed as received
  std::uint64_t late_returns = 0;   // returns behind the pushed prefix
  std::uint64_t pair_next_seq = 0;  // pair probes sent
  double rtt_sum_ms = 0.0;
  double mu_true_bps = 0.0;              // min capacity over the round trip
  std::vector<std::uint32_t> round_trip;  // directed link uids

  analysis::StreamingLossState loss;   // pushed in seq order
  analysis::StreamingPacketPair pair;  // pushed in return order

  /// Pushes seqs [loss.probes(), upto) as lost, in order.
  void push_gap_losses(std::uint64_t upto) {
    while (loss.probes() < upto) loss.push_lost(true);
  }

  /// The one entry point for a main-flow return.  Echoes of one stream
  /// cannot overtake each other (FIFO links, fixed routes, equal sizes),
  /// so arrival order is seq order and every seq between the pushed
  /// prefix and this one was dropped.  A return behind the prefix is late
  /// or a duplicate: it is counted, never pushed, so it cannot corrupt
  /// the bank.
  void on_return(std::uint64_t seq, Duration rtt) {
    if (seq < loss.probes()) {
      ++late_returns;
      return;
    }
    push_gap_losses(seq);
    loss.push_lost(false);
    ++received;
    rtt_sum_ms += rtt.millis();
  }
};

/// Shared mesh state: the streams plus the routing info receivers need.
struct MeshState {
  std::vector<Stream> streams;

  void record_return(const sim::Packet& p, SimTime now) {
    const std::uint64_t seq = p.probe().seq;
    if (p.flow >= kMeshPairFlowBase) {
      // Pair returns of one stream keep seq order for the reason main-flow
      // returns do (see on_return); one out of order is counted by the
      // estimator and never pushed.
      Stream& stream = streams.at(p.flow - kMeshPairFlowBase);
      if (seq >= stream.pair_next_seq) {
        throw std::out_of_range("run_tomography: pair return never sent");
      }
      stream.pair.push(seq, p.probe().source_ts, now);
      return;
    }
    streams.at(p.flow - kMeshFlowBase).on_return(seq,
                                                  now - p.probe().source_ts);
  }
};

/// Per-host endpoint: echoes probes addressed to it and multiplexes the
/// returns of every stream it sources into the streaming estimators.  One
/// Network receiver per node is the constraint this class exists for.
class MeshProbeHost {
 public:
  MeshProbeHost(sim::Simulator& sim, sim::Network& net, sim::NodeId node,
                MeshState& mesh, Duration delta, ByteSize probe_wire,
                std::size_t pair_stride)
      : sim_(sim),
        net_(net),
        node_(node),
        mesh_(mesh),
        delta_(delta),
        probe_wire_(probe_wire),
        pair_stride_(pair_stride) {
    net_.set_receiver(node_,
                      [this](sim::Packet&& p) { on_packet(std::move(p)); });
  }

  /// Begins stream `s`'s send chain at absolute time `at` (the stream's
  /// source must be this host's node).
  void start_stream(std::size_t s, SimTime at) {
    sim_.schedule_at(at, [this, s] { send_next(s); });
  }

 private:
  void send_next(std::size_t s) {
    Stream& stream = mesh_.streams[s];
    if (stream.next_seq >= stream.probe_count) return;
    const std::uint64_t seq = stream.next_seq++;
    net_.send(make_probe(kMeshFlowBase + static_cast<std::uint32_t>(s), seq,
                         stream.src, stream.dst));

    // Every pair_stride-th slot also fires a back-to-back pair on the
    // side flow, offset half a delta so the dispersion measurement never
    // queues behind this probe.
    if (pair_stride_ > 0 && seq % pair_stride_ == 0) {
      sim_.schedule_in(delta_ / 2, [this, s] { send_pair(s); });
    }
    sim_.rearm_in(delta_);
  }

  void send_pair(std::size_t s) {
    Stream& stream = mesh_.streams[s];
    const std::uint32_t flow =
        kMeshPairFlowBase + static_cast<std::uint32_t>(s);
    for (int k = 0; k < 2; ++k) {
      net_.send(
          make_probe(flow, stream.pair_next_seq, stream.src, stream.dst));
      ++stream.pair_next_seq;
    }
  }

  sim::Packet make_probe(std::uint32_t flow, std::uint64_t seq,
                         sim::NodeId src, sim::NodeId dst) {
    sim::Packet p;
    p.id = (static_cast<std::uint64_t>(flow) << 40) + seq;
    p.kind = sim::PacketKind::kProbe;
    p.flow = flow;
    p.size_bytes = probe_wire_.count();
    p.src = src;
    p.dst = dst;
    p.set_probe({seq, sim_.now(), Duration::zero(), false});
    return p;
  }

  void on_packet(sim::Packet&& p) {
    if (p.kind != sim::PacketKind::kProbe || !p.has_probe()) return;
    if (!p.probe().echoed) {
      // Echo side: bounce it straight back, as the paper's echo host does.
      p.probe().echoed = true;
      p.probe().echo_ts = sim_.now();
      std::swap(p.src, p.dst);
      net_.send(std::move(p));
      return;
    }
    mesh_.record_return(p, sim_.now());
  }

  sim::Simulator& sim_;
  sim::Network& net_;
  sim::NodeId node_;
  MeshState& mesh_;
  Duration delta_;
  ByteSize probe_wire_;
  std::size_t pair_stride_;
};

/// Per-link probe sojourn accumulators (delay ground truth).  A packet's
/// sojourn at a link is its delivery time there minus its hop_start, the
/// time Link::enqueue admitted it there.  Nodes forward in zero time, so
/// that is also its delivery time at the previous link (its send time at
/// the first hop).  Each link's hook touches only its own slot.
struct DelayTruth {
  std::vector<double> sum_ms;
  std::vector<std::uint64_t> count;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

TomographyResult run_tomography(const TomographySpec& spec) {
  TRACE_SCOPE("scenario.run_tomography");
  if (spec.delta <= Duration::zero()) {
    throw std::invalid_argument("run_tomography: delta must be positive");
  }
  if (!(spec.drop_min >= 0.0 && spec.drop_max < 1.0 &&
        spec.drop_min <= spec.drop_max)) {
    throw std::invalid_argument(
        "run_tomography: need 0 <= drop_min <= drop_max < 1");
  }
  // Pairs are pair_stride * delta apart; at or below the pair send gap
  // the estimator would chain one pair's second probe to the next pair's
  // first and keep more spacings than pairs.
  if (spec.pair_stride > 0 &&
      !(spec.delta * static_cast<std::int64_t>(spec.pair_stride) >
        analysis::kPairSendGap)) {
    throw std::invalid_argument(
        "run_tomography: pair_stride * delta must exceed the packet-pair "
        "send gap");
  }
  const TopologyPlan topo = generate_topology(spec.topology);
  if (topo.hosts.size() < 2) {
    throw std::invalid_argument("run_tomography: need at least two hosts");
  }

  detail::ScenarioBuild build(topo, spec.domains, /*sampled=*/false,
                              spec.seed);
  sim::Network& net = build.net();

  // --- Loss ground truth: seeded per-directed-link drop probabilities ---
  // Drawn per link uid (plan order), so the assignment is independent of
  // the domain count.
  std::vector<double> drop_prob(net.link_count(), 0.0);
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    Rng link_rng(derive_stream_seed(spec.seed ^ 0xD209u, i));
    drop_prob[i] = link_rng.uniform(spec.drop_min, spec.drop_max);
    net.link_at(i).set_random_drop_probability(
        Probability::checked(drop_prob[i]));
  }

  const std::uint64_t probes_per_stream =
      static_cast<std::uint64_t>(spec.duration / spec.delta);
  const std::size_t host_count = topo.hosts.size();
  const std::size_t stream_count = host_count * (host_count - 1);

  // --- Delay ground truth: delivery hooks (sequential kernel only) ------
  const bool collect_delay = build.domains() == 1;
  DelayTruth delay_truth;
  if (collect_delay) {
    delay_truth.sum_ms.assign(net.link_count(), 0.0);
    delay_truth.count.assign(net.link_count(), 0);
    for (std::size_t i = 0; i < net.link_count(); ++i) {
      const std::uint32_t uid = static_cast<std::uint32_t>(i);
      net.link_at(i).set_delivery_hook([gt = &delay_truth, uid](
                                           const sim::Packet& p, SimTime at) {
        // Main-flow probes only: pair followers queue behind their leader
        // by construction, which would bias the sojourn mean.
        if (p.kind != sim::PacketKind::kProbe || p.flow < kMeshFlowBase ||
            p.flow >= kMeshPairFlowBase) {
          return;
        }
        gt->sum_ms[uid] += (at - p.hop_start).millis();
        ++gt->count[uid];
      });
    }
  }

  // --- Optional fluid background (all flows folded; no packetized zone) -
  std::optional<detail::FluidBackground> background;
  if (spec.fluid_background) {
    background.emplace(*spec.fluid_background, build, std::vector<bool>{});
  }

  // --- Streams: every ordered host pair, round-trip probed --------------
  const std::size_t max_pairs =
      spec.pair_stride > 0
          ? static_cast<std::size_t>(probes_per_stream / spec.pair_stride) + 1
          : 0;
  MeshState mesh;
  mesh.streams.reserve(stream_count);
  for (std::size_t i = 0; i < host_count; ++i) {
    for (std::size_t j = 0; j < host_count; ++j) {
      if (i == j) continue;
      const sim::NodeId src = topo.hosts[i];
      const sim::NodeId dst = topo.hosts[j];
      std::vector<std::uint32_t> round_trip = net.route_links(src, dst);
      const std::vector<std::uint32_t> back = net.route_links(dst, src);
      round_trip.insert(round_trip.end(), back.begin(), back.end());
      double mu = net.link_at(round_trip.front()).config().rate.bps();
      for (const std::uint32_t uid : round_trip) {
        mu = std::min(mu, net.link_at(uid).config().rate.bps());
      }

      Stream stream(src, dst, probes_per_stream, spec.probe_wire,
                    max_pairs);
      stream.mu_true_bps = mu;
      stream.round_trip = std::move(round_trip);
      mesh.streams.push_back(std::move(stream));
    }
  }

  // One endpoint per host node; host i sources streams to every j != i.
  std::vector<std::unique_ptr<MeshProbeHost>> hosts;
  hosts.reserve(host_count);
  std::map<sim::NodeId, MeshProbeHost*> host_of;
  for (const sim::NodeId node : topo.hosts) {
    hosts.push_back(std::make_unique<MeshProbeHost>(
        build.sim_for(node), net, node, mesh, spec.delta, spec.probe_wire,
        spec.pair_stride));
    host_of[node] = hosts.back().get();
  }

  build.finish();
  if (background) background->start();
  // Staggered starts spread the mesh's send instants across one delta so
  // streams do not fire in lockstep.
  for (std::size_t s = 0; s < stream_count; ++s) {
    const Duration stagger =
        Duration::nanos(static_cast<std::int64_t>(spec.delta.count_nanos()) *
                        static_cast<std::int64_t>(s) /
                        static_cast<std::int64_t>(stream_count));
    host_of.at(mesh.streams[s].src)->start_stream(s, kMeshWarmup + stagger);
  }

  const Duration end = kMeshWarmup + spec.duration + kMeshDrain;
  build.run_until(end);

  // Probes sent but never returned are lost; close every stream's push
  // prefix so the loss state covers every sent probe.
  for (Stream& stream : mesh.streams) {
    stream.push_gap_losses(stream.next_seq);
  }

  // --- Inference --------------------------------------------------------
  TomographyResult result;
  result.hosts = host_count;
  result.streams = stream_count;
  result.domains_used = build.domains();
  result.delay_truth_collected = collect_delay;
  result.simulated = end;
  result.events = build.events();

  // Routing matrix columns (per directed link crossed by any stream), then
  // identical columns merged into identifiable classes.
  std::map<std::uint32_t, std::vector<std::uint64_t>> columns;
  for (std::size_t s = 0; s < stream_count; ++s) {
    for (const std::uint32_t uid : mesh.streams[s].round_trip) {
      auto [it, inserted] =
          columns.try_emplace(uid, std::vector<std::uint64_t>(stream_count));
      ++it->second[s];
    }
  }
  result.probed_links = columns.size();
  std::map<std::vector<std::uint64_t>, std::vector<std::uint32_t>> classes;
  for (const auto& [uid, column] : columns) {
    classes[column].push_back(uid);
  }
  result.link_classes = classes.size();

  std::vector<std::size_t> used;  // streams with at least one return
  for (std::size_t s = 0; s < stream_count; ++s) {
    if (mesh.streams[s].received > 0) used.push_back(s);
  }

  std::vector<double> est_loss(classes.size(), 0.0);
  std::vector<double> est_delay(classes.size(), 0.0);
  if (!used.empty() && !classes.empty()) {
    analysis::Matrix a(used.size(), classes.size());
    std::vector<double> b_loss(used.size(), 0.0);
    std::vector<double> b_delay(used.size(), 0.0);
    std::size_t ci = 0;
    for (const auto& [column, uids] : classes) {
      for (std::size_t ri = 0; ri < used.size(); ++ri) {
        a.at(ri, ci) = static_cast<double>(column[used[ri]]);
      }
      ++ci;
    }
    for (std::size_t ri = 0; ri < used.size(); ++ri) {
      const Stream& stream = mesh.streams[used[ri]];
      const double loss_fraction = std::min(
          stream.loss.loss_fraction(), 0.999999);  // keep -log finite
      b_loss[ri] = -std::log(1.0 - loss_fraction);
      b_delay[ri] =
          stream.rtt_sum_ms / static_cast<double>(stream.received);
    }
    try {
      est_loss = analysis::least_squares(a, b_loss);
      est_delay = analysis::least_squares(a, b_delay);
    } catch (const std::exception&) {
      // Rank-deficient class system (or fewer usable streams than
      // classes): ridge keeps the recovery defined.
      result.ridge_used = true;
      est_loss = analysis::ridge_least_squares(a, b_loss, kRidgeLambda);
      est_delay = analysis::ridge_least_squares(a, b_delay, kRidgeLambda);
    }
  }

  double loss_err_num = 0.0, loss_err_den = 0.0;
  double delay_err_num = 0.0, delay_err_den = 0.0;
  std::size_t ci = 0;
  for (const auto& [column, uids] : classes) {
    TomographyLinkClass link_class;
    link_class.links = uids;
    for (const std::uint32_t uid : uids) {
      link_class.true_loss_sum += -std::log(1.0 - drop_prob[uid]);
      if (collect_delay && delay_truth.count[uid] > 0) {
        link_class.true_delay_ms +=
            delay_truth.sum_ms[uid] /
            static_cast<double>(delay_truth.count[uid]);
      }
    }
    link_class.est_loss_sum = est_loss[ci];
    link_class.est_delay_ms = est_delay[ci];
    loss_err_num += std::abs(link_class.est_loss_sum - link_class.true_loss_sum);
    loss_err_den += link_class.true_loss_sum;
    if (collect_delay) {
      delay_err_num +=
          std::abs(link_class.est_delay_ms - link_class.true_delay_ms);
      delay_err_den += link_class.true_delay_ms;
    }
    result.classes.push_back(std::move(link_class));
    ++ci;
  }
  result.loss_error = loss_err_den > 0.0 ? loss_err_num / loss_err_den : 0.0;
  result.delay_error =
      delay_err_den > 0.0 ? delay_err_num / delay_err_den : 0.0;

  // --- Stream summaries, packet-pair pass, push audit -------------------
  std::vector<double> capacity_errors;
  for (Stream& stream : mesh.streams) {
    TomographyStreamSummary summary;
    summary.src = stream.src;
    summary.dst = stream.dst;
    summary.sent = stream.next_seq;
    summary.received = stream.received;
    summary.loss_fraction =
        stream.loss.probes() > 0 ? stream.loss.loss_fraction() : 0.0;
    summary.mean_rtt_ms =
        stream.received > 0
            ? stream.rtt_sum_ms / static_cast<double>(stream.received)
            : 0.0;
    summary.bottleneck_true = Bandwidth::bps(stream.mu_true_bps);
    if (stream.pair.pairs() > 0) {  // else no back-to-back pair returned
      const analysis::BottleneckEstimate pair = stream.pair.estimate();
      summary.bottleneck_pair = Bandwidth::bps(pair.mu_bps);
      capacity_errors.push_back(
          std::abs(pair.mu_bps - stream.mu_true_bps) / stream.mu_true_bps);
    }
    result.stream_summaries.push_back(summary);

    // Push audit: every sent probe pushed once, in seq order, with the
    // gaps and the drain close-out pushed as losses.
    const double pushed = static_cast<double>(stream.loss.probes());
    result.audit_loss_mismatch =
        std::max(result.audit_loss_mismatch,
                 std::abs(pushed - static_cast<double>(stream.next_seq)));
    result.audit_summary_mismatch = std::max(
        result.audit_summary_mismatch,
        std::abs(pushed - static_cast<double>(stream.loss.losses()) -
                 static_cast<double>(stream.received)));
    result.audit_lindley_mismatch += static_cast<double>(stream.late_returns);
    result.audit_pair_late_returns += stream.pair.rejected();
  }
  result.capacity_error = median(std::move(capacity_errors));
  return result;
}

}  // namespace bolot::scenario
