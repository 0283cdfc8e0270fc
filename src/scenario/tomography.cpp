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

#include "analysis/linalg.h"
#include "analysis/stats.h"
#include "analysis/streaming.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "scenario/build.h"

namespace bolot::scenario {

namespace {

constexpr Duration kMeshWarmup = Duration::seconds(2);
constexpr Duration kMeshDrain = Duration::seconds(2);

/// One round-trip probe stream with its online estimator bank: the
/// estimators the inference, the gauges and the audit read, nothing more.
struct Stream {
  Stream(sim::NodeId src_node, sim::NodeId dst_node, std::uint64_t probes,
         const analysis::StreamingLindleyConfig& lindley_config)
      : src(src_node),
        dst(dst_node),
        probe_count(probes),
        lindley(lindley_config) {}

  sim::NodeId src;
  sim::NodeId dst;
  std::uint64_t probe_count;
  std::uint64_t next_seq = 0;       // probes sent
  std::uint64_t pushed = 0;         // seq prefix pushed into the estimators
  std::uint64_t received = 0;
  std::uint64_t pair_next_seq = 0;  // records in pair_trace
  double rtt_sum_ms = 0.0;
  double mu_true_bps = 0.0;              // min capacity over the round trip
  std::vector<std::uint32_t> round_trip;  // directed link uids

  analysis::StreamingLossState loss;
  analysis::StreamingLindley lindley;
  analysis::StreamingSummary rtt_summary;  // ms, 0 for a lost probe
  // Retained traces: the post-run push audit and the packet-pair
  // dispersion pass read these.
  analysis::ProbeTrace trace;
  analysis::ProbeTrace pair_trace;

  /// Pushes seqs [pushed, upto) as lost, in order, into every estimator.
  void push_gap_losses(std::uint64_t upto) {
    while (pushed < upto) {
      loss.push_lost(true);
      lindley.push_lost();
      rtt_summary.push(0.0);
      ++pushed;
    }
  }

  /// Pushes the next seq as received into every estimator.
  void push_received(Duration rtt) {
    loss.push_lost(false);
    lindley.push_received(rtt);
    rtt_summary.push(rtt.millis());
    ++pushed;
  }
};

/// Shared mesh state: the streams plus the routing info receivers need.
struct MeshState {
  std::vector<Stream> streams;

  void record_return(const sim::Packet& p, SimTime now) {
    const std::uint64_t seq = p.probe().seq;
    if (p.flow >= kMeshPairFlowBase) {
      Stream& stream = streams.at(p.flow - kMeshPairFlowBase);
      auto& record = stream.pair_trace.records.at(seq);
      record.received = true;
      record.rtt = now - record.send_time;
      record.echo_time = p.probe().echo_ts;
      return;
    }
    Stream& stream = streams.at(p.flow - kMeshFlowBase);
    auto& record = stream.trace.records.at(seq);
    record.received = true;
    record.rtt = now - record.send_time;
    record.echo_time = p.probe().echo_ts;
    // Echoes of one stream cannot overtake each other (FIFO links, fixed
    // routes, equal sizes), so arrival order is seq order: everything
    // between the last pushed seq and this one was dropped.
    stream.push_gap_losses(seq);
    stream.push_received(record.rtt);
    ++stream.received;
    stream.rtt_sum_ms += record.rtt.millis();
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
    SIM_TRACE("mesh.probe.send");

    const std::uint64_t seq = stream.next_seq++;
    analysis::ProbeRecord record;
    record.seq = seq;
    record.send_time = sim_.now();
    stream.trace.records.push_back(record);
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
      analysis::ProbeRecord record;
      record.seq = stream.pair_next_seq;
      record.send_time = sim_.now();
      stream.pair_trace.records.push_back(record);
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
    p.created = sim_.now();
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
    SIM_TRACE("mesh.probe.echo");
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
/// sojourn at a link is its delivery time there minus its delivery time at
/// the previous link of its path (its creation time at the first hop).
/// `last` threads that previous time through, one entry per main-flow
/// probe at stream × probes_per_stream + seq (a probe's id is
/// (kMeshFlowBase + stream) << 40 | seq, so the index is its id made
/// dense).  kNoHop marks a probe with no delivery yet; the return to the
/// source writes it back.  The writes from every link's hook into one
/// table are why these hooks only attach on the sequential kernel.
struct DelayTruth {
  static constexpr SimTime kNoHop = SimTime::max();

  std::vector<double> sum_ms;
  std::vector<std::uint64_t> count;
  std::vector<SimTime> last;
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
  const TopologyPlan topo = generate_topology(spec.topology);
  if (topo.hosts.size() < 2) {
    throw std::invalid_argument("run_tomography: need at least two hosts");
  }

  detail::ScenarioBuild build(topo, spec.domains,
                              spec.obs_sample_interval.has_value(), spec.seed);
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
    delay_truth.last.assign(stream_count * probes_per_stream,
                            DelayTruth::kNoHop);
    for (std::size_t i = 0; i < net.link_count(); ++i) {
      const std::uint32_t uid = static_cast<std::uint32_t>(i);
      const sim::NodeId target = net.link_target(i);
      net.link_at(i).add_delivery_hook([gt = &delay_truth, uid, target,
                                        probes_per_stream](
                                           const sim::Packet& p, SimTime at) {
        // Main-flow probes only: pair followers queue behind their leader
        // by construction, which would bias the sojourn mean.
        if (p.kind != sim::PacketKind::kProbe || p.flow < kMeshFlowBase ||
            p.flow >= kMeshPairFlowBase) {
          return;
        }
        SimTime& last =
            gt->last[(p.flow - kMeshFlowBase) * probes_per_stream +
                     p.probe().seq];
        const SimTime from = last == DelayTruth::kNoHop ? p.created : last;
        gt->sum_ms[uid] += (at - from).millis();
        ++gt->count[uid];
        last = p.probe().echoed && p.dst == target ? DelayTruth::kNoHop : at;
      });
    }
  }

  // --- Optional fluid background (all flows folded; no packetized zone) -
  std::optional<detail::FluidBackground> background;
  if (spec.fluid_background) {
    background.emplace(*spec.fluid_background, build, std::vector<bool>{});
  }

  // --- Streams: every ordered host pair, round-trip probed --------------
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

      analysis::StreamingLindleyConfig lindley_config;
      lindley_config.delta = spec.delta;
      lindley_config.probe_wire = spec.probe_wire;
      lindley_config.bottleneck = Bandwidth::bps(mu);
      lindley_config.max = spec.lindley_max;

      Stream stream(src, dst, probes_per_stream, lindley_config);
      stream.mu_true_bps = mu;
      stream.round_trip = std::move(round_trip);
      stream.trace.delta = spec.delta;
      stream.trace.probe_wire_bytes = spec.probe_wire.count();
      stream.trace.records.reserve(probes_per_stream);
      stream.pair_trace.delta = spec.delta;
      stream.pair_trace.probe_wire_bytes = spec.probe_wire.count();
      if (spec.pair_stride > 0) {
        stream.pair_trace.records.reserve(
            2 * (probes_per_stream / spec.pair_stride + 1));
      }
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

  // --- Observability: mesh-aggregate gauges off the online accessors ----
  std::optional<obs::Sampler> sampler;
  if (spec.obs_sample_interval) {  // sampling keeps one simulator
    sampler.emplace(build.sim_for(topo.hosts.front()),
                    *spec.obs_sample_interval, spec.obs_series_budget);
    MeshState* m = &mesh;
    sampler->add_series("mesh.received_total", [m] {
      double total = 0.0;
      for (const Stream& s : m->streams) {
        total += static_cast<double>(s.received);
      }
      return total;
    });
    sampler->add_series("mesh.loss_fraction_mean", [m] {
      double sum = 0.0;
      std::size_t active = 0;
      for (const Stream& s : m->streams) {
        if (s.loss.probes() > 0) {
          sum += s.loss.loss_fraction();
          ++active;
        }
      }
      return active > 0 ? sum / static_cast<double>(active) : 0.0;
    });
    sampler->add_series("mesh.rtt_ms_mean", [m] {
      double sum = 0.0;
      std::size_t active = 0;
      for (const Stream& s : m->streams) {
        if (s.received > 0) {
          sum += s.rtt_sum_ms / static_cast<double>(s.received);
          ++active;
        }
      }
      return active > 0 ? sum / static_cast<double>(active) : 0.0;
    });
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
  if (sampler) sampler->start(kMeshWarmup);

  const Duration end = kMeshWarmup + spec.duration + kMeshDrain;
  build.run_until(end);
  if (sampler) sampler->stop();

  // Probes sent but never returned are lost; close every stream's push
  // prefix so streaming state covers the full trace.
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
  if (sampler) result.series = sampler->snapshot();

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
      est_loss = analysis::ridge_least_squares(a, b_loss, spec.ridge_lambda);
      est_delay = analysis::ridge_least_squares(a, b_delay, spec.ridge_lambda);
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
  for (const Stream& stream : mesh.streams) {
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
    if (stream.pair_trace.received_count() >= 2) {
      try {
        const analysis::BottleneckEstimate pair =
            analysis::estimate_bottleneck_packet_pair(stream.pair_trace, {});
        summary.bottleneck_pair = Bandwidth::bps(pair.mu_bps);
        capacity_errors.push_back(
            std::abs(pair.mu_bps - stream.mu_true_bps) / stream.mu_true_bps);
      } catch (const std::exception&) {
        // No usable back-to-back pair returned on this stream.
      }
    }
    result.stream_summaries.push_back(summary);

    // Audit: the batch entry points re-fold the retained trace through
    // the same cores, so any mismatch with the online state is the mesh's
    // push bookkeeping (arrival order vs seq order, gap losses, the drain
    // close-out), not the estimators.
    if (stream.next_seq > 0) {
      const analysis::LossStats batch = analysis::loss_stats(stream.trace);
      const analysis::LossStats online = stream.loss.stats();
      result.audit_loss_mismatch = std::max(
          {result.audit_loss_mismatch, std::abs(batch.ulp - online.ulp),
           std::abs(batch.clp - online.clp),
           std::abs(batch.mean_burst_length - online.mean_burst_length)});

      const analysis::Summary batch_summary =
          analysis::summarize(stream.trace.rtt_ms_with_losses());
      const analysis::Summary online_summary = stream.rtt_summary.summary();
      result.audit_summary_mismatch =
          std::max({result.audit_summary_mismatch,
                    std::abs(batch_summary.mean - online_summary.mean),
                    std::abs(batch_summary.variance - online_summary.variance)});

      if (stream.lindley.samples() > 0) {
        analysis::WorkloadOptions workload_options;
        workload_options.bottleneck_bps = stream.mu_true_bps;
        workload_options.max_ms = spec.lindley_max.millis();
        const analysis::WorkloadAnalysis batch_workload =
            analysis::analyze_workload(stream.trace, workload_options);
        const analysis::WorkloadAnalysis online_workload =
            stream.lindley.analysis();
        result.audit_lindley_mismatch =
            std::max({result.audit_lindley_mismatch,
                      std::abs(batch_workload.mean_workload_bits -
                               online_workload.mean_workload_bits),
                      std::abs(batch_workload.busy_sample_fraction -
                               online_workload.busy_sample_fraction)});
      }
    }
  }
  result.capacity_error = median(std::move(capacity_errors));
  return result;
}

}  // namespace bolot::scenario
