// N x N network tomography over one generated topology (topology_gen.h).
//
// Every ordered pair of generated hosts runs a round-trip probe stream
// (probe out, echo back), all sharing the fabric and loading it with
// nothing but each other — so an H-host mesh drives H*(H-1) concurrent
// streams through the *streaming* estimators (analysis/streaming.h).  The
// mesh keeps per-stream state, never per-probe state: each stream's bank
// is one StreamingLossState (loss fraction for the inference and the
// gauges) plus its counters and rtt sum, and each rtt is taken from the
// timestamp the probe itself carries (ProbePayload::source_ts), as NetDyn
// does, so the sender keeps no table of outstanding probes.  Each echo
// return, and each gap of lost seqs before it, is pushed online in seq
// order; a return behind the pushed prefix (late or duplicate) is counted
// and never pushed.  No per-stream batch pass runs, during or after the
// run, and memory does not grow with the run's length.
//
// After the run, per-link loss and delay are inferred from the end-to-end
// streaming estimates alone by least squares over the routing matrix
// (analysis/linalg.h):
//
//   A x = b,  A[s][l] = times stream s crosses directed link l,
//             b[s]    = -log(1 - loss_fraction_s)   (loss pass)
//             b[s]    = mean rtt_s in ms            (delay pass)
//
// Round-trip probing makes some directed links indistinguishable — a
// host's up and down access links always appear with identical columns —
// so identical columns are merged into *link classes* first (the
// identifiability analysis is MODEL_NOTES section 17); the class sums are
// what least squares can and does recover, and what the result compares
// against simulator ground truth (configured per-link drop probabilities;
// per-link probe sojourns, delivery minus Packet::hop_start, collected by
// link-local delivery hooks).  A rank-deficient class system falls back to
// ridge regression (ridge_least_squares).
//
// A packet-pair dispersion pass rides along: every kMeshPairStride-th probe
// slot additionally emits two back-to-back probes on a side flow, and
// each stream's StreamingPacketPair recovers its round trip's bottleneck
// capacity from their return spacing.  The side flow's returns are
// pushed in seq order like the main flow's, the send time again read
// from the probe's source_ts; the estimator keeps one return spacing per
// pair (8 B per kMeshPairStride probes), the one state that grows with run
// length.
//
// tests/scenario/tomography_test.cpp gates inference error against mesh
// size and probe rate and pins determinism across PDES domain counts;
// tests/scenario/tomography_alloc_test.cpp pins heap growth with run
// length; bench/perf_ledger times the 18-host mesh.
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/topology_gen.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::scenario {

/// Probe flows of the mesh: stream s sends on kMeshFlowBase + s, its
/// packet-pair side flow on kMeshPairFlowBase + s.  Kept below 2^24 so the
/// packet-id convention id = (flow << 40) + seq cannot overflow.
inline constexpr std::uint32_t kMeshFlowBase = 0x400000;
inline constexpr std::uint32_t kMeshPairFlowBase = 0x800000;

/// Every kMeshPairStride-th probe slot also emits a back-to-back packet
/// pair on the side flow.  Pairs are then kMeshPairStride * delta apart,
/// which must exceed analysis::kPairSendGap so two pairs never chain into
/// one.
inline constexpr std::size_t kMeshPairStride = 16;

struct TomographySpec {
  /// Shared fabric; every generated host is a mesh endpoint.
  TopologySpec topology;
  Duration delta = Duration::millis(20);      // per-stream probe spacing
  Duration duration = Duration::seconds(30);  // probing window per stream
  std::uint64_t seed = 1993;

  /// Per-directed-link faulty-interface drop probability, drawn uniform in
  /// [drop_min, drop_max] from a per-link seeded stream (deterministic in
  /// link order, which is plan order).  These draws are the loss ground
  /// truth the inference is scored against.
  double drop_min = 0.01;
  double drop_max = 0.05;

  /// PDES domains, clamped into [1, the generator's partition hint count]
  /// (MODEL_NOTES §14); the mesh is the one scenario that shards.  The
  /// whole result, delay ground truth included, is domain-count-invariant.
  std::size_t domains = 1;
};

/// One probe stream of the mesh (ordered host pair, probed round trip).
struct TomographyStreamSummary {
  sim::NodeId src = 0;
  sim::NodeId dst = 0;
  std::size_t sent = 0;
  std::size_t received = 0;
  double loss_fraction = 0.0;
  double mean_rtt_ms = 0.0;             // over received probes
  Bandwidth bottleneck_true = Bandwidth::zero();  // min capacity, round trip
  Bandwidth bottleneck_pair = Bandwidth::zero();  // dispersion est; 0 = none
};

/// One identifiable class of directed links (identical routing-matrix
/// columns merged; x values are sums over members).
struct TomographyLinkClass {
  std::vector<std::uint32_t> links;  // directed link uids (Network order)
  /// Loss in -log(1 - p) units: true = sum over members of the configured
  /// drop probabilities; est = the least-squares recovery.
  double true_loss_sum = 0.0;
  double est_loss_sum = 0.0;
  /// Mean per-link probe sojourn in ms, summed over members.
  double true_delay_ms = 0.0;
  double est_delay_ms = 0.0;
};

struct TomographyResult {
  std::size_t hosts = 0;
  std::size_t streams = 0;
  std::size_t probed_links = 0;  // directed links crossed by >= 1 stream
  std::size_t link_classes = 0;
  bool ridge_used = false;

  std::vector<TomographyStreamSummary> stream_summaries;
  std::vector<TomographyLinkClass> classes;

  /// Aggregate relative L1 errors over classes:
  /// sum_c |est_c - true_c| / sum_c true_c.
  double loss_error = 0.0;
  double delay_error = 0.0;
  /// Median over streams of the packet-pair bottleneck's relative error.
  double capacity_error = 0.0;

  /// Push audit over every stream, from counters.  Each is 0.0 exactly
  /// when the mesh pushed every sent probe once, in seq order, with every
  /// gap and the post-drain close-out pushed as a loss; anything else is
  /// a push bookkeeping bug.
  ///   loss:    max over streams of |probes pushed - probes sent|;
  ///   summary: max over streams of |probes pushed - losses - received|;
  ///   lindley: total returns that arrived behind the pushed prefix (late
  ///            or duplicate), counted and not pushed.
  /// The fields keep the names the perf ledger gates them by.
  double audit_loss_mismatch = 0.0;
  double audit_summary_mismatch = 0.0;
  double audit_lindley_mismatch = 0.0;
  /// Pair returns that arrived at or behind their stream's last pushed
  /// pair seq (late or duplicate), counted and not pushed; 0 exactly when
  /// every pair return came back in seq order.
  std::size_t audit_pair_late_returns = 0;

  std::uint64_t events = 0;
  std::size_t domains_used = 1;
  Duration simulated;
};

/// Runs the mesh and the inference.  Deterministic: a spec maps to one
/// result, independent of PDES domain count.
TomographyResult run_tomography(const TomographySpec& spec);

}  // namespace bolot::scenario
