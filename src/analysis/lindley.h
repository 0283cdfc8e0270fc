// Lindley's recurrence and the paper's eq. (6) workload estimator.
//
// Section 4 derives, by two applications of Lindley's recurrence to the
// Fig.-3 queue, that while the bottleneck stays busy
//     b_n = mu * (w_{n+1} - w_n + delta) - P            (eq. 6)
// so the distribution of the cross-traffic workload per probe interval can
// be read off the distribution of w_{n+1} - w_n + delta, which itself
// equals rtt_{n+1} - rtt_n + delta (D and P/mu cancel in the difference).
#pragma once

#include <optional>
#include <vector>

#include "analysis/histogram.h"
#include "analysis/probe_trace.h"
#include "util/time.h"

namespace bolot::analysis {

/// The g_n = rtt_{n+1} - rtt_n + delta samples (milliseconds) over pairs of
/// consecutively received probes.  By eq. (6) these are the per-interval
/// workload (b_n + P) / mu while the queue is busy; g_n is also the probe
/// interarrival time back at the source.
std::vector<double> workload_samples_ms(const ProbeTrace& trace);

struct WorkloadPeak {
  double position_ms = 0.0;   // peak center in the g_n distribution
  double mass = 0.0;          // fraction of samples in the peak bin
  double workload_bits = 0.0; // b_n = mu * g - P implied by the position
  /// Multiples of the reference cross-traffic packet (e.g. 1 FTP packet,
  /// 2 FTP packets); unset for the compression (P/mu) and idle (delta)
  /// peaks.
  std::optional<double> cross_packets;
};

struct WorkloadAnalysis {
  Histogram histogram;            // of g_n, in ms
  std::vector<WorkloadPeak> peaks;
  double mean_workload_bits = 0.0;   // average of b_n over busy samples
  /// Fraction of samples with implied b_n > 0, i.e. for which the
  /// busy-server assumption behind eq. (6) is self-consistent.
  double busy_sample_fraction = 0.0;
};

struct WorkloadOptions {
  double bottleneck_bps = 128e3;   // mu used to invert eq. (6)
  double bin_ms = 1.0;
  double max_ms = 0.0;             // histogram upper edge; 0 -> auto
};

/// Builds the Fig.-8/9 distribution and decodes its peaks in two passes
/// over the g_n: the first sizes the histogram edge when options.max_ms
/// is 0, the second fills the histogram and the busy-sample sum.  Throws
/// std::invalid_argument naming the field when bin_ms is not finite and
/// positive or max_ms is negative or not finite.
WorkloadAnalysis analyze_workload(const ProbeTrace& trace,
                                  const WorkloadOptions& options = {});

/// Bottleneck bandwidth estimated from the *compression peak*: by eq. (3),
/// probes that accumulated back-to-back behind cross traffic return spaced
/// g = P/mu apart, so the leftmost cluster of the g_n distribution sits at
/// the probe service time; larger spacings carry interleaved cross
/// traffic.  This estimator needs no prior mu (unlike analyze_workload),
/// and analyze_phase_plot derives the compression-line intercept
/// delta - P/mu of the paper's Fig. 2 from it.
struct BottleneckEstimate {
  double service_time_ms = 0.0;  // centroid of the compression cluster
  double mu_bps = 0.0;           // probe_wire_bits / service_time
  std::size_t cluster_samples = 0;
  double cluster_fraction = 0.0;  // share of all g_n samples in the cluster
};

/// The cluster is the leftmost one, among the g_n in (-tick, 0.75 delta),
/// that holds at least 1 % of all g_n: the first histogram peak over
/// 0.25 ms bins on an exact clock, the first adjacent tick pair on a
/// quantized one (a floored g_n is off by less than a tick, so a service
/// time below one tick may read as g_n <= 0).  The service time is the
/// mean of the g_n within one bin of that peak, or within 1 us of that
/// pair.  Throws std::runtime_error if no compression cluster exists (e.g.
/// delta so large that probes never queue together, as in the paper's
/// Fig. 4 regime) or its mean is not positive.  Folds over the g_n without
/// storing them; on quantized clocks it holds one key per g_n in the
/// search range.
BottleneckEstimate estimate_bottleneck(const ProbeTrace& trace);

/// Packet-pair bottleneck estimation (Keshav 1991; Keshav is acknowledged
/// in the paper).  Probes sent back to back are forced into adjacent
/// service slots at the bottleneck, so their *return* spacing equals
/// P/mu regardless of delta — active compression rather than waiting for
/// cross traffic to cause it.  Send pairs with
/// ProbeSourceConfig::interval_sampler alternating a tiny gap and a long
/// one; this estimator collects the pairs whose send gap is at most
/// kPairSendGap and takes the median return spacing.
inline constexpr Duration kPairSendGap = Duration::micros(500);

/// Pairs whose return spacing exceeds 1.5 x the median are counted as
/// interleaved (reported via cluster_fraction); the cluster always holds
/// at least the median spacing.  Throws std::invalid_argument when no
/// back-to-back pair was received.
BottleneckEstimate estimate_bottleneck_packet_pair(const ProbeTrace& trace);

}  // namespace bolot::analysis
