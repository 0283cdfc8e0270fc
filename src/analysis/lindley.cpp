#include "analysis/lindley.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "analysis/phase_plot.h"
#include "analysis/streaming.h"

namespace bolot::analysis {

namespace {

/// analyze_workload and estimate_bottleneck report an unordered trace
/// under the name of the g_n walk they share.
constexpr const char* kSamplesCaller = "workload_samples_ms";
/// Reference cross-traffic packet for labeling workload peaks (the paper
/// identifies ~488-byte FTP packets): 512 bytes.
constexpr double kReferencePacketBits = 512 * 8;
/// A workload peak holds at least this share of the g_n samples.
constexpr double kWorkloadPeakMass = 0.01;

/// Calls visit(g_n) for every g_n = rtt_{n+1} - rtt_n + delta, in order.
template <typename Visit>
void for_each_workload_sample(const ProbeTrace& trace, Visit&& visit) {
  const double delta_ms = trace.delta.millis();
  for_each_received_pair(trace, [&](double rtt_n, double rtt_next) {
    visit(rtt_next - rtt_n + delta_ms);
  });
}

/// The workload histogram's bin count, after the checks the two fields it
/// is sized from need: a zero bin would turn the count into +inf, whose
/// conversion to std::size_t is undefined.
std::size_t workload_bins(double bin_ms, double max_ms) {
  if (!(std::isfinite(bin_ms) && bin_ms > 0.0)) {
    throw std::invalid_argument(
        "analyze_workload: bin_ms must be finite and positive");
  }
  if (!std::isfinite(max_ms)) {
    throw std::invalid_argument("analyze_workload: max_ms must be finite");
  }
  return static_cast<std::size_t>(std::max(8.0, std::ceil(max_ms / bin_ms)));
}

}  // namespace

std::vector<double> workload_samples_ms(const ProbeTrace& trace) {
  validate_probe_order(trace, kSamplesCaller);
  std::vector<double> samples;
  for_each_workload_sample(trace, [&samples](double g) { samples.push_back(g); });
  return samples;
}

WorkloadAnalysis analyze_workload(const ProbeTrace& trace,
                                  const WorkloadOptions& options) {
  // NaN fails every comparison, and an infinite mu makes every workload
  // infinite: either would be a plausible wrong histogram.
  if (!(options.bottleneck_bps > 0.0 &&
        std::isfinite(options.bottleneck_bps))) {
    throw std::invalid_argument(
        "analyze_workload: mu must be finite and positive");
  }
  // Pre-pass: validates the order, rejects a pairless trace, and sizes
  // the auto edge; the second pass histograms the g_n.
  validate_probe_order(trace, kSamplesCaller);
  std::size_t samples = 0;
  double max_g = 0.0;
  for_each_workload_sample(trace, [&](double g) {
    ++samples;
    max_g = std::max(max_g, g);
  });
  if (samples == 0) {
    throw std::invalid_argument("analyze_workload: no consecutive pairs");
  }
  const double delta_ms = trace.delta.millis();
  // The edge is used as resolved (a Duration round trip would round an
  // auto-sized edge to whole nanoseconds and move the bins).
  const double max_ms = options.max_ms <= 0.0
                            ? std::max(max_g * 1.05, delta_ms * 2.0)
                            : options.max_ms;
  WorkloadAnalysis result{
      Histogram(0.0, max_ms, workload_bins(options.bin_ms, max_ms)), {}, 0.0,
      0.0};
  const double mu_bits_per_ms = options.bottleneck_bps * 1e-3;
  const double probe_bits = static_cast<double>(trace.probe_wire_bytes * 8);
  std::size_t busy = 0;
  double busy_bits_sum = 0.0;
  for_each_workload_sample(trace, [&](double g) {
    result.histogram.add(g);
    // Eq. (6): the busy-period workload b_n = mu * g_n - P, averaged over
    // the samples where the busy-server assumption holds (b_n > 0).
    const double b = mu_bits_per_ms * g - probe_bits;
    if (b > 0.0) {
      busy_bits_sum += b;
      ++busy;
    }
  });

  const double service_ms = probe_bits / mu_bits_per_ms;  // P/mu in ms
  // A peak is the compression (P/mu) or idle (delta) peak only if its
  // *bin* covers that value, i.e. the center lies within half a bin of
  // it; a full bin's tolerance would swallow the adjacent-bin peaks too.
  const double half_bin = 0.5 * result.histogram.bin_width();
  for (const HistogramPeak& peak :
       result.histogram.find_peaks(kWorkloadPeakMass, 2)) {
    WorkloadPeak wp;
    wp.position_ms = peak.center;
    wp.mass = peak.mass;
    wp.workload_bits =
        std::max(0.0, mu_bits_per_ms * peak.center - probe_bits);
    const bool is_compression =
        std::abs(peak.center - service_ms) <= half_bin;
    const bool is_idle = std::abs(peak.center - delta_ms) <= half_bin;
    // Every other peak is labeled as k reference packets.
    if (!is_compression && !is_idle && wp.workload_bits > 0.0) {
      wp.cross_packets = wp.workload_bits / kReferencePacketBits;
    }
    result.peaks.push_back(wp);
  }
  result.mean_workload_bits =
      busy > 0 ? busy_bits_sum / static_cast<double>(busy) : 0.0;
  result.busy_sample_fraction =
      static_cast<double>(busy) / static_cast<double>(samples);
  return result;
}

BottleneckEstimate estimate_bottleneck(const ProbeTrace& trace) {
  // Exact clocks: the modal bin of a histogram this fine, and a peak must
  // hold this share of the samples below search_hi.
  constexpr double kBinMs = 0.25;
  constexpr double kMinPeakMass = 0.02;
  validate_probe_order(trace, kSamplesCaller);
  const double delta_ms = trace.delta.millis();
  const double tick_ms = trace.clock_tick.millis();
  // The compression cluster must sit clearly left of the idle peak at
  // delta.
  const double search_hi = 0.75 * delta_ms;
  std::size_t samples = 0;
  std::size_t below_search_hi = 0;
  for_each_workload_sample(trace, [&](double g) {
    ++samples;
    if (g > 0.0 && g < search_hi) ++below_search_hi;
  });
  if (samples == 0) {
    throw std::invalid_argument("estimate_bottleneck: no consecutive pairs");
  }

  double lower = 0.0;
  double upper = 0.0;
  if (tick_ms > 0.0) {
    // Quantized clocks spread a point mass over exactly two adjacent tick
    // values; the pure-compression samples (nothing interleaved between
    // two queued probes) repeat exactly, while contaminated samples
    // scatter to other ticks.  Find the adjacent tick pair with maximal
    // combined count and average just those samples — this stays robust
    // as delta grows and interleaving becomes common.  The values are
    // discrete, so they are counted at microsecond resolution, not binned.
    if (below_search_hi == 0) {
      throw std::runtime_error(
          "estimate_bottleneck: no compression cluster (delta too large or "
          "path uncongested)");
    }
    std::vector<std::int64_t> keys;
    keys.reserve(below_search_hi);
    for_each_workload_sample(trace, [&](double g) {
      if (g > 0.0 && g < search_hi) {
        keys.push_back(static_cast<std::int64_t>(std::llround(g * 1e3)));
      }
    });
    const auto tick_us = static_cast<std::int64_t>(std::llround(tick_ms * 1e3));
    const detail::TickPair best =
        detail::heaviest_adjacent_ticks(std::move(keys), tick_us);
    lower = static_cast<double>(best.key) * 1e-3 - 1e-3;
    upper = static_cast<double>(best.key + tick_us) * 1e-3 + 1e-3;
  } else {
    // Exact clocks: pure-compression samples coincide at P/mu, so a fine
    // histogram's modal bin nails the cluster.
    Histogram hist(0.0, search_hi,
                   static_cast<std::size_t>(
                       std::max(4.0, std::ceil(search_hi / kBinMs))));
    for_each_workload_sample(trace, [&](double g) {
      if (g > 0.0 && g < search_hi) hist.add(g);
    });
    const auto peaks = hist.find_peaks(kMinPeakMass, 2);
    const HistogramPeak* dominant = nullptr;
    for (const auto& peak : peaks) {
      if (dominant == nullptr || peak.mass > dominant->mass) dominant = &peak;
    }
    if (dominant == nullptr) {
      throw std::runtime_error(
          "estimate_bottleneck: no compression cluster (delta too large or "
          "path uncongested)");
    }
    lower = dominant->center - hist.bin_width();
    upper = dominant->center + hist.bin_width();
  }

  double sum = 0.0;
  std::size_t count = 0;
  for_each_workload_sample(trace, [&](double g) {
    if (g > lower && g <= upper) {
      sum += g;
      ++count;
    }
  });
  if (count == 0) {
    throw std::runtime_error("estimate_bottleneck: empty cluster");
  }
  BottleneckEstimate estimate;
  estimate.service_time_ms = sum / static_cast<double>(count);
  estimate.mu_bps = static_cast<double>(trace.probe_wire_bytes * 8) /
                    (estimate.service_time_ms * 1e-3);
  estimate.cluster_samples = count;
  estimate.cluster_fraction =
      static_cast<double>(count) / static_cast<double>(samples);
  return estimate;
}

BottleneckEstimate estimate_bottleneck_packet_pair(const ProbeTrace& trace) {
  // The index is the seq: the pairs are adjacent records, and
  // validate_probe_order has already ruled out late and duplicate ones.
  const auto& records = trace.records;
  StreamingPacketPair core(ByteSize::bytes(trace.probe_wire_bytes),
                           records.size());
  validate_probe_order(trace, "estimate_bottleneck_packet_pair");
  for (std::size_t n = 0; n < records.size(); ++n) {
    if (!records[n].received) continue;
    core.push(n, records[n].send_time,
              records[n].send_time + records[n].rtt);
  }
  return core.estimate();
}

}  // namespace bolot::analysis
