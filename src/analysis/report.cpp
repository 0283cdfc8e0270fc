#include "analysis/report.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/ar_model.h"
#include "analysis/arma_model.h"
#include "analysis/gamma_fit.h"
#include "analysis/histogram.h"
#include "analysis/lindley.h"
#include "analysis/loss.h"
#include "analysis/one_way.h"
#include "analysis/phase_plot.h"
#include "analysis/reorder.h"
#include "analysis/selfsimilar.h"
#include "analysis/stats.h"
#include "util/ascii_plot.h"
#include "util/table.h"

namespace bolot::analysis {

namespace {

/// Audio-FEC design target (residual loss) for the section-5 block.
constexpr double kFecTargetResidual = 0.01;
/// A compression cluster thinner than this share of the g_n samples is
/// not trusted for mu-hat.
constexpr double kTrustedClusterFraction = 0.02;
constexpr int kPlotWidth = 64;
constexpr int kPlotHeight = 20;

void overview_section(std::ostream& os, const ProbeTrace& trace) {
  os << "== Overview ==\n";
  TextTable table;
  table.row({"probes", std::to_string(trace.size())});
  table.row({"received", std::to_string(trace.received_count())});
  table.row({"probe interval (nominal)", trace.delta.to_string()});
  table.row({"probe wire size", std::to_string(trace.probe_wire_bytes) + " B"});
  table.row({"source clock tick", trace.clock_tick.is_zero()
                                      ? "exact"
                                      : trace.clock_tick.to_string()});
  table.print(os);
  os << '\n';
}

void delay_section(std::ostream& os, const ProbeTrace& trace,
                   std::span<const double> rtts,
                   const std::optional<BottleneckEstimate>& bottleneck) {
  os << "== Delay (section 4) ==\n";
  if (rtts.empty()) {
    os << "no probes received; nothing to report\n\n";
    return;
  }
  const Summary s = summarize(rtts);
  double median_ms = 0.0;
  double p95_ms = 0.0;
  {
    // One sorted copy for both quantiles, released before the plot.
    std::vector<double> sorted(rtts.begin(), rtts.end());
    std::sort(sorted.begin(), sorted.end());
    median_ms = sorted_quantile(sorted, 0.5);
    p95_ms = sorted_quantile(sorted, 0.95);
  }
  TextTable table;
  table.row({"min rtt (ms, ~D)", format_double(s.min, 3)});
  table.row({"median rtt (ms)", format_double(median_ms, 3)});
  table.row({"p95 rtt (ms)", format_double(p95_ms, 3)});
  table.row({"max rtt (ms)", format_double(s.max, 3)});
  table.row({"std dev (ms)", format_double(s.stddev, 3)});
  if (rtts.size() >= 2) {
    table.row({"interarrival jitter (ms, RFC 3550)",
               format_double(interarrival_jitter_ms(rtts), 3)});
  }
  table.print(os);

  try {
    const PhaseAnalysis phase = analyze_phase_plot(trace);
    TextTable geometry;
    if (phase.compression_intercept_ms) {
      geometry.row({"compression-line intercept (ms)",
                    format_double(*phase.compression_intercept_ms, 2)});
    }
    geometry.row(
        {"compression fraction", format_double(phase.compression_fraction, 3)});
    geometry.row(
        {"diagonal fraction", format_double(phase.diagonal_fraction, 3)});
    geometry.print(os);
  } catch (const std::exception&) {
    os << "phase geometry: not enough consecutive pairs\n";
  }

  if (!bottleneck) {
    os << "bottleneck mu-hat: no compression cluster at this delta\n";
  } else if (bottleneck->cluster_fraction >= kTrustedClusterFraction) {
    os << "bottleneck mu-hat: " << format_double(bottleneck->mu_bps / 1e3, 1)
       << " kb/s (service " << format_double(bottleneck->service_time_ms, 2)
       << " ms, cluster " << format_double(bottleneck->cluster_fraction, 3)
       << ")\n";
  } else {
    os << "bottleneck mu-hat: compression cluster too thin to trust\n";
  }

  if (rtts.size() >= 4) {
    const PhasePlot plot = build_phase_plot(trace);
    PlotOptions plot_options;
    plot_options.title = "phase plot";
    plot_options.x_label = "rtt_n (ms)";
    plot_options.y_label = "rtt_{n+1} (ms)";
    plot_options.width = kPlotWidth;
    plot_options.height = kPlotHeight;
    scatter_plot(os, plot.x, plot.y, plot_options);
  }
  os << '\n';
}

void workload_section(std::ostream& os, const ProbeTrace& trace,
                      const std::optional<BottleneckEstimate>& bottleneck,
                      const ReportOptions& options) {
  os << "== Cross-traffic workload (eq. 6) ==\n";
  double mu_bps = options.bottleneck_bps.value_or(0.0);
  if (mu_bps <= 0.0 && bottleneck &&
      bottleneck->cluster_fraction >= kTrustedClusterFraction) {
    mu_bps = bottleneck->mu_bps;
  }
  if (mu_bps <= 0.0) {
    os << "no bottleneck rate available (pass one in ReportOptions)\n\n";
    return;
  }
  try {
    WorkloadOptions workload_options;
    workload_options.bottleneck_bps = mu_bps;
    workload_options.bin_ms =
        std::max(1.0, trace.clock_tick.millis() / 2.0);
    const WorkloadAnalysis workload = analyze_workload(trace, workload_options);
    os << "inverting with mu = " << format_double(mu_bps / 1e3, 1)
       << " kb/s; busy-sample fraction "
       << format_double(workload.busy_sample_fraction, 3) << "\n";
    TextTable peaks;
    peaks.row({"peak(ms)", "mass", "b_n(bytes)", "cross packets"});
    for (const auto& peak : workload.peaks) {
      peaks.row({});
      peaks.cell(peak.position_ms, 1)
          .cell(peak.mass, 3)
          .cell(peak.workload_bits / 8.0, 0)
          .cell(peak.cross_packets ? format_double(*peak.cross_packets, 2)
                                   : std::string("-"));
    }
    peaks.print(os);
    PlotOptions plot_options;
    plot_options.title = "w_{n+1} - w_n + delta distribution";
    plot_options.x_label = "ms";
    plot_options.width = kPlotWidth;
    histogram_plot(os, workload.histogram.centers(),
                   workload.histogram.densities(), plot_options);
  } catch (const std::exception& error) {
    os << "workload analysis unavailable: " << error.what() << "\n";
  }
  os << '\n';
}

void loss_section(std::ostream& os, const ProbeTrace& trace) {
  os << "== Loss (section 5) ==\n";
  const auto losses = trace.loss_indicators();
  const LossStats stats = loss_stats(losses);
  TextTable table;
  table.row({"ulp", format_double(stats.ulp, 4)});
  table.row({"clp", format_double(stats.clp, 4)});
  table.row({"plg = 1/(1-clp)", format_double(stats.plg_from_clp, 2)});
  table.row({"mean loss burst", format_double(stats.mean_burst_length, 2)});
  table.print(os);

  if (stats.losses > 0 && stats.losses < stats.probes) {
    const GilbertFit gilbert = fit_gilbert(losses);
    os << "Gilbert fit: p = " << format_double(gilbert.p, 4)
       << ", q = " << format_double(gilbert.q, 4)
       << " (stationary loss " << format_double(gilbert.stationary_loss(), 4)
       << ")\n";
    os << "runs test z = " << format_double(loss_runs_test_z(losses), 1)
       << " (|z| < 2: losses consistent with random)\n";
    try {
      os << "loss/delay correlation = "
         << format_double(loss_delay_correlation(trace), 3) << "\n";
    } catch (const std::exception&) {
    }
    const FecPlan plan =
        design_fec(losses, kFecTargetResidual);
    os << "FEC design for residual <= "
       << format_double(kFecTargetResidual, 3) << ": ";
    if (plan.feasible) {
      os << "k = " << plan.k << " (residual "
         << format_double(plan.residual_loss, 4) << ")\n";
    } else {
      os << "infeasible within k <= 16\n";
    }
  } else if (stats.losses == 0) {
    os << "no losses observed\n";
  } else {
    os << "every probe lost — is the echo host reachable?\n";
  }
  os << '\n';
}

void structure_section(std::ostream& os, const ProbeTrace& trace) {
  os << "== Sequencing ==\n";
  try {
    const ReorderStats reorder = reorder_stats(trace);
    os << "overtakes: " << reorder.overtakes << "/"
       << reorder.comparable_pairs << " pairs ("
       << format_double(reorder.overtake_fraction, 4) << ")\n";
  } catch (const std::exception&) {
    os << "no consecutive received pairs\n";
  }
  try {
    const OneWayAnalysis one_way = analyze_one_way(trace);
    os << "one-way queueing split: "
       << format_double(one_way.outbound_queueing_share, 2)
       << " outbound / "
       << format_double(1.0 - one_way.outbound_queueing_share, 2)
       << " return (offset-free)\n";
  } catch (const std::exception&) {
    os << "one-way analysis: no echo timestamps\n";
  }
  os << '\n';
}

void models_section(std::ostream& os, std::span<const double> rtts) {
  os << "== Models (section 3 program) ==\n";
  if (rtts.size() < 200) {
    os << "series too short for model fitting\n\n";
    return;
  }
  try {
    const ArModel ar = fit_ar(rtts, 1);
    os << "AR(1): phi = " << format_double(ar.coefficients[0], 3)
       << ", one-step R^2 = " << format_double(ar_r_squared(ar, rtts), 3)
       << "\n";
    const ArOrderSelection selection = select_ar_order(rtts, 6);
    os << "AIC-selected AR order: " << selection.best_order << "\n";
  } catch (const std::exception&) {
    os << "AR fit unavailable (constant series?)\n";
  }
  try {
    const ArmaModel arma = fit_arma(rtts, 1, 1);
    os << "ARMA(1,1): phi = " << format_double(arma.ar[0], 3)
       << ", theta = " << format_double(arma.ma[0], 3)
       << ", R^2 = " << format_double(arma_r_squared(arma, rtts), 3) << "\n";
  } catch (const std::exception&) {
    os << "ARMA fit unavailable\n";
  }
  if (rtts.size() >= 4096) {
    try {
      const HurstEstimate hurst = hurst_variance_time(rtts);
      os << "Hurst (variance-time): " << format_double(hurst.hurst, 2)
         << " over " << hurst.scales << " scales\n";
    } catch (const std::exception&) {
    }
  }
  try {
    const ConstantPlusGamma gamma = fit_constant_plus_gamma(rtts);
    os << "constant+gamma: D = " << format_double(gamma.constant, 1)
       << " ms, k = " << format_double(gamma.shape, 2)
       << ", theta = " << format_double(gamma.scale, 2)
       << ", KS = " << format_double(ks_statistic(gamma, rtts), 3) << "\n";
  } catch (const std::exception&) {
    os << "gamma fit unavailable\n";
  }
  os << '\n';
}

}  // namespace

std::string full_report(const ProbeTrace& trace, const ReportOptions& options) {
  if (trace.records.empty()) {
    throw std::invalid_argument("full_report: empty trace");
  }
  if (options.bottleneck_bps &&
      !(std::isfinite(*options.bottleneck_bps) &&
        *options.bottleneck_bps > 0.0)) {
    throw std::invalid_argument(
        "full_report: bottleneck_bps must be finite and positive");
  }
  // The one rtt vector the report holds, shared by the delay and model
  // sections.  The other sections fold over trace.records; the loss
  // section alone keeps a per-probe column, of 1-byte indicators.
  const std::vector<double> rtts = trace.rtt_ms_received();
  // The delay section prints mu-hat and the workload section inverts
  // eq. 6 with it; both read this one estimate.
  std::optional<BottleneckEstimate> bottleneck;
  try {
    bottleneck = estimate_bottleneck(trace);
  } catch (const std::exception&) {
  }
  std::ostringstream os;
  overview_section(os, trace);
  delay_section(os, trace, rtts, bottleneck);
  workload_section(os, trace, bottleneck, options);
  loss_section(os, trace);
  structure_section(os, trace);
  models_section(os, rtts);
  return os.str();
}

}  // namespace bolot::analysis
