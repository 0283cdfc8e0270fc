// Tomography-mesh baseline: N x N round-trip probing over one generated
// fabric, per-link loss/delay inferred from end-to-end *streaming*
// estimates (scenario/tomography.h), plus a raw throughput kernel for the
// streaming estimator bank itself.
//
// Row families:
//
//   mesh_h{H}_d{D}   run_tomography on an AS-hierarchy fabric with H
//                    hosts (H*(H-1) concurrent streams) probing every
//                    D ms.  Columns: inference errors (loss, delay,
//                    packet-pair capacity), link classes, events.  The
//                    exit code enforces the acceptance gates: loss
//                    inference within 10% of ground truth on every row
//                    and a zero push audit (TomographyResult::audit_*).
//   stream_n{N}      synthetic throughput kernel: N concurrent streaming
//                    estimator banks (loss + Lindley + phase + autocorr)
//                    fed round-robin — the push pattern of N live
//                    streams — measuring pushes/s (streams x samples /
//                    wall).  N >= 10^4 demonstrates the mesh's online
//                    analysis scale.
//
// Emits BENCH_tomography.{json,csv} (runner/sweep_io convention) into
// --out DIR; CI runs --quick and feeds the JSON to tools/bench_diff.py.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/streaming.h"
#include "runner/sweep.h"
#include "runner/sweep_cli.h"
#include "runner/sweep_io.h"
#include "scenario/tomography.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace bolot;

using Clock = std::chrono::steady_clock;

scenario::TomographySpec mesh_spec(std::size_t hosts, double delta_ms,
                                   std::uint64_t seed) {
  scenario::TomographySpec spec;
  spec.topology.family = scenario::TopologySpec::Family::kAsHierarchy;
  spec.topology.peer_links = 0;
  spec.topology.seed = 7;
  if (hosts == 4) {
    spec.topology.core_count = 2;
    spec.topology.stubs_per_core = 2;
    spec.topology.hosts_per_stub = 1;
  } else if (hosts == 8) {
    spec.topology.core_count = 2;
    spec.topology.stubs_per_core = 2;
    spec.topology.hosts_per_stub = 2;
  } else if (hosts == 18) {
    spec.topology.core_count = 2;
    spec.topology.stubs_per_core = 3;
    spec.topology.hosts_per_stub = 3;
  } else {
    throw std::invalid_argument("mesh_spec: unsupported host count");
  }
  spec.delta = Duration::millis(delta_ms);
  spec.duration = Duration::seconds(40);
  spec.drop_min = 0.02;
  spec.drop_max = 0.05;
  spec.seed = seed;
  return spec;
}

std::vector<runner::Metric> mesh_metrics(
    const scenario::TomographyResult& result, double wall_seconds) {
  std::vector<runner::Metric> metrics;
  metrics.push_back({"hosts", static_cast<double>(result.hosts)});
  metrics.push_back({"streams", static_cast<double>(result.streams)});
  metrics.push_back(
      {"probed_links", static_cast<double>(result.probed_links)});
  metrics.push_back(
      {"link_classes", static_cast<double>(result.link_classes)});
  metrics.push_back({"loss_error", result.loss_error});
  metrics.push_back({"delay_error", result.delay_error});
  metrics.push_back({"capacity_error", result.capacity_error});
  metrics.push_back({"audit_loss_mismatch", result.audit_loss_mismatch});
  metrics.push_back(
      {"audit_summary_mismatch", result.audit_summary_mismatch});
  metrics.push_back(
      {"audit_lindley_mismatch", result.audit_lindley_mismatch});
  metrics.push_back({"ridge_used", result.ridge_used ? 1.0 : 0.0});
  metrics.push_back({"events", static_cast<double>(result.events)});
  metrics.push_back({"kernel_wall_seconds", wall_seconds});
  return metrics;
}

/// All four streaming estimators on one stream: a superset of the mesh's
/// own bank (which keeps only the loss state, the Lindley inversion and an
/// rtt summary), so the kernel measures the full per-push cost.
struct StreamBank {
  StreamBank(const analysis::StreamingLindleyConfig& lindley_config,
             const analysis::StreamingPhaseFitConfig& phase_config,
             std::size_t max_lag)
      : lindley(lindley_config), phase(phase_config), autocorr(max_lag) {}

  analysis::StreamingLossState loss;
  analysis::StreamingLindley lindley;
  analysis::StreamingPhaseFit phase;
  analysis::StreamingAutocorr autocorr;

  void push(Duration rtt) {
    loss.push(rtt);
    lindley.push(rtt);
    phase.push(rtt);
    autocorr.push(rtt);
  }
};

std::vector<runner::Metric> run_throughput(std::size_t streams,
                                           std::size_t samples_per_stream,
                                           std::uint64_t seed) {
  analysis::StreamingLindleyConfig lindley_config;
  lindley_config.delta = Duration::millis(20);
  lindley_config.probe_wire = ByteSize::bytes(72);
  lindley_config.bottleneck = Bandwidth::mbps(1);
  lindley_config.max = Duration::millis(200);
  analysis::StreamingPhaseFitConfig phase_config;
  phase_config.delta = Duration::millis(20);
  phase_config.probe_wire = ByteSize::bytes(72);
  phase_config.clock_tick = Duration::zero();

  std::vector<StreamBank> banks;
  banks.reserve(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    banks.emplace_back(lindley_config, phase_config, 16);
  }

  // Round-robin pushes — the arrival pattern of `streams` live probe
  // streams being analyzed online in one process.
  Rng rng(seed);
  const auto start = Clock::now();
  std::uint64_t pushes = 0;
  for (std::size_t k = 0; k < samples_per_stream; ++k) {
    for (StreamBank& bank : banks) {
      Duration rtt = Duration::zero();  // 2% losses
      if (!rng.chance(0.02)) {
        rtt = Duration::millis(40.0 + rng.uniform(0.0, 15.0));
      }
      bank.push(rtt);
      ++pushes;
    }
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Keep the work observable (and sanity-check one bank's state).
  double loss_sum = 0.0;
  for (const StreamBank& bank : banks) loss_sum += bank.loss.loss_fraction();

  std::vector<runner::Metric> metrics;
  metrics.push_back({"streams", static_cast<double>(streams)});
  metrics.push_back(
      {"samples_per_stream", static_cast<double>(samples_per_stream)});
  metrics.push_back({"pushes", static_cast<double>(pushes)});
  metrics.push_back({"mean_loss_fraction",
                     loss_sum / static_cast<double>(streams)});
  metrics.push_back({"kernel_wall_seconds", wall});
  if (wall >= 0.1) {
    metrics.push_back(
        {"pushes_per_sec", static_cast<double>(pushes) / wall});
  }
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  // parse_sweep_cli rejects unknown flags, so --quick is peeled off first.
  bool quick = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  runner::SweepCli cli;
  try {
    cli = runner::parse_sweep_cli(static_cast<int>(args.size()), args.data());
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n"
              << runner::sweep_cli_usage("tomography_mesh")
              << "  --quick          short CI-smoke grid\n";
    return 2;
  }
  if (cli.out_dir.empty()) cli.out_dir = ".";

  struct MeshRow {
    std::size_t hosts;
    double delta_ms;
  };
  const std::vector<MeshRow> mesh_rows =
      quick ? std::vector<MeshRow>{{4, 10.0}, {8, 10.0}, {8, 40.0}}
            : std::vector<MeshRow>{
                  {4, 10.0}, {8, 10.0}, {18, 10.0}, {8, 20.0}, {8, 40.0}};
  const std::size_t kernel_streams = quick ? 10000 : 20000;
  const std::size_t kernel_samples = quick ? 200 : 1000;

  std::vector<runner::RunSpec> specs;
  for (const MeshRow& row : mesh_rows) {
    runner::RunSpec spec;
    spec.label = "mesh_h" + std::to_string(row.hosts) + "_d" +
                 std::to_string(static_cast<int>(row.delta_ms));
    spec.params.push_back({"mesh", 1.0});
    spec.params.push_back({"hosts", static_cast<double>(row.hosts)});
    spec.params.push_back({"delta_ms", row.delta_ms});
    specs.push_back(std::move(spec));
  }
  {
    runner::RunSpec spec;
    spec.label = "stream_n" + std::to_string(kernel_streams);
    spec.params.push_back({"mesh", 0.0});
    spec.params.push_back(
        {"streams", static_cast<double>(kernel_streams)});
    spec.params.push_back(
        {"samples", static_cast<double>(kernel_samples)});
    specs.push_back(std::move(spec));
  }

  runner::SweepOptions options;
  options.name = "tomography";
  options.threads = 1;  // one timing run at a time
  options.base_seed = cli.base_seed;

  const runner::SweepResult sweep = runner::run_sweep(
      specs,
      [&](const runner::RunContext& ctx) {
        if (ctx.spec->param("mesh") > 0.5) {
          const auto hosts =
              static_cast<std::size_t>(ctx.spec->param("hosts"));
          const auto start = Clock::now();
          const scenario::TomographyResult result = scenario::run_tomography(
              mesh_spec(hosts, ctx.spec->param("delta_ms"), 1993));
          const double wall =
              std::chrono::duration<double>(Clock::now() - start).count();
          return mesh_metrics(result, wall);
        }
        return run_throughput(
            static_cast<std::size_t>(ctx.spec->param("streams")),
            static_cast<std::size_t>(ctx.spec->param("samples")),
            ctx.seed);
      },
      options);

  TextTable table;
  table.row({"row", "streams", "classes", "loss err", "delay err",
             "cap err", "wall(s)"});
  for (const runner::RunResult& run : sweep.runs) {
    if (run.failed) {
      std::cerr << run.label << ": " << run.error << "\n";
      return 1;
    }
    const double* classes = run.metric("link_classes");
    const double* loss_error = run.metric("loss_error");
    table.row({});
    table.cell(run.label)
        .cell(static_cast<std::int64_t>(*run.metric("streams")))
        .cell(classes != nullptr ? static_cast<std::int64_t>(*classes) : 0)
        .cell(loss_error != nullptr ? *loss_error : 0.0, 4)
        .cell(run.metric("delay_error") != nullptr
                  ? *run.metric("delay_error")
                  : 0.0,
              4)
        .cell(run.metric("capacity_error") != nullptr
                  ? *run.metric("capacity_error")
                  : 0.0,
              4)
        .cell(*run.metric("kernel_wall_seconds"), 4);
  }
  std::cout << "Tomography mesh baseline (AS-hierarchy fabric, seeded "
               "per-link drops)\n\n";
  table.print(std::cout);
  std::cout << "\nexpected: loss inference within 10% of ground truth on "
               "every mesh row;\nstreaming-vs-batch audit exact; the stream "
               "kernel sustains >= 10^4\nconcurrent streams online.\n";

  // Acceptance gates at the exit code.
  for (const runner::RunResult& run : sweep.runs) {
    const double* loss_error = run.metric("loss_error");
    if (loss_error != nullptr && *loss_error >= 0.10) {
      std::cerr << run.label << ": loss inference error " << *loss_error
                << " >= 0.10\n";
      return 1;
    }
    for (const char* audit :
         {"audit_loss_mismatch", "audit_summary_mismatch",
          "audit_lindley_mismatch"}) {
      const double* mismatch = run.metric(audit);
      if (mismatch != nullptr && *mismatch != 0.0) {
        std::cerr << run.label << ": " << audit << " = " << *mismatch
                  << " (expected exact)\n";
        return 1;
      }
    }
    const double* pushes = run.metric("pushes");
    if (pushes != nullptr) {
      const double expected = static_cast<double>(kernel_streams) *
                              static_cast<double>(kernel_samples);
      if (*run.metric("streams") < 10000.0 || *pushes != expected) {
        std::cerr << run.label << ": stream kernel incomplete\n";
        return 1;
      }
    }
  }

  try {
    const std::string path = runner::write_sweep_artifacts(sweep, cli.out_dir);
    std::cout << "\nartifacts: " << path << " (+ .csv)\n";
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}
