// perf_ledger: one named workload per process, measured from outside.
//
//   perf_ledger --workload NAME [--seed N] [--seconds S] [--quick]
//               [--trace-out PATH]
//
// The driver times only the calls it makes into the public APIs of
// scenario, analysis, sim (ParallelSimulation) and obs, and reads the work
// counters those calls return; it adds nothing to the program.  One run:
//
//   1. set-up: the workload's scenario calls with the probe window shrunk
//      to one delta, once;
//   2. reps: the full workload, repeated on the calling thread until
//      --seconds have elapsed (at least once), with more set-up samples
//      before each rep until set-up has had a fifth of the time, so the
//      set-up median is steady;
//   3. tomo_mesh_h18_pdes2 only: one sequential reference rep, whose
//      events and loss inference the sharded reps should match.
//
// Every rep must reproduce the first one's digests, and every
// workload-specific gate must hold; a rep that throws counts as failed.
// With --trace-out the obs::TraceRecorder is active for steps 1-2 and the
// ledger's own spans (ledger.rep, scenario.setup, sim.call,
// analysis.full_report, obs.metrics_to_json) go to a BTRC file that
// tools/trace2json.py reads.
//
// Prints one JSON object on stdout; run_ledger.py turns it into medians,
// the expected-digest gate and the benchmark's metrics.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.h"
#include "obs/metrics_io.h"
#include "obs/trace.h"
#include "runner/thread_pool.h"
#include "scenario/scenarios.h"
#include "scenario/tomography.h"
#include "sim/pdes.h"
#include "util/rng.h"

#ifndef PERF_LEDGER_COMPILER_ID
#define PERF_LEDGER_COMPILER_ID "unknown"
#endif
#ifndef PERF_LEDGER_BUILD_TYPE
#define PERF_LEDGER_BUILD_TYPE "unknown"
#endif
#ifndef PERF_LEDGER_CXX_FLAGS
#define PERF_LEDGER_CXX_FLAGS "unknown"
#endif

namespace {

using namespace bolot;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process user + system CPU seconds, all threads.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Peak resident set of this program image, in MiB.  VmHWM, not
/// ru_maxrss: Linux carries ru_maxrss across exec, so a driver started from
/// a larger parent process would report the parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// FNV-1a over 64-bit words, strings and doubles (by bit pattern).
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// What one rep returns besides its wall and CPU time.
struct RepOutput {
  /// Gated against expected.json at the default seed: every probe trace
  /// (seq, send time, rtt, received), the drop counters and the inference
  /// results.  Work counters stay out of it.
  Fnv digest;
  /// Report text and obs export: must repeat rep to rep, not baselined.
  Fnv aux;
  /// Tomography loss inference alone (per-stream probe counts, per-class
  /// loss estimates): what a sharded run should reproduce exactly.  Delay
  /// estimates are not domain-count-invariant to the last bit.
  Fnv loss;
  /// Work counters and inference errors, named as in BENCHMARK.json.
  std::map<std::string, double> counters;
  /// Seconds inside the scenario calls, analysis calls and obs export.
  double call_s = 0.0;
  double report_s = 0.0;
  double obs_s = 0.0;
  /// Workload gates this rep broke.
  std::vector<std::string> violations;
};

/// Runs `fn`, adds its wall time to `acc`, and records span `name` (a
/// string literal) when the trace recorder is active.
template <class Fn>
auto timed(const char* name, double& acc, Fn&& fn) {
  const obs::TraceScope span(name);
  const auto start = Clock::now();
  auto result = fn();
  acc += seconds_since(start);
  return result;
}

void mix_trace(Fnv& fnv, const analysis::ProbeTrace& trace) {
  fnv.mix(static_cast<std::uint64_t>(trace.records.size()));
  for (const analysis::ProbeRecord& r : trace.records) {
    fnv.mix(r.seq);
    fnv.mix(static_cast<std::uint64_t>(r.send_time.count_nanos()));
    fnv.mix(static_cast<std::uint64_t>(r.rtt.count_nanos()));
    fnv.mix(static_cast<std::uint64_t>(r.received ? 1 : 0));
  }
}

/// Digest and counters every scenario::ScenarioResult contributes.
void account_scenario(const scenario::ScenarioResult& run, RepOutput& out) {
  mix_trace(out.digest, run.trace);
  out.digest.mix(run.total_overflow_drops);
  out.digest.mix(run.total_random_drops);
  out.digest.mix(run.total_channel_drops);
  auto& c = out.counters;
  c["sim.events"] += static_cast<double>(run.events);
  c["sim.hop_deliveries"] += static_cast<double>(run.hop_deliveries);
  c["sim.drops_overflow"] += static_cast<double>(run.total_overflow_drops);
  c["sim.drops_random"] += static_cast<double>(run.total_random_drops);
  c["probe.sent"] += static_cast<double>(run.trace.size());
  c["probe.received"] += static_cast<double>(run.trace.received_count());
  c["pdes.domains_used"] = static_cast<double>(run.domains_used);
}

struct Params {
  std::uint64_t seed = 1993;
  bool quick = false;
  /// Set-up mode: the same scenario calls with the probe window shrunk to
  /// one delta, and nothing after them.
  bool setup = false;

  /// Span of a scenario call: set-up time is charged to the scenario
  /// layer, the rest of a full call to sim.
  const char* call_span() const {
    return setup ? "scenario.setup" : "sim.call";
  }
};

// --- paper_sweep ------------------------------------------------------
// Tables 1-2: both measured paths x delta in {8..500} ms x a 10-minute
// window, each run followed by the full analysis report; the Table-1 runs
// carry an obs sampler at interval delta, as fig1_timeseries
// --metrics-out does.

RepOutput paper_sweep(const Params& p) {
  RepOutput out;
  for (const bool table1 : {true, false}) {
    for (const double delta_ms : {8.0, 20.0, 50.0, 100.0, 200.0, 500.0}) {
      scenario::ProbePlan plan;
      plan.delta = Duration::millis(delta_ms);
      plan.duration = p.setup   ? plan.delta
                      : p.quick ? Duration::seconds(30)
                                : Duration::minutes(10);
      plan.seed = p.seed;
      scenario::ScenarioOverrides overrides;
      if (table1) overrides.obs_sample_interval = plan.delta;
      const scenario::ScenarioResult run =
          timed(p.call_span(), out.call_s, [&] {
            return table1 ? scenario::run_inria_umd(plan, overrides)
                          : scenario::run_umd_pitt(plan, overrides);
          });
      if (p.setup) continue;
      out.aux.mix(timed("analysis.full_report", out.report_s,
                        [&] { return analysis::full_report(run.trace); }));
      if (table1) {
        out.aux.mix(timed("obs.metrics_to_json", out.obs_s, [&] {
          return obs::metrics_to_json(run.metrics, run.series);
        }));
        for (const obs::TimeSeries& series : run.series) {
          out.counters["obs.samples"] += static_cast<double>(series.size());
        }
      }
      account_scenario(run, out);
    }
  }
  return out;
}

// --- fabric_fluid_1e6 -------------------------------------------------
// run_topology on a k=4 fat-tree with 16 hosts under 10^6 background flows,
// all fluid (no packetized zone), M/D/1 waits, 3-state envelope, 40%
// hottest-link load, delta = 10 ms over 10 minutes.

RepOutput fabric_fluid(const Params& p) {
  scenario::ProbePlan plan;
  plan.delta = Duration::millis(10);
  plan.duration = p.setup   ? plan.delta
                  : p.quick ? Duration::seconds(10)
                            : Duration::minutes(10);
  plan.seed = p.seed;

  scenario::TopologySpec topology;
  topology.fat_tree_k = 4;
  topology.hosts_per_edge = 2;
  topology.seed = 3;
  scenario::FluidBackgroundConfig background;
  background.flows = p.quick ? 100000 : 1000000;
  background.max_link_load = 0.4;
  background.envelope_states = 3;
  background.queue_model = sim::FluidQueueModel::kMd1Wait;
  background.seed = p.seed;
  scenario::ScenarioOverrides overrides;
  overrides.topology = topology;
  overrides.fluid_background = background;

  RepOutput out;
  const scenario::ScenarioResult run = timed(p.call_span(), out.call_s, [&] {
    return scenario::run_topology(plan, overrides);
  });
  if (p.setup) return out;
  account_scenario(run, out);
  out.counters["scenario.flows"] = static_cast<double>(background.flows);
  out.counters["fluid.flows_folded"] =
      static_cast<double>(run.background_flows_fluid);
  out.counters["fluid.flows_packetized"] =
      static_cast<double>(run.background_flows_packetized);
  return out;
}

// --- tomo_mesh_h18 / tomo_mesh_h18_pdes2 ------------------------------
// run_tomography on a 2-core x 3-stub x 3-host AS hierarchy (18 hosts,
// 306 streams), delta = 10 ms over 40 s, per-link drop 2-5%.

RepOutput tomo_mesh(const Params& p, std::size_t domains) {
  scenario::TomographySpec spec;
  spec.topology.family = scenario::TopologySpec::Family::kAsHierarchy;
  spec.topology.core_count = 2;
  spec.topology.stubs_per_core = 3;
  spec.topology.hosts_per_stub = 3;
  spec.topology.peer_links = 0;
  spec.topology.seed = 7;
  spec.delta = Duration::millis(10);
  spec.duration = p.setup   ? spec.delta
                  : p.quick ? Duration::seconds(4)
                            : Duration::seconds(40);
  spec.drop_min = 0.02;
  spec.drop_max = 0.05;
  spec.seed = p.seed;
  spec.domains = domains;

  RepOutput out;
  const scenario::TomographyResult run = timed(
      p.call_span(), out.call_s,
      [&] { return scenario::run_tomography(spec); });
  if (p.setup) return out;

  // Delay ground truth (true_delay_ms, delay_error) stays out: it is
  // collected on the sequential kernel only.
  for (const scenario::TomographyStreamSummary& s : run.stream_summaries) {
    for (Fnv* fnv : {&out.digest, &out.loss}) {
      fnv->mix(static_cast<std::uint64_t>(s.src));
      fnv->mix(static_cast<std::uint64_t>(s.dst));
      fnv->mix(static_cast<std::uint64_t>(s.sent));
      fnv->mix(static_cast<std::uint64_t>(s.received));
    }
    out.digest.mix(s.mean_rtt_ms);
    out.digest.mix(s.bottleneck_pair.bps());
    out.counters["probe.sent"] += static_cast<double>(s.sent);
    out.counters["probe.received"] += static_cast<double>(s.received);
  }
  for (const scenario::TomographyLinkClass& c : run.classes) {
    for (Fnv* fnv : {&out.digest, &out.loss}) {
      for (const std::uint32_t link : c.links) fnv->mix(std::uint64_t{link});
      fnv->mix(c.true_loss_sum);
      fnv->mix(c.est_loss_sum);
    }
    out.digest.mix(c.est_delay_ms);
  }
  out.digest.mix(run.loss_error);
  out.loss.mix(run.loss_error);

  auto& c = out.counters;
  c["sim.events"] = static_cast<double>(run.events);
  c["tomo.streams"] = static_cast<double>(run.streams);
  c["tomo.link_classes"] = static_cast<double>(run.link_classes);
  c["tomo.ridge_used"] = run.ridge_used ? 1.0 : 0.0;
  c["tomo.audit_loss_mismatch"] = run.audit_loss_mismatch;
  c["tomo.audit_summary_mismatch"] = run.audit_summary_mismatch;
  c["tomo.audit_lindley_mismatch"] = run.audit_lindley_mismatch;
  c["pdes.domains_used"] = static_cast<double>(run.domains_used);
  c["infer_loss_err"] = run.loss_error;
  c["infer_delay_err"] = run.delay_error;

  if (run.audit_loss_mismatch != 0.0 || run.audit_summary_mismatch != 0.0 ||
      run.audit_lindley_mismatch != 0.0) {
    out.violations.push_back("streaming-vs-batch audit mismatch");
  }
  if (!(run.loss_error < 0.10)) {
    out.violations.push_back("loss inference error " +
                             std::to_string(run.loss_error) + " >= 0.10");
  }
  if (run.domains_used != domains) {
    out.violations.push_back("ran on " + std::to_string(run.domains_used) +
                             " domains, expected " + std::to_string(domains));
  }
  return out;
}

struct Workload {
  const char* name;
  /// Threads the workload runs on (1 = calling thread only).
  std::size_t threads;
  std::function<RepOutput(const Params&)> run;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper_sweep", 1, paper_sweep},
      {"fabric_fluid_1e6", 1, fabric_fluid},
      {"tomo_mesh_h18", 1, [](const Params& p) { return tomo_mesh(p, 1); }},
      {"tomo_mesh_h18_pdes2", 2,
       [](const Params& p) { return tomo_mesh(p, 2); }},
  };
  return all;
}

/// Lends `pool` (if any) to every ParallelSimulation for this object's
/// lifetime.  A simulation takes the donor when it starts, so one that is
/// still running keeps its workers; a donated job that finds its run over
/// is a no-op.
class Lend {
 public:
  explicit Lend(runner::ThreadPool* pool) : lent_(pool != nullptr) {
    if (!lent_) return;
    sim::ParallelSimulation::set_thread_donor(
        [pool](std::function<void()> job) { pool->submit(std::move(job)); });
  }
  ~Lend() {
    if (lent_) sim::ParallelSimulation::set_thread_donor({});
  }
  Lend(const Lend&) = delete;
  Lend& operator=(const Lend&) = delete;

 private:
  bool lent_;
};

/// Mean cost of one recorded span with the recorder active, in ns; the
/// traced run's overhead is this times its record count.
double calibrate_span_ns() {
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.start();
  constexpr int kSpans = 4000;
  const auto start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const obs::TraceScope span("ledger.calibrate");
  }
  const double ns = seconds_since(start) * 1e9 / kSpans;
  recorder.stop();
  return ns;
}

// --- JSON output --------------------------------------------------------

std::string json_number(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct RepRecord {
  double run_s = 0.0;
  double cpu_s = 0.0;
  RepOutput out;
};

std::string rep_json(const RepRecord& r) {
  return "{\"run_s\": " + json_number(r.run_s) +
         ", \"cpu_s\": " + json_number(r.cpu_s) +
         ", \"call_s\": " + json_number(r.out.call_s) +
         ", \"report_s\": " + json_number(r.out.report_s) +
         ", \"obs_s\": " + json_number(r.out.obs_s) +
         ", \"digest\": " + json_string(r.out.digest.hex()) + "}";
}

template <class T, class Fmt>
std::string json_list(const std::vector<T>& items, Fmt fmt) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += fmt(items[i]);
  }
  return out + "]";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1993;
  double seconds = 10.0;
  bool quick = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perf_ledger: " << error << "\n"
            << "usage: perf_ledger --workload NAME [--seed N] [--seconds S]"
               " [--quick] [--trace-out PATH]\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--quick") {
        opt.quick = true;
      } else if (arg == "--trace-out") {
        opt.trace_out = value();
      } else {
        usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {  // stoull / stod
      usage("bad value for " + arg);
    }
  }
  if (!(opt.seconds >= 0.0)) usage("--seconds must be >= 0");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const auto found =
      std::find_if(workloads().begin(), workloads().end(),
                   [&](const Workload& w) { return opt.workload == w.name; });
  if (found == workloads().end()) {
    usage("unknown workload '" + opt.workload + "'");
  }
  const Workload& workload = *found;

  // One operation (set-up call, rep, reference rep) fails when it throws
  // or breaks a gate.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  const auto attempt = [&](const char* what, auto&& fn) {
    const std::size_t before = failures.size();
    ++attempted;
    try {
      fn();
    } catch (const std::exception& e) {
      failures.push_back(std::string(what) + " threw: " + e.what());
    }
    if (failures.size() > before) ++failed;
  };

  double span_ns = 0.0;
  if (!opt.trace_out.empty()) {
    span_ns = calibrate_span_ns();
    obs::TraceRecorder::instance().start();
  }

  const Params params{opt.seed, opt.quick, false};
  const auto budget_start = Clock::now();

  // Set-up samples: one up front, then, before each rep, as many as bring
  // set-up to a fifth of the time so far.  Spread over the whole run,
  // their median rides out the host's slow phases (half a second to
  // minutes, +50 % on a call) as the rep medians do; a burst of samples
  // can fall inside one.  Each sample draws its own seed from --seed: the
  // work in a one-delta window (warm-up traffic included) depends on the
  // traffic realization far more than a full window does, so the median
  // over many realizations is what stays steady from seed to seed.
  constexpr double kSetupShare = 0.2;
  constexpr std::size_t kSetupMax = 5000;
  std::vector<double> setup_s;
  double setup_spent = 0.0;
  std::size_t setup_drawn = 0;
  const auto set_up = [&] {
    const std::uint64_t seed = derive_stream_seed(opt.seed, setup_drawn++);
    attempt("setup", [&] {
      const auto start = Clock::now();
      workload.run({seed, opt.quick, true});
      setup_s.push_back(seconds_since(start));
      setup_spent += setup_s.back();
    });
  };

  // Lent to the reps only: without a donor the kernel drives every domain
  // on the calling thread (same results), so set-up of a millisecond-scale
  // call is not at the mercy of how fast the host wakes a helper thread.
  std::optional<runner::ThreadPool> donor;
  if (workload.threads > 1) donor.emplace(workload.threads - 1);

  std::vector<RepRecord> reps;
  set_up();
  while (reps.empty() || seconds_since(budget_start) < opt.seconds) {
    while (setup_drawn < kSetupMax &&
           setup_spent < kSetupShare * seconds_since(budget_start)) {
      set_up();
    }
    const std::size_t failed_before = failed;
    attempt("rep", [&] {
      RepRecord rec;
      const double cpu0 = cpu_seconds();
      const auto start = Clock::now();
      {
        const obs::TraceScope span("ledger.rep");
        const Lend lend(donor ? &*donor : nullptr);
        rec.out = workload.run(params);
      }
      rec.run_s = seconds_since(start);
      rec.cpu_s = cpu_seconds() - cpu0;
      for (const std::string& v : rec.out.violations) failures.push_back(v);
      if (!reps.empty()) {
        const RepOutput& first = reps.front().out;
        if (rec.out.digest.hex() != first.digest.hex() ||
            rec.out.aux.hex() != first.aux.hex() ||
            rec.out.counters != first.counters) {
          failures.push_back("rep " + std::to_string(reps.size()) +
                             " differs from rep 0");
        }
      }
      reps.push_back(std::move(rec));
    });
    if (failed > failed_before && reps.empty()) break;  // nothing to time
  }
  const double rss_mb = peak_rss_mb();

  if (!opt.trace_out.empty()) {
    try {
      obs::TraceRecorder::instance().write(opt.trace_out);
    } catch (const std::exception& e) {
      std::cerr << "perf_ledger: " << e.what() << "\n";
      return 1;
    }
  }

  // The sequential kernel on the same spec: the sharded reps should match
  // its events and loss inference exactly.  They do not at every seed (a
  // same-nanosecond tie can be ordered differently), so a mismatch is
  // reported, not counted as a failed operation; at the default seed
  // expected.json pins both workloads to one digest.
  std::string reference;
  if (workload.threads > 1 && !reps.empty()) {
    attempt("reference", [&] {
      const RepOutput ref = tomo_mesh(params, 1);
      const RepOutput& first = reps.front().out;
      const double events = first.counters.at("sim.events");
      const double ref_events = ref.counters.at("sim.events");
      const bool match =
          events == ref_events && first.loss.hex() == ref.loss.hex();
      if (!match) {
        std::cerr << "perf_ledger: sharded run differs from the sequential "
                     "kernel: events "
                  << json_number(events) << " vs " << json_number(ref_events)
                  << ", loss digest " << first.loss.hex() << " vs "
                  << ref.loss.hex() << "\n";
      }
      reference = "{\"call_s\": " + json_number(ref.call_s) +
                  ", \"match\": " + (match ? "true" : "false") + "}";
    });
  }

  std::string counters = "{";
  if (!reps.empty()) {
    for (const auto& [name, value] : reps.front().out.counters) {
      if (counters.size() > 1) counters += ", ";
      counters += json_string(name) + ": " + json_number(value);
    }
  }
  counters += "}";

#if defined(SIM_AUDIT_CHECKS)
  constexpr bool kAudit = true;
#else
  constexpr bool kAudit = false;
#endif
  std::cout
      << "{\"workload\": " << json_string(workload.name)
      << ", \"seed\": " << opt.seed
      << ", \"quick\": " << (opt.quick ? "true" : "false")
      << ", \"seconds\": " << json_number(opt.seconds)
      << ", \"threads\": " << workload.threads << ", \"build\": {"
      << "\"compiler\": "
      << json_string(PERF_LEDGER_COMPILER_ID " " __VERSION__)
      << ", \"build_type\": " << json_string(PERF_LEDGER_BUILD_TYPE)
      << ", \"cxx_flags\": " << json_string(PERF_LEDGER_CXX_FLAGS)
      << ", \"sim_audit_checks\": " << (kAudit ? "true" : "false")
      << ", \"sim_trace\": " << (obs::kTraceEnabled ? "true" : "false")
      << "}, \"setup_s\": " << json_list(setup_s, json_number)
      << ", \"reps\": " << json_list(reps, rep_json)
      << ", \"counters\": " << counters
      << ", \"reference\": " << (reference.empty() ? "null" : reference)
      << ", \"peak_rss_mb\": " << json_number(rss_mb)
      << ", \"span_ns\": " << json_number(span_ns)
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"failures\": " << json_list(failures, json_string) << "}\n";
  return 0;
}
