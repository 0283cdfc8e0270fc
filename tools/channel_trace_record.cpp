// Records a DeliverySchedule (the trace-driven link's input; see
// src/sim/channel.h) from either a simulated scenario or a measured
// NetDyn probe trace, cellsim-style: capture when a real or simulated
// path actually delivered packets, then replay those opportunities
// deterministically through sim::LinkConfig::schedule.
//
// Modes:
//   --scenario NAME    run the named scenario (inria_umd, umd_pitt,
//                      inria_europe) and record the far-end arrival time
//                      of every packet the forward bottleneck link
//                      delivered
//   --from-trace FILE  read a probe-trace CSV (netdyn_probe /
//                      analysis::save_trace_csv) and use each received
//                      probe's echo return time (send_time + rtt) as a
//                      delivery opportunity — what a sender measuring a
//                      live path can actually observe
//
// Common flags:
//   --out FILE         schedule file to write (default: schedule.txt)
//   --bytes N          byte budget per opportunity (default 1514)
//   --duration-min M   scenario run length in minutes (default 10)
//   --delta-ms D       scenario probe interval (default 20)
//   --seed S           scenario seed (default 1993)
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/trace_io.h"
#include "scenario/scenarios.h"
#include "sim/channel.h"
#include "util/parse_number.h"
#include "util/time.h"

namespace {

using namespace bolot;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " (--scenario NAME | --from-trace FILE) [--out FILE]\n"
               "       [--bytes N] [--duration-min M] [--delta-ms D] "
               "[--seed S]\n"
               "scenarios: inria_umd, umd_pitt, inria_europe\n";
  return 2;
}

/// Shifts the recorded times so the first opportunity is t = 0 and builds
/// the schedule (period defaults are resolved by validate-time rules in
/// DeliverySchedule::parse; here we use last + mean gap explicitly).
sim::DeliverySchedule build_schedule(std::vector<SimTime> times,
                                     std::int64_t bytes_per_opportunity) {
  if (times.empty()) {
    throw std::runtime_error(
        "no delivery opportunities recorded (nothing was delivered)");
  }
  sim::DeliverySchedule schedule;
  schedule.bytes_per_opportunity = bytes_per_opportunity;
  const SimTime origin = times.front();
  schedule.opportunities.reserve(times.size());
  for (const SimTime t : times) schedule.opportunities.push_back(t - origin);
  const Duration span = schedule.opportunities.back();
  Duration gap = schedule.opportunities.size() > 1
                     ? span / static_cast<std::int64_t>(
                                  schedule.opportunities.size() - 1)
                     : Duration::millis(1.0);
  if (gap.is_zero()) gap = Duration::nanos(1);
  schedule.period = schedule.opportunities.back() + gap;
  schedule.validate();
  return schedule;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name;
  std::string trace_path;
  std::string out_path = "schedule.txt";
  std::int64_t bytes = 1514;
  double duration_min = 10.0;
  double delta_ms = 20.0;
  std::uint64_t seed = 1993;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
      return argv[++i];
    };
    try {
      if (flag == "--scenario") {
        scenario_name = value();
      } else if (flag == "--from-trace") {
        trace_path = value();
      } else if (flag == "--out") {
        out_path = value();
      } else if (flag == "--bytes") {
        bytes = static_cast<std::int64_t>(parse_u64(
            flag, value(), std::numeric_limits<std::int64_t>::max()));
      } else if (flag == "--duration-min") {
        duration_min = parse_f64(flag, value());
      } else if (flag == "--delta-ms") {
        delta_ms = parse_f64(flag, value());
      } else if (flag == "--seed") {
        seed = parse_u64(flag, value());
      } else {
        std::cerr << "unknown flag: " << flag << "\n";
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return usage(argv[0]);
    }
  }
  if (scenario_name.empty() == trace_path.empty()) {
    std::cerr << "exactly one of --scenario / --from-trace is required\n";
    return usage(argv[0]);
  }

  try {
    std::vector<SimTime> times;
    if (!trace_path.empty()) {
      const analysis::ProbeTrace trace = analysis::load_trace_csv(trace_path);
      for (const analysis::ProbeRecord& record : trace.records) {
        if (record.received) times.push_back(record.send_time + record.rtt);
      }
    } else {
      scenario::ProbePlan plan;
      plan.delta = Duration::millis(delta_ms);
      plan.duration = Duration::minutes(duration_min);
      plan.seed = seed;
      scenario::ScenarioOverrides overrides;
      overrides.record_bottleneck_deliveries = true;
      scenario::ScenarioResult result;
      if (scenario_name == "inria_umd") {
        result = scenario::run_inria_umd(plan, overrides);
      } else if (scenario_name == "umd_pitt") {
        result = scenario::run_umd_pitt(plan, overrides);
      } else if (scenario_name == "inria_europe") {
        result = scenario::run_inria_europe(plan, overrides);
      } else {
        std::cerr << "unknown scenario: " << scenario_name << "\n";
        return usage(argv[0]);
      }
      times = std::move(result.bottleneck_delivery_times);
    }

    const sim::DeliverySchedule schedule = build_schedule(std::move(times), bytes);
    schedule.save(out_path);
    std::cout << "wrote " << out_path << ": " << schedule.size()
              << " opportunities over " << schedule.period.to_string()
              << " (" << schedule.bytes_per_opportunity
              << " B each; mean rate "
              << static_cast<double>(schedule.bytes_per_opportunity) * 8.0 *
                     static_cast<double>(schedule.size()) /
                     schedule.period.seconds() / 1e6
              << " Mb/s)\n";
  } catch (const std::exception& e) {
    std::cerr << "channel_trace_record: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
