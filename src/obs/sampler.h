// Sampler: uniformly-spaced time-series recording driven by the existing
// coalesced event queue.
//
// One Sampler owns one self-re-arming event (schedule_at once, then
// Simulator::rearm_in from inside the callback, so the whole sampling
// loop reuses a single slab slot).  Each tick it
// evaluates every registered probe closure and pushes the value into that
// probe's TimeSeries.  All series share the grid, so they stay aligned:
// when the budget is reached, every series decimates together and the
// sampling interval doubles (see TimeSeries::decimate — the next due
// sample lands exactly on the coarser grid).
//
// Steady-state cost: one event dispatch plus one closure call and one
// in-capacity vector push per series — no allocation after start()
// (obs_overhead_test proves this with a counting allocator).
//
// This header is the only obs file that sees the simulator; it is
// header-only precisely so the obs *library* stays sim-free (sim links
// obs for MetricsRegistry, obs never links sim — no cycle).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "sim/udp_echo.h"

namespace bolot::obs {

class Sampler {
 public:
  using Probe = MetricProbe;

  /// `interval` is the initial stride; `budget` the per-series sample cap
  /// (even, >= 2) past which decimation halves the series and doubles the
  /// stride.
  Sampler(sim::Simulator& sim, Duration interval, std::size_t budget = 4096)
      : sim_(sim), stride_(interval), budget_(budget) {
    if (interval <= Duration::zero()) {
      throw std::invalid_argument("Sampler: interval must be positive");
    }
    TimeSeries::check_budget("Sampler", budget);
  }

  /// Registers a probe evaluated every tick; returns the series index.
  /// All series must be added before start() so they share the grid.
  std::size_t add_series(std::string name, Probe probe) {
    if (started_) {
      throw std::logic_error("Sampler: add_series after start()");
    }
    entries_.push_back(Entry{TimeSeries(std::move(name), budget_),
                             std::move(probe)});
    return entries_.size() - 1;
  }

  /// Begins sampling at absolute time `at` (the first sample is taken at
  /// `at` itself).  Runs until stop() — the self-re-arming event keeps
  /// the queue non-empty, so bound the run with run_until or call stop()
  /// before draining the queue.
  void start(SimTime at) {
    if (running_) return;
    started_ = true;
    running_ = true;
    for (Entry& e : entries_) e.series.reset(at, stride_);
    pending_ = sim_.schedule_at(at, [this] { sample(); });
  }

  void stop() {
    running_ = false;
    pending_.cancel();
  }

  const TimeSeries& series(std::size_t index) const {
    return entries_.at(index).series;
  }

  /// Standalone copies of every series (for ScenarioResult / JSON export).
  std::vector<TimeSeries> snapshot() const {
    std::vector<TimeSeries> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.series);
    return out;
  }

 private:
  void sample() {
    if (!running_) return;
    if (!entries_.empty() && entries_.front().series.full()) {
      // Every series fills in lock step; decimate them together and
      // double the stride.  The sample due right now sits exactly on the
      // coarser grid, so uniform spacing is preserved.
      for (Entry& e : entries_) e.series.decimate();
      stride_ = stride_ + stride_;
    }
    for (Entry& e : entries_) e.series.push(e.probe());
    // sample() only runs from its own event; re-arm it in place
    // (pending_ stays valid for stop()).
    sim_.rearm_in(stride_);
  }

  struct Entry {
    TimeSeries series;
    Probe probe;
  };

  sim::Simulator& sim_;
  Duration stride_;
  std::size_t budget_;
  bool started_ = false;
  bool running_ = false;
  sim::EventHandle pending_;
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Watch helpers: one-liners wiring the standard component observables
// into a sampler.  Each returns the series index.  The component must
// outlive the sampler.

/// Instantaneous queue length in packets (including the one in service).
inline std::size_t watch_queue_packets(Sampler& sampler,
                                       const sim::Link& link) {
  return sampler.add_series(
      link.config().name + ".queue_pkts",
      [&link] { return static_cast<double>(link.queue_length()); });
}

/// Backlog expressed as milliseconds of work at the link rate — the
/// quantity eq. 6 infers from probe rtts.
inline std::size_t watch_backlog_work_ms(Sampler& sampler,
                                         const sim::Link& link) {
  return sampler.add_series(
      link.config().name + ".backlog_work_ms", [&link] {
        return link.service_time(ByteSize::bytes(link.backlog_bytes()))
            .millis();
      });
}

/// Cumulative utilization, fluid share included (sim::Link::utilization).
inline std::size_t watch_utilization(Sampler& sampler,
                                     const sim::Link& link) {
  return sampler.add_series(link.config().name + ".utilization",
                            [&link] { return link.utilization(); });
}

/// Most recent probe round-trip time, in milliseconds (0 until the first
/// echo returns).
inline std::size_t watch_probe_rtt_ms(Sampler& sampler,
                                      const sim::UdpEchoSource& probe) {
  return sampler.add_series("probe.rtt_ms",
                            [&probe] { return probe.last_rtt_ms(); });
}

}  // namespace bolot::obs
