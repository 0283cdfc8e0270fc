#include "obs/metrics.h"

#include <stdexcept>
#include <utility>

namespace bolot::obs {

void MetricsRegistry::add(std::string_view name, MetricKind kind,
                          MetricProbe probe) {
  if (!names_.emplace(name).second) {
    throw std::invalid_argument("MetricsRegistry: metric name reused: " +
                                std::string(name));
  }
  instruments_.push_back(Instrument{std::string(name), kind, std::move(probe)});
}

void MetricsRegistry::probe_counter(std::string_view name, MetricProbe probe) {
  add(name, MetricKind::kCounter, std::move(probe));
}

void MetricsRegistry::probe_gauge(std::string_view name, MetricProbe probe) {
  add(name, MetricKind::kGauge, std::move(probe));
}

MetricsSnapshot MetricsRegistry::snapshot(SimTime at) {
  MetricsSnapshot snap;
  snap.at = at;
  snap.entries.reserve(instruments_.size());
  for (Instrument& inst : instruments_) {
    snap.entries.push_back(SnapshotEntry{inst.name, inst.kind, inst.probe()});
  }
  return snap;
}

}  // namespace bolot::obs
