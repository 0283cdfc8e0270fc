#include "sim/monitor.h"

#include "obs/metrics.h"

namespace bolot::sim {

void DropMonitor::attach(Link& link) {
  link.add_drop_hook([this](const Packet& packet, DropCause cause) {
    record(packet, cause);
  });
}

void DropMonitor::record(const Packet& packet, DropCause cause) {
  FlowDrops& drops = drops_[packet.flow];
  switch (cause) {
    case DropCause::kOverflow:
      ++drops.overflow;
      ++aggregate_.overflow;
      break;
    case DropCause::kRandom:
      ++drops.random;
      ++aggregate_.random;
      break;
    case DropCause::kRed:
      ++drops.red;
      ++aggregate_.red;
      break;
    case DropCause::kChannel:
      ++drops.channel;
      ++aggregate_.channel;
      break;
  }
}

const DropMonitor::FlowDrops& DropMonitor::drops_for(
    std::uint32_t flow) const {
  const auto it = drops_.find(flow);
  return it == drops_.end() ? none_ : it->second;
}

void DropMonitor::publish_metrics(obs::MetricsRegistry& registry,
                                  const std::string& prefix) const {
  registry.probe_counter(prefix + ".early",
                         [this] { return double(aggregate_.red); });
  registry.probe_counter(prefix + ".overflow",
                         [this] { return double(aggregate_.overflow); });
  registry.probe_counter(prefix + ".random",
                         [this] { return double(aggregate_.random); });
  registry.probe_counter(prefix + ".channel",
                         [this] { return double(aggregate_.channel); });
  registry.probe_counter(prefix + ".total",
                         [this] { return double(aggregate_.total()); });
}

}  // namespace bolot::sim
