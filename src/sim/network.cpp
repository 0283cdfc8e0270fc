#include "sim/network.h"

#include <deque>
#include <limits>
#include <stdexcept>
#include <utility>

namespace bolot::sim {

Network::Network(Simulator& sim, std::uint64_t rng_seed)
    : sim_(sim), rng_(rng_seed) {}

NodeId Network::add_node(std::string name) {
  nodes_.push_back(Node{std::move(name), nullptr, {}});
  routes_valid_ = false;
  return static_cast<NodeId>(nodes_.size() - 1);
}

const std::string& Network::node_name(NodeId id) const {
  return nodes_.at(id).name;
}

Link& Network::add_link(NodeId a, NodeId b, const LinkConfig& config,
                        Simulator& sim) {
  if (a >= nodes_.size() || b >= nodes_.size() || a == b) {
    throw std::invalid_argument("Network: bad link endpoints");
  }
  auto link = std::make_unique<Link>(sim, config, rng_.split());
  Link& ref = *link;
  // The link's sink hands the packet to the downstream node.
  ref.set_sink([this, b](Packet&& p) { deliver(b, std::move(p)); });
  links_.push_back(DirectedLink{a, b, std::move(link)});
  routes_valid_ = false;
  return ref;
}

Link& Network::add_duplex_link(NodeId a, NodeId b, const LinkConfig& config) {
  return add_duplex_link(a, b, config, sim_, sim_);
}

Link& Network::add_duplex_link(NodeId a, NodeId b, const LinkConfig& config,
                               Simulator& fwd_sim, Simulator& rev_sim) {
  Link& forward_link = add_link(a, b, config, fwd_sim);
  add_link(b, a, config, rev_sim);
  return forward_link;
}

void Network::set_receiver(NodeId node, Receiver receiver) {
  nodes_.at(node).receiver = std::move(receiver);
}

void Network::compute_routes() {
  // Per-destination BFS over reversed links gives minimum-hop next-hop
  // tables.  The paper's topologies are chains, but the builder supports
  // arbitrary graphs.
  const std::size_t n = nodes_.size();
  for (auto& node : nodes_) {
    node.next_hop.assign(n, -1);
  }
  for (NodeId dst = 0; dst < n; ++dst) {
    std::vector<std::uint32_t> dist(n, std::numeric_limits<std::uint32_t>::max());
    dist[dst] = 0;
    std::deque<NodeId> frontier{dst};
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop_front();
      // Relax every link u -> v: u can reach dst through v.
      for (std::size_t i = 0; i < links_.size(); ++i) {
        const auto& dl = links_[i];
        if (dl.to != v || !dl.up) continue;
        const NodeId u = dl.from;
        if (dist[u] != std::numeric_limits<std::uint32_t>::max()) continue;
        dist[u] = dist[v] + 1;
        nodes_[u].next_hop[dst] = static_cast<std::int32_t>(i);
        frontier.push_back(u);
      }
    }
  }
  routes_valid_ = true;
}

void Network::send(Packet&& packet) {
  if (!routes_valid_) compute_routes();
  if (packet.src >= nodes_.size() || packet.dst >= nodes_.size()) {
    throw std::invalid_argument("Network: packet endpoints out of range");
  }
  if (packet.dst == packet.src) {
    deliver(packet.src, std::move(packet));
    return;
  }
  forward(packet.src, std::move(packet));
}

void Network::deliver(NodeId at, Packet&& packet) {
  if (packet.dst == at) {
    auto& receiver = nodes_[at].receiver;
    if (receiver) receiver(std::move(packet));
    return;  // no receiver: packet silently consumed
  }
  forward(at, std::move(packet));
}

void Network::forward(NodeId at, Packet&& packet) {
  const std::int32_t i = nodes_[at].next_hop[packet.dst];
  if (i < 0) {
    // No route.  From the origin this is a configuration error; mid-path
    // (e.g. a link went down while the packet was in flight) the router
    // just drops it, as a real one would.
    if (at == packet.src) {
      throw std::runtime_error("Network: no route from " + nodes_[at].name +
                               " to " + nodes_[packet.dst].name);
    }
    return;
  }
  links_[static_cast<std::size_t>(i)].link->enqueue(std::move(packet));
}

std::vector<TracerouteHop> Network::traceroute(NodeId src, NodeId dst) const {
  const std::vector<std::uint32_t> uids = route_links(src, dst);
  std::vector<TracerouteHop> hops{{src, nodes_.at(src).name}};
  for (const std::uint32_t i : uids) {
    const NodeId at = links_[i].to;
    hops.push_back({at, nodes_[at].name});
  }
  return hops;
}

std::vector<std::uint32_t> Network::route_links(NodeId src, NodeId dst) const {
  if (!routes_valid_) {
    throw std::logic_error("Network: compute_routes() before tracing a route");
  }
  std::vector<std::uint32_t> uids;
  for (NodeId at = src; at != dst;) {
    const std::int32_t i = nodes_.at(at).next_hop.at(dst);
    if (i < 0) throw std::runtime_error("Network: traceroute found no route");
    uids.push_back(static_cast<std::uint32_t>(i));
    at = links_[static_cast<std::size_t>(i)].to;
    if (uids.size() >= nodes_.size()) {
      throw std::logic_error("Network: routing loop detected");
    }
  }
  return uids;
}

void Network::set_link_down(NodeId a, NodeId b) {
  for (auto& dl : links_) {
    if (dl.from == a && dl.to == b) {
      dl.up = false;
      compute_routes();
      return;
    }
  }
  throw std::out_of_range("Network: no such link");
}

std::uint64_t Network::total_overflow_drops() const {
  std::uint64_t total = 0;
  for (const auto& dl : links_) total += dl.link->stats().overflow_drops;
  return total;
}

std::uint64_t Network::total_random_drops() const {
  std::uint64_t total = 0;
  for (const auto& dl : links_) total += dl.link->stats().random_drops;
  return total;
}

std::uint64_t Network::total_channel_drops() const {
  std::uint64_t total = 0;
  for (const auto& dl : links_) total += dl.link->stats().channel_drops;
  return total;
}

std::uint64_t Network::total_delivered() const {
  std::uint64_t total = 0;
  for (const auto& dl : links_) total += dl.link->stats().delivered;
  return total;
}

}  // namespace bolot::sim
