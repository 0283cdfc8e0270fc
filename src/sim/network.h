// Topology container: nodes, directed links, static shortest-path routing,
// and a traceroute facility used to regenerate the paper's Tables 1 and 2.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/link.h"
#include "sim/packet.h"
#include "sim/simulator.h"
#include "util/inplace_function.h"
#include "util/rng.h"

namespace bolot::sim {

/// One hop reported by traceroute.
struct TracerouteHop {
  NodeId node = kInvalidNode;
  std::string name;
};

class Network {
 public:
  /// Delivered packets are handed to the receiver registered at their
  /// destination node.  Inline storage (no std::function): a receiver
  /// closure must fit Link::kHookCapacity bytes, enforced at compile time.
  using Receiver =
      util::InplaceFunction<void(Packet&&), Link::kHookCapacity>;

  /// `rng_seed` seeds the per-link random-drop streams.
  Network(Simulator& sim, std::uint64_t rng_seed = 1);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  NodeId add_node(std::string name);
  std::size_t node_count() const { return nodes_.size(); }
  const std::string& node_name(NodeId id) const;

  /// Adds a pair of directed links (a->b and b->a) with the same
  /// configuration; returns the a->b link.  Links may be added only before
  /// the first send (routes are computed lazily and then frozen).
  Link& add_duplex_link(NodeId a, NodeId b, const LinkConfig& config);

  /// Adds a single directed link a->b whose events run on `sim`: the
  /// Network's own simulator, or under PDES the one driving the domain
  /// that owns node `a`.  RNG stream order is unchanged — links split
  /// from rng_ in add order either way — so a sharded build draws exactly
  /// the streams a sequential build of the same topology does.
  Link& add_link(NodeId a, NodeId b, const LinkConfig& config,
                 Simulator& sim);
  /// The PDES variant of add_duplex_link: each direction on its own
  /// simulator.
  Link& add_duplex_link(NodeId a, NodeId b, const LinkConfig& config,
                        Simulator& fwd_sim, Simulator& rev_sim);

  /// Flat link enumeration for the PDES partitioner (indices are stable
  /// once construction is done and double as the cross-domain link uid).
  std::size_t link_count() const { return links_.size(); }
  Link& link_at(std::size_t i) { return *links_.at(i).link; }
  NodeId link_source(std::size_t i) const { return links_.at(i).from; }
  NodeId link_target(std::size_t i) const { return links_.at(i).to; }

  /// Registers the application-level receiver for packets addressed to
  /// `node`.  At most one receiver per node.
  void set_receiver(NodeId node, Receiver receiver);

  /// Injects a packet at its source node; it is forwarded hop by hop.
  /// Throws if no route exists.
  void send(Packet&& packet);

  /// Minimum-hop path from src to dst, inclusive of both endpoints.
  std::vector<TracerouteHop> traceroute(NodeId src, NodeId dst) const;
  /// The same path as directed link uids (link_at indices), one per hop:
  /// the links a packet from src to dst is forwarded over.
  std::vector<std::uint32_t> route_links(NodeId src, NodeId dst) const;

  /// Forces (re)computation of the routing tables; otherwise computed on
  /// first send.
  void compute_routes();

  /// Administratively downs the directed link a->b and recomputes routes
  /// (a converged routing update; packets already on the link still
  /// arrive).  Throws if the link does not exist.
  void set_link_down(NodeId a, NodeId b);

  /// Sum of drops over all links, split by cause.
  std::uint64_t total_overflow_drops() const;
  std::uint64_t total_random_drops() const;
  std::uint64_t total_channel_drops() const;
  /// Sum of per-link deliveries (hop traversals, not end-to-end packets).
  std::uint64_t total_delivered() const;

 private:
  struct DirectedLink {
    NodeId from, to;
    std::unique_ptr<Link> link;
    bool up = true;
  };
  struct Node {
    std::string name;
    Receiver receiver;
    // next_hop[d] = index into links_ for the first hop toward d, or -1.
    std::vector<std::int32_t> next_hop;
  };

  void deliver(NodeId at, Packet&& packet);
  void forward(NodeId at, Packet&& packet);

  Simulator& sim_;
  Rng rng_;
  std::vector<Node> nodes_;
  std::vector<DirectedLink> links_;
  bool routes_valid_ = false;
};

}  // namespace bolot::sim
