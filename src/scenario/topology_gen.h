// Deterministic seeded topology generators for internet-scale runs.
//
// Two families, both emitting a TopologyPlan — a pure-value description of
// nodes, duplex edges, and PDES partition hints — that instantiate_topology
// turns into a live Network bound to one Simulator per domain:
//
//   * kFatTree     — the classic k-ary fat-tree (k pods of k/2 edge + k/2
//                    aggregation switches, (k/2)^2 core switches), hosts
//                    hanging off edge switches.  Partition hint = pod;
//                    core switches are spread round-robin.
//   * kAsHierarchy — a 2-level AS-like hierarchy: a full mesh of core
//                    routers, each providing transit to a set of stub
//                    ASes, plus seeded random stub-stub peering shortcuts.
//                    Partition hint = provider core.
//
// Wiring is a pure function of the spec (including its seed — propagation
// delays carry seeded jitter), so the same spec generates byte-identical
// plans on every run and across PDES domain counts; the audit fuzzer
// asserts digest equality of whole runs over these topologies.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/network.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::scenario {

struct TopologySpec {
  enum class Family : std::uint8_t { kFatTree, kAsHierarchy };
  Family family = Family::kFatTree;
  std::uint64_t seed = 1;

  // --- kFatTree knobs ---
  std::size_t fat_tree_k = 4;  // even, >= 2: k pods, (k/2)^2 cores
  std::size_t hosts_per_edge = 2;

  // --- kAsHierarchy knobs ---
  std::size_t core_count = 4;
  std::size_t stubs_per_core = 3;
  std::size_t hosts_per_stub = 2;
  /// Seeded random stub-stub peering shortcuts (0 = strict hierarchy).
  std::size_t peer_links = 2;

  // Both families share fixed per-tier link parameters (core 100 Mb/s,
  // aggregation 40 Mb/s, edge 10 Mb/s; topology_gen.cpp).
};

/// Pure-value wiring: everything needed to rebuild the Network, plus the
/// PDES partition hints the domains clamp is checked against.  Generated
/// fabrics and the paper's measured paths (scenarios.cpp) are both plans.
struct TopologyPlan {
  struct NodeSpec {
    std::string name;
    std::size_t partition = 0;
    bool is_host = false;
  };
  struct EdgeSpec {
    std::uint32_t a = 0, b = 0;  // indices into nodes; instantiated duplex
    /// The a -> b direction.  b -> a gets the same config without the
    /// channel: it models the probe direction only, so the echo path stays
    /// an ideal link and measured loss attributes cleanly (MODEL_NOTES
    /// §13).
    sim::LinkConfig link;
  };

  std::vector<NodeSpec> nodes;
  std::vector<EdgeSpec> edges;
  /// Number of distinct partition hints (== max partition + 1).
  std::size_t partition_count = 1;
  /// Node indices of hosts (probe endpoints / flow sources), in id order.
  std::vector<std::uint32_t> hosts;

  /// FNV-1a over the complete wiring (names, partitions, edge tuples,
  /// rates, propagations, buffers): two plans are identically wired iff
  /// their digests match, which is what the determinism tests compare.
  std::uint64_t wiring_digest() const;
};

TopologyPlan generate_topology(const TopologySpec& spec);

struct BuiltTopology {
  std::vector<sim::NodeId> nodes;        // plan.nodes order
  std::vector<std::size_t> node_domain;  // for ParallelSimulation::attach
};

/// Instantiates `plan` into `net` across `domains` PDES domains: node i
/// lands in domain partition_i * domains / partition_count, each edge
/// becomes two directed links, a -> b first, each homed in its source
/// node's domain via `sim_of(domain)`.  Edge order is plan order, so the
/// Network's per-link rng split order — and every random stream — is a
/// function of the plan alone, not of the domain count.
BuiltTopology instantiate_topology(
    const TopologyPlan& plan, sim::Network& net, std::size_t domains,
    const std::function<sim::Simulator&(std::size_t)>& sim_of);

}  // namespace bolot::scenario
