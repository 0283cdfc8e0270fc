#include "scenario/topology_gen.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/rng.h"

namespace bolot::scenario {

namespace {

/// FNV-1a, the digest primitive the audit fuzzer uses for event streams;
/// here it fingerprints wiring.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix(const std::string& s) {
    mix(s.size());
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Link parameters of one tier, shared by both families.
struct Tier {
  Bandwidth rate;
  Duration propagation;
  std::size_t buffer_packets;
};
constexpr Tier kCoreTier{Bandwidth::bps(100e6), Duration::millis(2), 256};
constexpr Tier kAggregationTier{Bandwidth::bps(40e6), Duration::millis(1),
                                256};
constexpr Tier kEdgeTier{Bandwidth::bps(10e6), Duration::micros(200), 64};

/// Seeded multiplicative jitter applied to every propagation delay,
/// uniform in [1-x, 1+x]; keeps event timestamps off exact ties.
constexpr double kPropagationJitter = 0.2;

/// `base` jittered by kPropagationJitter from a SplitMix64 stream; pure
/// function of the draw order, which is fixed by the generation code
/// below.
Duration jittered(Duration base, SplitMix64& stream) {
  const double u =
      static_cast<double>(stream.next() >> 11) * 0x1.0p-53;  // [0, 1)
  const double factor =
      1.0 - kPropagationJitter + 2.0 * kPropagationJitter * u;
  return Duration::nanos(static_cast<std::int64_t>(
      static_cast<double>(base.count_nanos()) * factor));
}

/// Appends the duplex edge a <-> b, named after its endpoints, with the
/// tier's propagation jittered by the stream's next draw.
void add_edge(TopologyPlan& plan, SplitMix64& stream, std::uint32_t a,
              std::uint32_t b, const Tier& tier) {
  sim::LinkConfig link;
  link.name = plan.nodes[a].name + "<->" + plan.nodes[b].name;
  link.rate = tier.rate;
  link.propagation = jittered(tier.propagation, stream);
  link.buffer_packets = tier.buffer_packets;
  plan.edges.push_back({a, b, std::move(link)});
}

TopologyPlan generate_fat_tree(const TopologySpec& spec) {
  const std::size_t k = spec.fat_tree_k;
  if (k < 2 || k % 2 != 0) {
    throw std::invalid_argument("generate_topology: fat_tree_k must be even");
  }
  if (spec.hosts_per_edge == 0) {
    throw std::invalid_argument("generate_topology: hosts_per_edge == 0");
  }
  const std::size_t half = k / 2;
  SplitMix64 stream(derive_stream_seed(spec.seed, 0xFA77EE));

  TopologyPlan plan;
  plan.partition_count = k;

  // Node layout: per pod [edge 0..half) [agg 0..half) [hosts]; cores last.
  std::vector<std::vector<std::uint32_t>> pod_edges(k), pod_aggs(k);
  for (std::size_t p = 0; p < k; ++p) {
    const std::string pod = "pod" + std::to_string(p);
    for (std::size_t e = 0; e < half; ++e) {
      pod_edges[p].push_back(static_cast<std::uint32_t>(plan.nodes.size()));
      plan.nodes.push_back({pod + "-edge" + std::to_string(e), p, false});
    }
    for (std::size_t a = 0; a < half; ++a) {
      pod_aggs[p].push_back(static_cast<std::uint32_t>(plan.nodes.size()));
      plan.nodes.push_back({pod + "-agg" + std::to_string(a), p, false});
    }
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t h = 0; h < spec.hosts_per_edge; ++h) {
        const std::uint32_t id = static_cast<std::uint32_t>(plan.nodes.size());
        plan.nodes.push_back({pod + "-edge" + std::to_string(e) + "-host" +
                                  std::to_string(h),
                              p, true});
        plan.hosts.push_back(id);
        add_edge(plan, stream, pod_edges[p][e], id, kEdgeTier);
      }
    }
    // Full bipartite edge <-> aggregation inside the pod.
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t a = 0; a < half; ++a) {
        add_edge(plan, stream, pod_edges[p][e], pod_aggs[p][a],
                 kAggregationTier);
      }
    }
  }
  // Core switches: core (r, j) connects to aggregation switch r of every
  // pod.  Round-robin partitions spread the shared core across domains.
  for (std::size_t r = 0; r < half; ++r) {
    for (std::size_t j = 0; j < half; ++j) {
      const std::uint32_t core =
          static_cast<std::uint32_t>(plan.nodes.size());
      plan.nodes.push_back({"core-" + std::to_string(r) + "-" +
                                std::to_string(j),
                            (r * half + j) % k, false});
      for (std::size_t p = 0; p < k; ++p) {
        add_edge(plan, stream, pod_aggs[p][r], core, kCoreTier);
      }
    }
  }
  return plan;
}

TopologyPlan generate_as_hierarchy(const TopologySpec& spec) {
  if (spec.core_count < 2 || spec.stubs_per_core == 0 ||
      spec.hosts_per_stub == 0) {
    throw std::invalid_argument("generate_topology: malformed AS hierarchy");
  }
  SplitMix64 stream(derive_stream_seed(spec.seed, 0xA5A5A5));

  TopologyPlan plan;
  plan.partition_count = spec.core_count;

  std::vector<std::uint32_t> cores;
  std::vector<std::uint32_t> stubs;
  for (std::size_t c = 0; c < spec.core_count; ++c) {
    cores.push_back(static_cast<std::uint32_t>(plan.nodes.size()));
    plan.nodes.push_back({"core" + std::to_string(c), c, false});
  }
  // Full transit mesh between core routers.
  for (std::size_t i = 0; i < spec.core_count; ++i) {
    for (std::size_t j = i + 1; j < spec.core_count; ++j) {
      add_edge(plan, stream, cores[i], cores[j], kCoreTier);
    }
  }
  // Stub ASes ride in their provider's partition; hosts behind each stub.
  for (std::size_t c = 0; c < spec.core_count; ++c) {
    for (std::size_t s = 0; s < spec.stubs_per_core; ++s) {
      const std::uint32_t stub =
          static_cast<std::uint32_t>(plan.nodes.size());
      const std::string name =
          "as" + std::to_string(c) + "-stub" + std::to_string(s);
      plan.nodes.push_back({name, c, false});
      stubs.push_back(stub);
      add_edge(plan, stream, cores[c], stub, kAggregationTier);
      for (std::size_t h = 0; h < spec.hosts_per_stub; ++h) {
        const std::uint32_t host =
            static_cast<std::uint32_t>(plan.nodes.size());
        plan.nodes.push_back({name + "-host" + std::to_string(h), c, true});
        plan.hosts.push_back(host);
        add_edge(plan, stream, stub, host, kEdgeTier);
      }
    }
  }
  // Seeded stub-stub peering shortcuts: draw pairs deterministically,
  // skipping self-pairs and duplicates (bounded retries keep this a pure
  // function of the stream).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> peered;
  std::size_t added = 0, attempts = 0;
  while (added < spec.peer_links && attempts < spec.peer_links * 16 + 16) {
    ++attempts;
    const std::uint32_t x = stubs[stream.next() % stubs.size()];
    const std::uint32_t y = stubs[stream.next() % stubs.size()];
    if (x == y) continue;
    const std::uint32_t lo = std::min(x, y);
    const std::uint32_t hi = std::max(x, y);
    bool duplicate = false;
    for (const auto& p : peered) {
      if (p.first == lo && p.second == hi) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    peered.emplace_back(lo, hi);
    add_edge(plan, stream, lo, hi, kAggregationTier);
    ++added;
  }
  return plan;
}

}  // namespace

std::uint64_t TopologyPlan::wiring_digest() const {
  Fnv fnv;
  fnv.mix(nodes.size());
  for (const NodeSpec& node : nodes) {
    fnv.mix(node.name);
    fnv.mix(node.partition);
    fnv.mix(node.is_host ? 1u : 0u);
  }
  fnv.mix(edges.size());
  for (const EdgeSpec& edge : edges) {
    fnv.mix(edge.a);
    fnv.mix(edge.b);
    fnv.mix(double_bits(edge.link.rate.bps()));
    fnv.mix(static_cast<std::uint64_t>(edge.link.propagation.count_nanos()));
    fnv.mix(edge.link.buffer_packets);
  }
  fnv.mix(partition_count);
  fnv.mix(hosts.size());
  for (const std::uint32_t host : hosts) fnv.mix(host);
  return fnv.value();
}

TopologyPlan generate_topology(const TopologySpec& spec) {
  switch (spec.family) {
    case TopologySpec::Family::kFatTree:
      return generate_fat_tree(spec);
    case TopologySpec::Family::kAsHierarchy:
      return generate_as_hierarchy(spec);
  }
  throw std::invalid_argument("generate_topology: unknown family");
}

BuiltTopology instantiate_topology(
    const TopologyPlan& plan, sim::Network& net, std::size_t domains,
    const std::function<sim::Simulator&(std::size_t)>& sim_of) {
  if (plan.partition_count == 0 || domains == 0) {
    throw std::invalid_argument("instantiate_topology: zero partitions");
  }
  if (domains > plan.partition_count) {
    throw std::invalid_argument(
        "instantiate_topology: more domains than partition hints (clamp "
        "against TopologyPlan::partition_count first)");
  }
  BuiltTopology built;
  built.nodes.reserve(plan.nodes.size());
  built.node_domain.reserve(plan.nodes.size());
  for (const TopologyPlan::NodeSpec& node : plan.nodes) {
    built.nodes.push_back(net.add_node(node.name));
    built.node_domain.push_back(node.partition * domains /
                                plan.partition_count);
  }
  for (const TopologyPlan::EdgeSpec& edge : plan.edges) {
    sim::LinkConfig reverse = edge.link;
    reverse.channel.reset();
    net.add_link(built.nodes[edge.a], built.nodes[edge.b], edge.link,
                 sim_of(built.node_domain[edge.a]));
    net.add_link(built.nodes[edge.b], built.nodes[edge.a], reverse,
                 sim_of(built.node_domain[edge.b]));
  }
  return built;
}

}  // namespace bolot::scenario
