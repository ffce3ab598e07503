// Composed topology-aware collectives (ROADMAP item 1), built entirely from
// Rank::send / Rank::recv point-to-point primitives in the ExaComm/HiCCL
// style: a collective is a fixed schedule of striped intra-node and
// inter-node phases (split → inter → intra) rather than a monolithic
// primitive. Phasing for the personalised exchange:
//
//   split (intra):  every non-leader funnels its remote-bound payload to
//                   its node leader in ONE message;
//   inter:          leaders exchange ONE combined message per ordered node
//                   pair — the expensive link is crossed exactly once per
//                   pair, however many ranks share each node;
//   intra:          the destination leader redistributes each received
//                   bundle to its node peers; own-node payloads travel
//                   directly between node-mates.
//
// Framing carries no metadata: SPMD callers are deterministic, so both
// sides read every bundle size from a shared size oracle (the pipeline's
// exchange schedule, built from octrees reproducible from (grid, params)).
// All blocking waits sit in Rank::recv / barrier, so a peer failure
// unwinds these collectives with RankAborted exactly like the built-ins.
// The *_traffic functions at the end replay each collective's message
// pattern on such a size table, so only this module knows that pattern.
#pragma once

#include <functional>
#include <vector>

#include "comm/cost_model.hpp"
#include "comm/sim_cluster.hpp"
#include "comm/topology.hpp"

namespace lc::comm {

/// Doubles rank `src` addresses to node `dst_node`. Must be a pure function
/// of (src, dst_node) agreed by every rank.
using NodeBundleSizes = std::function<std::size_t(int src, int dst_node)>;

/// Node-multicast personalised exchange: `outgoing[d]` is this rank's
/// bundle for node d, and EVERY rank of node d receives it (the caller
/// packs a bundle once per destination node — the dedup that makes
/// inter-node bytes drop below the flat per-rank exchange — and each
/// receiver picks out the part it needs). Returns the received bundles
/// indexed by SOURCE RANK: incoming[s] is rank s's bundle for this rank's
/// node (incoming[id()] is the self bundle). Counts one collective round.
[[nodiscard]] std::vector<std::vector<double>> node_multicast_exchange(
    Rank& rank, const std::vector<std::vector<double>>& outgoing,
    const NodeBundleSizes& bundle_doubles);

/// Per-level wire traffic of Rank::all_to_all when rank `src` ships
/// doubles[src][dst] to rank `dst`: one message per ordered rank pair
/// (empty ones included), self-delivery excluded, classified by node
/// co-residency.
[[nodiscard]] LevelTraffic all_to_all_traffic(
    const Topology& topo, const std::vector<std::vector<std::size_t>>& doubles);

/// Per-level wire traffic of node_multicast_exchange when rank `src`
/// addresses doubles[src][d] to node d: exactly the messages the split,
/// inter and intra phases above send, empty ones included.
[[nodiscard]] LevelTraffic node_multicast_traffic(
    const Topology& topo, const std::vector<std::vector<std::size_t>>& doubles);

}  // namespace lc::comm
