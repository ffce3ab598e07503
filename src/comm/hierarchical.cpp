#include "comm/hierarchical.hpp"

#include <cstddef>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lc::comm {

namespace {

// Wire bytes by level for the composed exchanges, feeding the PR-5
// comm-volume accounting (tools/check_obs_outputs.py asserts these fire).
struct ExchangeLevelMetrics {
  obs::Counter& inter_bytes =
      obs::Registry::global().counter("exchange.inter_node_bytes");
  obs::Counter& intra_bytes =
      obs::Registry::global().counter("exchange.intra_node_bytes");

  static ExchangeLevelMetrics& get() {
    static ExchangeLevelMetrics m;
    return m;
  }
};

void count_send(const Topology& topo, int src, int dst, std::size_t doubles) {
  ExchangeLevelMetrics& m = ExchangeLevelMetrics::get();
  (topo.same_node(src, dst) ? m.intra_bytes : m.inter_bytes)
      .add(doubles * sizeof(double));
}

/// Adds `doubles` wire doubles in `msgs` messages to the level of (src, dst).
void count_traffic(LevelTraffic& t, const Topology& topo, int src, int dst,
                   std::size_t doubles, std::size_t msgs = 1) {
  if (topo.same_node(src, dst)) {
    t.intra_bytes += doubles * sizeof(double);
    t.intra_messages += msgs;
  } else {
    t.inter_bytes += doubles * sizeof(double);
    t.inter_messages += msgs;
  }
}

}  // namespace

std::vector<std::vector<double>> node_multicast_exchange(
    Rank& rank, const std::vector<std::vector<double>>& outgoing,
    const NodeBundleSizes& bundle_doubles) {
  LC_TRACE("comm.hier_exchange");
  const Topology& topo = rank.topology();
  const int me = rank.id();
  const int my_node = topo.node_of(me);
  const auto members = topo.members(my_node);
  const int leader = members.front();
  const int nodes = topo.nodes();
  LC_CHECK_ARG(static_cast<int>(outgoing.size()) == nodes,
               "node_multicast_exchange needs one bundle per node");
  for (int d = 0; d < nodes; ++d) {
    LC_CHECK_ARG(outgoing[static_cast<std::size_t>(d)].size() ==
                     bundle_doubles(me, d),
                 "outgoing bundle size disagrees with the size oracle");
  }

  std::vector<std::vector<double>> incoming(
      static_cast<std::size_t>(rank.size()));
  incoming[static_cast<std::size_t>(me)] =
      outgoing[static_cast<std::size_t>(my_node)];

  // Split phase (intra): own-node bundles travel directly between
  // node-mates; remote-bound bundles funnel through the leader.
  {
    LC_TRACE("comm.hier_split");
    for (const int q : members) {
      if (q == me) continue;
      rank.send(q, outgoing[static_cast<std::size_t>(my_node)]);
      count_send(topo, me, q,
                 outgoing[static_cast<std::size_t>(my_node)].size());
    }
    if (me != leader) {
      std::vector<double> remote;
      for (int d = 0; d < nodes; ++d) {
        if (d == my_node) continue;
        const auto& b = outgoing[static_cast<std::size_t>(d)];
        remote.insert(remote.end(), b.begin(), b.end());
      }
      rank.send(leader, remote);
      count_send(topo, me, leader, remote.size());
    }
  }

  if (me == leader) {
    // Gather the node's remote payloads (second message on each local
    // channel; the first is the own-node multicast).
    std::vector<std::vector<double>> gathered(
        static_cast<std::size_t>(rank.size()));
    for (const int q : members) {
      if (q == me) continue;
      incoming[static_cast<std::size_t>(q)] = rank.recv(q);
      gathered[static_cast<std::size_t>(q)] = rank.recv(q);
    }

    // Inter phase: ONE combined message per ordered node pair, holding
    // every local rank's bundle for that node in rank order.
    {
      LC_TRACE("comm.hier_inter");
      for (int d = 0; d < nodes; ++d) {
        if (d == my_node) continue;
        std::vector<double> combined;
        for (const int q : members) {
          if (q == me) {
            const auto& b = outgoing[static_cast<std::size_t>(d)];
            combined.insert(combined.end(), b.begin(), b.end());
            continue;
          }
          // q's gather message holds its bundles for nodes != my_node in
          // ascending node order; locate d's slice by the oracle.
          std::size_t offset = 0;
          for (int d2 = 0; d2 < d; ++d2) {
            if (d2 != my_node) offset += bundle_doubles(q, d2);
          }
          const std::size_t len = bundle_doubles(q, d);
          const auto& g = gathered[static_cast<std::size_t>(q)];
          LC_CHECK(offset + len <= g.size(), "gather framing mismatch");
          combined.insert(combined.end(),
                          g.begin() + static_cast<std::ptrdiff_t>(offset),
                          g.begin() + static_cast<std::ptrdiff_t>(offset + len));
        }
        rank.send(topo.leader_of(d), combined);
        count_send(topo, me, topo.leader_of(d), combined.size());
      }
    }

    // Intra phase: forward each remote node's bundle to the local peers and
    // split it into per-source-rank views.
    {
      LC_TRACE("comm.hier_intra");
      for (int s = 0; s < nodes; ++s) {
        if (s == my_node) continue;
        const std::vector<double> bundle = rank.recv(topo.leader_of(s));
        for (const int q : members) {
          if (q == me) continue;
          rank.send(q, bundle);
          count_send(topo, me, q, bundle.size());
        }
        std::size_t offset = 0;
        for (const int src : topo.members(s)) {
          const std::size_t len = bundle_doubles(src, my_node);
          LC_CHECK(offset + len <= bundle.size(), "inter framing mismatch");
          incoming[static_cast<std::size_t>(src)].assign(
              bundle.begin() + static_cast<std::ptrdiff_t>(offset),
              bundle.begin() + static_cast<std::ptrdiff_t>(offset + len));
          offset += len;
        }
        LC_CHECK(offset == bundle.size(), "inter framing mismatch");
      }
    }
  } else {
    // Own-node multicasts (each local channel's first message)...
    for (const int q : members) {
      if (q == me) continue;
      incoming[static_cast<std::size_t>(q)] = rank.recv(q);
    }
    // ...then the forwarded remote bundles, in ascending source-node order
    // (the order the leader sends them).
    LC_TRACE("comm.hier_intra");
    for (int s = 0; s < nodes; ++s) {
      if (s == my_node) continue;
      const std::vector<double> bundle = rank.recv(leader);
      std::size_t offset = 0;
      for (const int src : topo.members(s)) {
        const std::size_t len = bundle_doubles(src, my_node);
        LC_CHECK(offset + len <= bundle.size(), "forward framing mismatch");
        incoming[static_cast<std::size_t>(src)].assign(
            bundle.begin() + static_cast<std::ptrdiff_t>(offset),
            bundle.begin() + static_cast<std::ptrdiff_t>(offset + len));
        offset += len;
      }
      LC_CHECK(offset == bundle.size(), "forward framing mismatch");
    }
  }

  if (me == 0) rank.collective_round();
  rank.barrier();
  return incoming;
}

LevelTraffic all_to_all_traffic(
    const Topology& topo,
    const std::vector<std::vector<std::size_t>>& doubles) {
  LevelTraffic t;
  for (int src = 0; src < topo.ranks(); ++src) {
    for (int dst = 0; dst < topo.ranks(); ++dst) {
      if (dst == src) continue;
      count_traffic(t, topo, src, dst,
                    doubles[static_cast<std::size_t>(src)]
                           [static_cast<std::size_t>(dst)]);
    }
  }
  return t;
}

LevelTraffic node_multicast_traffic(
    const Topology& topo,
    const std::vector<std::vector<std::size_t>>& doubles) {
  const auto at = [&](int src, int node) {
    return doubles[static_cast<std::size_t>(src)]
                  [static_cast<std::size_t>(node)];
  };
  LevelTraffic t;
  for (int me = 0; me < topo.ranks(); ++me) {
    const int my_node = topo.node_of(me);
    const auto members = topo.members(my_node);
    const auto peers = members.size() - 1;
    // Split: own-node multicast, then non-leaders funnel every remote-bound
    // bundle to the leader in one message.
    count_traffic(t, topo, me, me, peers * at(me, my_node), peers);
    if (!topo.is_leader(me)) {
      std::size_t remote = 0;
      for (int d = 0; d < topo.nodes(); ++d) {
        if (d != my_node) remote += at(me, d);
      }
      count_traffic(t, topo, me, me, remote);
      continue;
    }
    for (int d = 0; d < topo.nodes(); ++d) {
      if (d == my_node) continue;
      // Inter: one combined message per ordered node pair...
      std::size_t combined = 0;
      for (const int q : members) combined += at(q, d);
      count_traffic(t, topo, me, topo.leader_of(d), combined);
      // ...intra: forwarded to every local peer.
      std::size_t inbound = 0;
      for (const int q : topo.members(d)) inbound += at(q, my_node);
      count_traffic(t, topo, me, me, peers * inbound, peers);
    }
  }
  return t;
}

}  // namespace lc::comm
