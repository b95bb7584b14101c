// Rack-aware placement of new operator instances (DESIGN.md §14).
//
// The fig33/34 rack model (net::ClusterSpec) stripes nodes across racks
// in contiguous blocks; inter-rack hops cost 1.75x the Ethernet latency
// and 2x the InfiniBand latency of intra-rack ones. Placement therefore
// prefers hosts in racks already serving the operator (new instances
// join the racks its traffic is flowing into) and breaks ties toward the
// least-loaded node, then the lowest node id — a total order, so the
// same cluster state always yields the same host.
#pragma once

#include <algorithm>
#include <vector>

#include "net/cluster.h"

namespace whale::elastic {

class Placement {
 public:
  explicit Placement(const net::ClusterSpec& cluster) : cluster_(&cluster) {}

  // Picks the host node for one new instance of an operator.
  //   peer_nodes: nodes currently hosting the operator's instances.
  //   node_load:  per-node executor counts (size == cluster num_nodes).
  // Rack-locality first: racks are ranked by how many of the operator's
  // instances they already host (more is better — the multicast subtree
  // feeding the rack already exists); within the chosen rack the node
  // with the fewest executors wins, lowest id as the final tiebreak.
  int pick(const std::vector<int>& peer_nodes,
           const std::vector<int>& node_load) const {
    std::vector<int> rack_peers(static_cast<size_t>(cluster_->num_racks), 0);
    for (int n : peer_nodes) {
      ++rack_peers[static_cast<size_t>(cluster_->rack_of(n))];
    }
    int best = -1;
    for (int n = 0; n < cluster_->num_nodes; ++n) {
      if (best < 0 || better(n, best, rack_peers, node_load)) best = n;
    }
    return best;
  }

 private:
  bool better(int a, int b, const std::vector<int>& rack_peers,
              const std::vector<int>& node_load) const {
    const int ra = rack_peers[static_cast<size_t>(cluster_->rack_of(a))];
    const int rb = rack_peers[static_cast<size_t>(cluster_->rack_of(b))];
    if (ra != rb) return ra > rb;
    const int la = a < static_cast<int>(node_load.size()) ? node_load[a] : 0;
    const int lb = b < static_cast<int>(node_load.size()) ? node_load[b] : 0;
    if (la != lb) return la < lb;
    return a < b;
  }

  const net::ClusterSpec* cluster_;
};

}  // namespace whale::elastic
