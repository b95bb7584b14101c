// Multicast tree structures (Sec. 3.2.2) and dynamic switching (Sec. 3.4).
//
// Nodes are numbered 0..n where node 0 is the source S and nodes 1..n are
// destination endpoints (worker processes under worker-oriented
// communication, task instances under instance-oriented communication).
//
// Three structures are provided:
//   - sequential: S sends to every destination directly (Storm behaviour);
//   - binomial:   RDMC's static binomial tree (= non-blocking with d* = inf);
//   - non-blocking: Algorithm 1 — a binomial tree whose per-node out-degree
//     is capped at d*.
//
// plan_scale_down / plan_scale_up implement the paper's dynamic switching:
// they mutate the tree to honour a new d* by moving as few endpoints as
// possible, and return the connection changes (Moves) so the engine can
// charge ControlMessage traffic and connection-establishment delay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace whale::multicast {

struct Move {
  int node;        // endpoint being re-attached
  int old_parent;  // connection to tear down
  int new_parent;  // connection to establish
};

class MulticastTree {
 public:
  // Builds a tree containing only the source (node 0).
  MulticastTree();

  static MulticastTree build_nonblocking(int n, int dstar);  // Algorithm 1
  static MulticastTree build_binomial(int n);
  static MulticastTree build_sequential(int n);

  int num_destinations() const { return static_cast<int>(parent_.size()) - 1; }
  int num_nodes() const { return static_cast<int>(parent_.size()); }

  int parent(int v) const { return parent_[static_cast<size_t>(v)]; }
  const std::vector<int>& children(int v) const {
    return children_[static_cast<size_t>(v)];
  }
  int out_degree(int v) const {
    return static_cast<int>(children_[static_cast<size_t>(v)].size());
  }
  int layer(int v) const { return layer_[static_cast<size_t>(v)]; }

  int max_out_degree() const;
  int depth() const;  // max layer

  // Structural invariants: every node reachable from S exactly once,
  // parent/children consistent, layers = BFS depth, and (if dstar > 0)
  // all out-degrees <= dstar. Returns an empty string when valid, else a
  // description of the violation (handy in test failure messages).
  std::string validate(int dstar = 0) const;

  // --- dynamic switching -------------------------------------------------
  // Negative scale-down: detach the subtrees that make any node exceed
  // `new_dstar` and re-insert them at the shallowest nodes with spare
  // degree. Returns the re-connections performed.
  std::vector<Move> plan_scale_down(int new_dstar);

  // Active scale-up: repeatedly move the deepest endpoint to the
  // shallowest node with out-degree < new_dstar; stops when a move would
  // not reduce the endpoint's layer. Returns the re-connections performed.
  std::vector<Move> plan_scale_up(int new_dstar);

  // --- fault recovery ----------------------------------------------------
  // Excises a crashed relay/endpoint: node v is marked removed (it keeps
  // its id but no longer participates), and each of its orphaned child
  // subtrees is re-parented at the shallowest surviving node with
  // out-degree < dstar. Returns the re-connections (old_parent == v).
  std::vector<Move> repair(int v, int dstar);

  // Re-admits a previously repaired node as a leaf at the shallowest open
  // position (old_parent == -1 in the returned move).
  std::vector<Move> restore(int v, int dstar);

  bool removed(int v) const {
    return static_cast<size_t>(v) < removed_.size() &&
           removed_[static_cast<size_t>(v)] != 0;
  }
  int num_removed() const;

 private:
  void add_child(int parent, int child);
  void detach(int v);
  void attach(int v, int new_parent);
  void recompute_layers();
  // First node in BFS order with out_degree < dstar; -1 if none.
  int find_open_slot(int dstar) const;

  std::vector<int> parent_;
  std::vector<std::vector<int>> children_;
  std::vector<int> layer_;
  std::vector<int> order_;
  // removed_[v] != 0 marks a crashed node: detached, absent from order_,
  // ignored by validate() and slot search. Lazily sized (empty == none).
  std::vector<uint8_t> removed_;
};

}  // namespace whale::multicast
