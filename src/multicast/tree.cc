#include "multicast/tree.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <stdexcept>

namespace whale::multicast {

MulticastTree::MulticastTree() {
  parent_.push_back(-1);
  children_.emplace_back();
  layer_.push_back(0);
  order_.push_back(0);
}

MulticastTree MulticastTree::build_nonblocking(int n, int dstar) {
  if (n < 0) throw std::invalid_argument("n < 0");
  if (dstar < 1) throw std::invalid_argument("dstar < 1");
  MulticastTree t;
  t.parent_.reserve(static_cast<size_t>(n) + 1);
  int added = 0;
  while (added < n) {
    // One construction round (one logical layer, Algorithm 1 lines 5-15):
    // every node already in the tree with spare out-degree connects one new
    // destination; nodes added this round join from the next round on.
    const size_t size = t.order_.size();
    bool progress = false;
    for (size_t i = 0; i < size && added < n; ++i) {
      const int v = t.order_[i];
      if (t.out_degree(v) < dstar) {
        const int c = ++added;  // node ids follow insertion (BFS) order
        t.parent_.push_back(v);
        t.children_.emplace_back();
        t.layer_.push_back(0);  // fixed by recompute_layers below
        t.order_.push_back(c);
        t.children_[static_cast<size_t>(v)].push_back(c);
        progress = true;
      }
    }
    assert(progress && "construction round added no node");
    (void)progress;
  }
  t.recompute_layers();
  return t;
}

MulticastTree MulticastTree::build_binomial(int n) {
  // A binomial tree is the non-blocking tree without a degree cap.
  return build_nonblocking(n, std::numeric_limits<int>::max() - 1);
}

MulticastTree MulticastTree::build_sequential(int n) {
  MulticastTree t;
  for (int i = 1; i <= n; ++i) {
    t.parent_.push_back(0);
    t.children_.emplace_back();
    t.layer_.push_back(0);
    t.children_[0].push_back(i);
  }
  // Time-unit layers: the source reaches its i-th destination in unit i.
  t.recompute_layers();
  return t;
}

int MulticastTree::max_out_degree() const {
  int m = 0;
  for (const auto& c : children_) m = std::max(m, static_cast<int>(c.size()));
  return m;
}

int MulticastTree::depth() const {
  int m = 0;
  for (int v : order_) m = std::max(m, layer_[static_cast<size_t>(v)]);
  return m;
}

void MulticastTree::detach(int v) {
  const int p = parent_[static_cast<size_t>(v)];
  assert(p >= 0);
  auto& pc = children_[static_cast<size_t>(p)];
  for (size_t i = 0; i < pc.size(); ++i) {
    if (pc[i] == v) {
      pc.erase(pc.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  parent_[static_cast<size_t>(v)] = -1;
}

void MulticastTree::attach(int v, int new_parent) {
  assert(parent_[static_cast<size_t>(v)] == -1);
  parent_[static_cast<size_t>(v)] = new_parent;
  children_[static_cast<size_t>(new_parent)].push_back(v);
}

void MulticastTree::recompute_layers() {
  // Logical layers are *reception time units*, not hop counts: a node
  // relays the tuple to its children one per unit, so the k-th child
  // (0-based) of v receives at layer(v) + k + 1. This matches the paper's
  // Fig. 6 labeling (T4-1 is two hops from S but on logical layer 4).
  for (auto& l : layer_) l = -1;
  order_.clear();
  std::deque<int> q{0};
  layer_[0] = 0;
  std::vector<int> reached{0};
  while (!q.empty()) {
    const int v = q.front();
    q.pop_front();
    const auto& cs = children_[static_cast<size_t>(v)];
    for (size_t k = 0; k < cs.size(); ++k) {
      layer_[static_cast<size_t>(cs[k])] =
          layer_[static_cast<size_t>(v)] + static_cast<int>(k) + 1;
      reached.push_back(cs[k]);
      q.push_back(cs[k]);
    }
  }
  // Traversal order "from S to the maximum layer": sorted by reception
  // time, ties by node id (deterministic).
  order_ = std::move(reached);
  std::sort(order_.begin(), order_.end(), [this](int a, int b) {
    const int la = layer_[static_cast<size_t>(a)];
    const int lb = layer_[static_cast<size_t>(b)];
    return la != lb ? la < lb : a < b;
  });
}

int MulticastTree::find_open_slot(int dstar) const {
  for (int v : order_) {
    if (out_degree(v) < dstar) return v;
  }
  return -1;
}

std::vector<Move> MulticastTree::plan_scale_down(int new_dstar) {
  if (new_dstar < 1) throw std::invalid_argument("dstar < 1");
  std::vector<Move> moves;
  // Pass 1 (paper: traverse S -> max layer, mark offending subtrees): for
  // every node exceeding the new cap, the latest-connected excess children
  // are detached together with their subtrees.
  std::vector<int> marked;
  for (int v : order_) {
    const auto& cs = children_[static_cast<size_t>(v)];
    if (static_cast<int>(cs.size()) > new_dstar) {
      for (size_t i = static_cast<size_t>(new_dstar); i < cs.size(); ++i) {
        marked.push_back(cs[i]);
      }
    }
  }
  std::vector<std::pair<int, int>> detached;  // (node, old_parent)
  for (int m : marked) {
    detached.emplace_back(m, parent_[static_cast<size_t>(m)]);
    detach(m);
  }
  recompute_layers();
  // Pass 2: re-insert each marked subtree at the shallowest open position.
  for (const auto& [m, old_parent] : detached) {
    const int slot = find_open_slot(new_dstar);
    assert(slot >= 0 && "scale-down found no open slot");
    attach(m, slot);
    recompute_layers();
    moves.push_back(Move{m, old_parent, slot});
  }
  return moves;
}

std::vector<Move> MulticastTree::plan_scale_up(int new_dstar) {
  if (new_dstar < 1) throw std::invalid_argument("dstar < 1");
  std::vector<Move> moves;
  while (true) {
    if (order_.size() <= 1) break;
    // The paper traverses from the last destination instance towards S: the
    // rescheduled instance is the deepest (last in BFS order) endpoint.
    const int v = order_.back();
    assert(children_[static_cast<size_t>(v)].empty());
    const int old_parent = parent_[static_cast<size_t>(v)];
    // Shallowest node with spare degree, ignoring v itself.
    int slot = -1;
    for (int u : order_) {
      if (u == v) continue;
      if (out_degree(u) < new_dstar) {
        slot = u;
        break;
      }
    }
    if (slot < 0) break;
    // Stop once the new position would be on the same (or deeper) logical
    // layer as the current one — no more latency to win. As the
    // (deg+1)-th child of `slot`, v would receive at
    // layer(slot) + deg(slot) + 1 time units.
    const int new_layer = layer_[static_cast<size_t>(slot)] +
                          out_degree(slot) + 1;
    if (new_layer >= layer_[static_cast<size_t>(v)]) break;
    detach(v);
    attach(v, slot);
    recompute_layers();
    moves.push_back(Move{v, old_parent, slot});
  }
  return moves;
}

int MulticastTree::num_removed() const {
  int n = 0;
  for (uint8_t r : removed_) n += r ? 1 : 0;
  return n;
}

std::vector<Move> MulticastTree::repair(int v, int dstar) {
  if (v <= 0 || static_cast<size_t>(v) >= parent_.size())
    throw std::invalid_argument("repair: bad node");
  if (removed(v)) throw std::invalid_argument("repair: node already removed");
  if (dstar < 1) throw std::invalid_argument("dstar < 1");
  if (removed_.size() < parent_.size()) removed_.resize(parent_.size(), 0);
  removed_[static_cast<size_t>(v)] = 1;
  detach(v);
  // Orphan each child subtree, then re-parent them shallowest-first. The
  // subtrees stay intact — only the single connection to the dead relay is
  // replaced, matching the minimal-moves spirit of dynamic switching.
  std::vector<int> orphans = children_[static_cast<size_t>(v)];
  for (int c : orphans) detach(c);
  recompute_layers();  // drops v and the orphans from order_
  std::vector<Move> moves;
  for (int c : orphans) {
    const int slot = find_open_slot(dstar);
    assert(slot >= 0 && "repair found no open slot");
    attach(c, slot);
    recompute_layers();
    moves.push_back(Move{c, v, slot});
  }
  return moves;
}

std::vector<Move> MulticastTree::restore(int v, int dstar) {
  if (!removed(v)) throw std::invalid_argument("restore: node not removed");
  if (dstar < 1) throw std::invalid_argument("dstar < 1");
  removed_[static_cast<size_t>(v)] = 0;
  const int slot = find_open_slot(dstar);
  assert(slot >= 0 && "restore found no open slot");
  attach(v, slot);
  recompute_layers();
  return {Move{v, -1, slot}};
}

std::string MulticastTree::validate(int dstar) const {
  const size_t n = parent_.size();
  if (children_.size() != n || layer_.size() != n) return "size mismatch";
  if (parent_[0] != -1) return "source has a parent";
  // parent/children consistency
  for (size_t v = 0; v < n; ++v) {
    for (int c : children_[v]) {
      if (c < 0 || static_cast<size_t>(c) >= n) return "child out of range";
      if (parent_[static_cast<size_t>(c)] != static_cast<int>(v)) {
        return "child " + std::to_string(c) + " does not point back to " +
               std::to_string(v);
      }
    }
  }
  // Removed (crashed) nodes must be fully detached; they are excluded from
  // the connectivity / order checks below.
  const size_t alive = n - static_cast<size_t>(num_removed());
  for (size_t v = 0; v < n; ++v) {
    if (!removed(static_cast<int>(v))) continue;
    if (parent_[v] != -1 || !children_[v].empty()) {
      return "removed node " + std::to_string(v) + " still connected";
    }
  }
  // connectivity + reception-time layers via BFS
  std::vector<int> depth(n, -1);
  std::deque<int> q{0};
  depth[0] = 0;
  size_t seen = 0;
  while (!q.empty()) {
    const int v = q.front();
    q.pop_front();
    ++seen;
    const auto& cs = children_[static_cast<size_t>(v)];
    for (size_t k = 0; k < cs.size(); ++k) {
      const int c = cs[k];
      if (removed(c)) return "removed node reachable from source";
      if (depth[static_cast<size_t>(c)] != -1) return "node visited twice";
      depth[static_cast<size_t>(c)] =
          depth[static_cast<size_t>(v)] + static_cast<int>(k) + 1;
      q.push_back(c);
    }
  }
  if (seen != alive) return "tree not fully connected";
  for (size_t v = 0; v < n; ++v) {
    if (removed(static_cast<int>(v))) continue;
    if (layer_[v] != depth[v]) {
      return "layer mismatch at node " + std::to_string(v);
    }
  }
  if (order_.size() != alive) return "order size mismatch";
  if (dstar > 0) {
    for (size_t v = 0; v < n; ++v) {
      if (static_cast<int>(children_[v].size()) > dstar) {
        return "node " + std::to_string(v) + " exceeds out-degree cap";
      }
    }
  }
  return "";
}

}  // namespace whale::multicast
