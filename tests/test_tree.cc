// Multicast tree structure tests: Algorithm 1 construction, the paper's
// worked examples (Figs. 6 and 8), dynamic switching invariants, and the
// multicast-capability recurrence (Theorem 2) cross-checked against the
// constructed trees.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "multicast/capability.h"
#include "multicast/tree.h"

namespace whale::multicast {
namespace {

TEST(Tree, EmptyTreeIsJustTheSource) {
  MulticastTree t;
  EXPECT_EQ(t.num_destinations(), 0);
  EXPECT_EQ(t.num_nodes(), 1);
  EXPECT_EQ(t.out_degree(0), 0);
  EXPECT_EQ(t.validate(), "");
}

TEST(Tree, Fig6ExampleStructure) {
  // |T| = 7, d* = 2 — the paper's Fig. 6. Expected construction rounds:
  // round 1: S->1; round 2: S->2, 1->3; round 3: 1->4, 2->5, 3->6
  // (S is saturated); round 4: 2->7.
  auto t = MulticastTree::build_nonblocking(7, 2);
  EXPECT_EQ(t.validate(2), "");
  EXPECT_EQ(t.num_destinations(), 7);
  EXPECT_EQ(t.parent(1), 0);
  EXPECT_EQ(t.parent(2), 0);
  EXPECT_EQ(t.parent(3), 1);
  EXPECT_EQ(t.parent(4), 1);
  EXPECT_EQ(t.parent(5), 2);
  EXPECT_EQ(t.parent(6), 3);
  EXPECT_EQ(t.parent(7), 2);
  EXPECT_EQ(t.out_degree(0), 2);
  // Logical layers are reception time units (Fig. 6): T1-1 = node 1 on
  // layer 1; T2-1/T2-2 = nodes 2,3 on layer 2; T3-1..3 = nodes 4,5,6 on
  // layer 3; T4-1 = node 7 on layer 4. Four time units to cover |T| = 7.
  EXPECT_EQ(t.depth(), 4);
  EXPECT_EQ(t.layer(1), 1);
  EXPECT_EQ(t.layer(2), 2);
  EXPECT_EQ(t.layer(3), 2);
  EXPECT_EQ(t.layer(4), 3);
  EXPECT_EQ(t.layer(5), 3);
  EXPECT_EQ(t.layer(6), 3);
  EXPECT_EQ(t.layer(7), 4);
}

TEST(Tree, BinomialSourceDegreeIsCeilLog2) {
  for (int n : {1, 3, 7, 15, 30, 100, 480}) {
    auto t = MulticastTree::build_binomial(n);
    EXPECT_EQ(t.validate(), "") << "n=" << n;
    int d = 0;
    while ((1 << d) < n + 1) ++d;
    EXPECT_EQ(t.out_degree(0), d) << "n=" << n;
  }
}

TEST(Tree, SequentialIsAStar) {
  auto t = MulticastTree::build_sequential(29);
  EXPECT_EQ(t.validate(), "");
  EXPECT_EQ(t.out_degree(0), 29);
  // The source relays one destination per time unit: 29 units to cover.
  EXPECT_EQ(t.depth(), 29);
  for (int v = 1; v <= 29; ++v) EXPECT_EQ(t.parent(v), 0);
}

// The two parameter sweeps below register their cases directly rather than
// through TEST_P + INSTANTIATE_TEST_SUITE_P, because an instantiation pairs
// every check with every point and some checks apply to only part of a
// sweep. Each case keeps the name an instantiation would give it: suite
// "Sweep/<fixture>", test "<check>/<index>", and the printed point as its
// value parameter, which ctest uses in place of the index.
template <typename P>
class SweepCase : public ::testing::Test {
 public:
  SweepCase(P p, void (*check)(const P&)) : p_(p), check_(check) {}
  void TestBody() override { check_(p_); }

 private:
  P p_;
  void (*check_)(const P&);
};

template <typename P>
void register_sweep(const char* fixture, const char* check_name,
                    void (*check)(const P&), const std::vector<P>& points) {
  const std::string suite = std::string("Sweep/") + fixture;
  for (size_t i = 0; i < points.size(); ++i) {
    const P p = points[i];
    const std::string name = std::string(check_name) + "/" + std::to_string(i);
    ::testing::RegisterTest(
        suite.c_str(), name.c_str(), nullptr,
        ::testing::PrintToString(p).c_str(), __FILE__, __LINE__,
        [p, check]() -> SweepCase<P>* { return new SweepCase<P>(p, check); });
  }
}

struct TreeParam {
  int n;
  int dstar;
};

void structural_invariants(const TreeParam& p) {
  const auto [n, dstar] = p;
  auto t = MulticastTree::build_nonblocking(n, dstar);
  // Connected, consistent, degree-capped.
  EXPECT_EQ(t.validate(dstar), "") << "n=" << n << " d*=" << dstar;
  EXPECT_EQ(t.num_destinations(), n);
  // Source out-degree = min(d*, binomial degree) (Sec. 3.2.2).
  int dlog = 0;
  while ((1 << dlog) < n + 1) ++dlog;
  EXPECT_EQ(t.out_degree(0), std::min(dstar, dlog));
}

void layer_populations_match_capability_recurrence(const TreeParam& p) {
  // The strongest link between Algorithm 1 and Theorem 2: the number of
  // nodes covered by time unit t in the constructed tree equals L(t)
  // exactly, for every full layer (the last layer may be cut short by n).
  const auto [n, dstar] = p;
  auto t = MulticastTree::build_nonblocking(n, dstar);
  const int depth = t.depth();
  const auto L = multicast_capability(dstar, depth);
  for (int unit = 0; unit < depth; ++unit) {
    uint64_t covered = 0;
    for (int v = 0; v < t.num_nodes(); ++v) {
      if (t.layer(v) <= unit) ++covered;
    }
    EXPECT_EQ(covered, L[static_cast<size_t>(unit)])
        << "n=" << n << " d*=" << dstar << " t=" << unit;
  }
  // The final layer covers whatever remains of T.
  EXPECT_GE(L[static_cast<size_t>(depth)],
            static_cast<uint64_t>(n) + 1);
}

void scale_down_moves_subtrees_intact(const TreeParam& p) {
  // Sec. 3.4: the switching algorithm re-attaches marked *subtrees* —
  // a moved node keeps its own children.
  const auto [n, dstar] = p;
  auto t = MulticastTree::build_nonblocking(n, dstar);
  std::vector<std::vector<int>> children_before(
      static_cast<size_t>(t.num_nodes()));
  for (int v = 0; v < t.num_nodes(); ++v) {
    children_before[static_cast<size_t>(v)] = t.children(v);
  }
  const auto moves = t.plan_scale_down(dstar - 1);
  std::set<int> moved;
  for (const auto& m : moves) moved.insert(m.node);
  for (const auto& m : moves) {
    // A moved node keeps exactly the children that were not themselves
    // marked excess (a node inside a marked subtree can still exceed the
    // new cap and shed its own excess children).
    std::vector<int> expected;
    for (int c : children_before[static_cast<size_t>(m.node)]) {
      if (!moved.count(c)) expected.push_back(c);
    }
    std::vector<int> actual;
    for (int c : t.children(m.node)) {
      if (!moved.count(c)) actual.push_back(c);
    }
    EXPECT_EQ(actual, expected)
        << "moved node " << m.node << " lost or gained unmarked children";
  }
}

void depth_matches_capability_recurrence(const TreeParam& p) {
  // The number of logical layers Algorithm 1 produces equals the number of
  // relay time units the L(t) recurrence needs to cover n destinations.
  const auto [n, dstar] = p;
  auto t = MulticastTree::build_nonblocking(n, dstar);
  EXPECT_EQ(t.depth(), time_units_to_cover(dstar, static_cast<uint64_t>(n)))
      << "n=" << n << " d*=" << dstar;
}

TEST(Capability, BinomialDoubles) {
  const auto L = multicast_capability(30, 10);
  for (int t = 1; t <= 10; ++t) {
    EXPECT_EQ(L[static_cast<size_t>(t)], 1ull << t);
  }
}

TEST(Capability, Fig6Sequence) {
  // d* = 2: cumulative coverage 1, 2, 4, 7, 12 (new: 1, 2, 3, 5).
  const auto L = multicast_capability(2, 4);
  EXPECT_EQ(L[0], 1u);
  EXPECT_EQ(L[1], 2u);
  EXPECT_EQ(L[2], 4u);
  EXPECT_EQ(L[3], 7u);
  EXPECT_EQ(L[4], 12u);
}

TEST(Capability, MonotoneInDstar) {
  // Theorem 2: L(t) is positively correlated with the out-degree cap.
  for (int t = 3; t <= 12; ++t) {
    uint64_t prev = 0;
    for (int d = 1; d <= 8; ++d) {
      const auto L = multicast_capability(d, t);
      EXPECT_GE(L[static_cast<size_t>(t)], prev)
          << "t=" << t << " d=" << d;
      prev = L[static_cast<size_t>(t)];
    }
  }
}

TEST(Capability, CoverTimeDecreasesWithDstar) {
  for (uint64_t n : {7ull, 29ull, 100ull, 479ull}) {
    int prev = 1 << 20;
    for (int d = 1; d <= 10; ++d) {
      const int t = time_units_to_cover(d, n);
      EXPECT_LE(t, prev) << "n=" << n << " d=" << d;
      prev = t;
    }
  }
}

// --- dynamic switching ----------------------------------------------------

TEST(Switching, Fig8aScaleDown) {
  // Fig. 8a: d* changes 3 -> 2. The subtree that makes a node exceed d*=2
  // is re-attached under the shallowest node with spare degree.
  auto t = MulticastTree::build_nonblocking(7, 3);
  ASSERT_EQ(t.validate(3), "");
  const auto moves = t.plan_scale_down(2);
  EXPECT_EQ(t.validate(2), "");
  EXPECT_FALSE(moves.empty());
  for (const auto& m : moves) {
    EXPECT_NE(m.old_parent, m.new_parent);
  }
}

TEST(Switching, Fig8bScaleUp) {
  // Fig. 8b: d* changes 2 -> 3; the deepest endpoint (T4-1, node 7 in our
  // numbering of Fig. 6) moves up to S.
  auto t = MulticastTree::build_nonblocking(7, 2);
  ASSERT_EQ(t.depth(), 4);
  const auto moves = t.plan_scale_up(3);
  EXPECT_EQ(t.validate(3), "");
  ASSERT_FALSE(moves.empty());
  EXPECT_EQ(moves[0].node, 7);        // the deepest endpoint, T4-1
  EXPECT_EQ(moves[0].new_parent, 0);  // re-attached directly under S
  EXPECT_LE(t.depth(), 3);
}

using SwitchPoint = std::tuple<int, int, int>;  // n, d_from, d_to

void scale_down_preserves_invariants(const SwitchPoint& p) {
  const auto [n, d_from, d_to] = p;
  auto t = MulticastTree::build_nonblocking(n, d_from);
  const int before = t.num_destinations();
  t.plan_scale_down(d_to);
  EXPECT_EQ(t.validate(d_to), "") << "n=" << n << " " << d_from << "->"
                                  << d_to;
  EXPECT_EQ(t.num_destinations(), before);
}

void scale_up_preserves_invariants_and_never_deepens(const SwitchPoint& p) {
  const auto [n, d_from, d_to] = p;
  auto t = MulticastTree::build_nonblocking(n, d_from);
  const int depth_before = t.depth();
  const int before = t.num_destinations();
  t.plan_scale_up(d_to);
  EXPECT_EQ(t.validate(d_to), "");
  EXPECT_EQ(t.num_destinations(), before);
  EXPECT_LE(t.depth(), depth_before);
}

[[maybe_unused]] const bool kSweepsRegistered = [] {
  const std::vector<TreeParam> trees = {
      {1, 1},   {2, 1},   {5, 1},   {7, 2},   {10, 2},  {29, 2},
      {29, 3},  {29, 5},  {30, 4},  {63, 3},  {100, 2}, {100, 6},
      {255, 4}, {479, 3}, {479, 9}, {480, 2}, {480, 16}};
  // Scaling down to d* - 1 needs d* > 1.
  std::vector<TreeParam> shrinkable;
  for (const TreeParam& p : trees) {
    if (p.dstar > 1) shrinkable.push_back(p);
  }
  register_sweep("NonblockingTreeP", "StructuralInvariants",
                 structural_invariants, trees);
  register_sweep("NonblockingTreeP",
                 "LayerPopulationsMatchCapabilityRecurrence",
                 layer_populations_match_capability_recurrence, trees);
  register_sweep("NonblockingTreeP", "ScaleDownMovesSubtreesIntact",
                 scale_down_moves_subtrees_intact, shrinkable);
  register_sweep("NonblockingTreeP", "DepthMatchesCapabilityRecurrence",
                 depth_matches_capability_recurrence, trees);

  std::vector<SwitchPoint> downs;
  std::vector<SwitchPoint> ups;
  for (int n : {5, 7, 29, 64, 100, 480}) {
    for (int d_from : {1, 2, 3, 5, 8}) {
      for (int d_to : {1, 2, 3, 5, 8}) {
        if (d_from > d_to) downs.emplace_back(n, d_from, d_to);
        if (d_from < d_to) ups.emplace_back(n, d_from, d_to);
      }
    }
  }
  register_sweep("SwitchSweepP", "ScaleDownPreservesInvariants",
                 scale_down_preserves_invariants, downs);
  register_sweep("SwitchSweepP", "ScaleUpPreservesInvariantsAndNeverDeepens",
                 scale_up_preserves_invariants_and_never_deepens, ups);
  return true;
}();

TEST(Switching, RepeatedSwitchesStayValid) {
  auto t = MulticastTree::build_nonblocking(100, 4);
  const int seq[] = {2, 6, 1, 8, 3, 5, 2, 7};
  int cur = 4;
  for (int d : seq) {
    if (d < cur) {
      t.plan_scale_down(d);
    } else if (d > cur) {
      t.plan_scale_up(d);
    }
    EXPECT_EQ(t.validate(d), "") << "step to d*=" << d;
    EXPECT_EQ(t.num_destinations(), 100);
    cur = d;
  }
}

TEST(Switching, ScaleDownMoveCountIsBounded) {
  // Only nodes beyond the cap move; the bulk of the tree is untouched
  // ("without significant change", Sec. 3.4).
  auto t = MulticastTree::build_nonblocking(29, 5);
  const auto moves = t.plan_scale_down(4);
  EXPECT_LE(moves.size(), 8u);
}

}  // namespace
}  // namespace whale::multicast
