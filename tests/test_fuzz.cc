// Randomized property tests ("fuzz-light"): serde round-trips over random
// tuples, tree invariants under random switching sequences, ring buffer
// invariants under random produce/consume traffic, stream-slicing delivery
// conservation under random payload mixes, and a whole-engine sweep that
// asserts tuple conservation under random topologies x random fault plans.
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "core/slicing.h"
#include "dsps/serde.h"
#include "faults/plan.h"
#include "multicast/tree.h"
#include "rdma/ring_buffer.h"

namespace whale {
namespace {

dsps::Tuple random_tuple(Rng& rng) {
  dsps::Tuple t;
  const int n = static_cast<int>(rng.next_below(8));
  for (int i = 0; i < n; ++i) {
    switch (rng.next_below(3)) {
      case 0:
        t.values.emplace_back(static_cast<int64_t>(rng.next_u64()));
        break;
      case 1:
        t.values.emplace_back(rng.uniform(-1e18, 1e18));
        break;
      default: {
        std::string s(rng.next_below(300), '\0');
        for (auto& c : s) c = static_cast<char>(rng.next_below(256));
        t.values.emplace_back(std::move(s));
      }
    }
  }
  t.stream = static_cast<uint32_t>(rng.next_below(1000));
  t.root_id = rng.next_u64();
  t.root_emit_time = static_cast<Time>(rng.next_below(1u << 30));
  return t;
}

void expect_equal(const dsps::Tuple& a, const dsps::Tuple& b) {
  ASSERT_EQ(a.values.size(), b.values.size());
  EXPECT_EQ(a.stream, b.stream);
  EXPECT_EQ(a.root_id, b.root_id);
  EXPECT_EQ(a.root_emit_time, b.root_emit_time);
  for (size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i].index(), b.values[i].index()) << i;
    EXPECT_TRUE(a.values[i] == b.values[i]) << i;
  }
}

TEST(Fuzz, SerdeBodyRoundTrip) {
  Rng rng(0xF00D);
  for (int iter = 0; iter < 2000; ++iter) {
    const auto t = random_tuple(rng);
    ByteWriter w;
    dsps::TupleSerde::encode_body(t, w);
    ByteReader r(w.data());
    const auto d = dsps::TupleSerde::decode_body(r);
    EXPECT_TRUE(r.done());
    expect_equal(t, d);
  }
}

TEST(Fuzz, SerdeBatchMessageRoundTrip) {
  Rng rng(0xBEEF);
  for (int iter = 0; iter < 500; ++iter) {
    const auto t = random_tuple(rng);
    std::vector<int32_t> ids(rng.next_below(40));
    for (auto& id : ids) id = static_cast<int32_t>(rng.next_below(100000));
    const auto bytes = dsps::TupleSerde::encode_batch_message(ids, t);
    const auto m = dsps::TupleSerde::decode_batch_message(bytes);
    ASSERT_EQ(m.dst_tasks.size(), ids.size());
    EXPECT_TRUE(
        std::equal(m.dst_tasks.begin(), m.dst_tasks.end(), ids.begin()));
    expect_equal(t, m.tuple);
  }
}

TEST(Fuzz, TruncatedMessagesThrowNotCrash) {
  Rng rng(0xDead);
  for (int iter = 0; iter < 500; ++iter) {
    const auto t = random_tuple(rng);
    auto bytes = dsps::TupleSerde::encode_instance_message(7, t);
    if (bytes.empty()) continue;
    bytes.resize(rng.next_below(bytes.size()));  // strictly shorter
    try {
      (void)dsps::TupleSerde::decode_instance_message(bytes);
      // Short prefixes can decode if the cut lands between fields when
      // the field count happens to be consistent; either outcome is fine
      // as long as nothing crashes.
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, TreeSurvivesRandomSwitchSequences) {
  Rng rng(0xACE);
  for (int iter = 0; iter < 60; ++iter) {
    const int n = 1 + static_cast<int>(rng.next_below(300));
    int d = 1 + static_cast<int>(rng.next_below(9));
    auto t = multicast::MulticastTree::build_nonblocking(n, d);
    ASSERT_EQ(t.validate(d), "") << "n=" << n << " d=" << d;
    for (int step = 0; step < 12; ++step) {
      const int nd = 1 + static_cast<int>(rng.next_below(9));
      if (nd < d) {
        t.plan_scale_down(nd);
      } else if (nd > d) {
        t.plan_scale_up(nd);
      }
      d = nd;
      ASSERT_EQ(t.validate(d), "")
          << "n=" << n << " step=" << step << " d=" << d;
      ASSERT_EQ(t.num_destinations(), n);
    }
  }
}

TEST(Fuzz, RingBufferInvariants) {
  Rng rng(0xCafe);
  for (int iter = 0; iter < 50; ++iter) {
    const uint64_t cap = 64 + rng.next_below(4096);
    rdma::RingMemoryRegion ring(cap);
    std::deque<uint64_t> outstanding;
    uint64_t used = 0;
    for (int op = 0; op < 2000; ++op) {
      if (rng.bernoulli(0.55)) {
        const uint64_t n = 1 + rng.next_below(cap / 2);
        const auto addr = ring.produce(n);
        if (used + n <= cap) {
          ASSERT_TRUE(addr.has_value());
          outstanding.push_back(n);
          used += n;
        } else {
          ASSERT_FALSE(addr.has_value());
        }
      } else if (!outstanding.empty()) {
        const uint64_t n = outstanding.front();
        outstanding.pop_front();
        ring.consume(n);
        used -= n;
      }
      ASSERT_EQ(ring.used(), used);
      ASSERT_LE(ring.used(), cap);
    }
  }
}

// Stream slicing over a real queue pair: a random verb, MMS and ring size
// against a burst of random packet sizes, all posted at t = 0 so the READ
// ring fills and the slicer must split its backlog into ring-sized work
// requests. Every packet arrives, in order.
TEST(Fuzz, ChannelConservesAndOrdersMessages) {
  Rng rng(0x0DD);
  for (int iter = 0; iter < 15; ++iter) {
    sim::Simulation sim;
    net::ClusterSpec spec;
    spec.num_nodes = 2;
    net::Fabric fabric(sim, spec);
    net::CostModel cost;
    sim::CpuServer a(sim, "a"), b(sim, "b");
    const rdma::Verb verb =
        rng.bernoulli(0.5) ? rdma::Verb::kRead : rdma::Verb::kSendRecv;
    const uint64_t mms = rng.next_below(8192);
    rdma::QpConfig qc;
    qc.ring_capacity = 4096 + rng.next_below(1 << 16);
    rdma::QueuePair qp(fabric, cost, verb, qc, rdma::QpEndpoint{0, &a},
                       rdma::QpEndpoint{1, &b});
    core::SlicingBuffer sl(sim, mms, ms(1), qp);
    std::vector<uint64_t> got;
    qp.set_recv_handler([&](rdma::Packet p) { got.push_back(p.id); });
    const uint64_t count = 50 + rng.next_below(300);
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t sz = 1 + rng.next_below(2000);
      sl.add(rdma::Packet{
          std::make_shared<const std::vector<uint8_t>>(sz, 1), sim.now(), i});
    }
    sim.run();
    ASSERT_EQ(got.size(), count) << "verb=" << to_string(verb)
                                 << " mms=" << mms;
    for (uint64_t i = 0; i < count; ++i) ASSERT_EQ(got[i], i);
  }
}

// --- engine-level invariant sweep ----------------------------------------
//
// Random chain topologies (spout -> 0..2 forwarding bolts -> sink, with
// shuffle/fields/global groupings so every tuple instance has exactly one
// downstream destination) are run under seeded random fault plans. After the
// measurement window the simulation is drained to an empty event heap, so
// every tuple instance must be in exactly one terminal bucket. The obs
// counters are whole-run (not window-gated like RunReport), which is what
// makes the books balance exactly:
//
//   roots_emitted == sink_completions + input_drops + queue_rejects
//                    + tuples_lost_engine + tuples_lost_qp
//                    + qp_fabric_drops + inflight_end
//
// where inflight_end counts instances wedged forever by crashes (blocked
// transfer queues, READ-discipline wedges, tasks stuck mid-emission).
// Per-link fabric accounting must balance too: everything sent was either
// delivered or dropped.

class KeyedSpout : public dsps::Spout {
 public:
  dsps::Tuple next(Rng& rng) override {
    dsps::Tuple t;
    t.values.emplace_back(static_cast<int64_t>(rng.next_below(1024)));
    t.values.emplace_back(std::string(96, 'w'));
    return t;
  }
};

class ForwardOneBolt : public dsps::Bolt {
 public:
  Duration execute(const dsps::Tuple& in, dsps::Emitter& out) override {
    out.emit(in);
    return us(3);
  }
};

class TerminalBolt : public dsps::Bolt {
 public:
  Duration execute(const dsps::Tuple&, dsps::Emitter&) override {
    return us(2);
  }
};

// Groupings under which one emission produces exactly one instance (kAll
// fan-out would need per-edge replication factors in the ledger).
dsps::Grouping one_to_one_grouping(Rng& rng) {
  switch (rng.next_below(3)) {
    case 0:
      return dsps::Grouping::kShuffle;
    case 1:
      return dsps::Grouping::kFields;
    default:
      return dsps::Grouping::kGlobal;
  }
}

dsps::Topology random_chain_topo(Rng& rng, double rate) {
  dsps::TopologyBuilder b;
  int prev = b.add_spout(
      "spout", [] { return std::make_unique<KeyedSpout>(); },
      1 + static_cast<int>(rng.next_below(2)),
      dsps::RateProfile::constant(rate));
  const int hops = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < hops; ++i) {
    const int mid = b.add_bolt(
        "fwd" + std::to_string(i),
        [] { return std::make_unique<ForwardOneBolt>(); },
        1 + static_cast<int>(rng.next_below(3)));
    b.connect(prev, mid, one_to_one_grouping(rng));
    prev = mid;
  }
  const int sink = b.add_bolt(
      "sink", [] { return std::make_unique<TerminalBolt>(); },
      1 + static_cast<int>(rng.next_below(3)));
  b.connect(prev, sink, one_to_one_grouping(rng));
  return b.build();
}

uint64_t obs_count(core::Engine& e, const char* name) {
  const auto* c = e.metrics().find_counter(name);
  return c ? c->value() : 0;
}

TEST(Fuzz, EngineConservesTuplesUnderRandomFaultPlans) {
  const core::SystemVariant variants[] = {core::SystemVariant::Storm(),
                                          core::SystemVariant::RdmaStorm(),
                                          core::SystemVariant::Whale()};
  const char* vnames[] = {"storm", "rdma-storm", "whale"};
  int combos = 0;
  size_t total_links = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (size_t vi = 0; vi < 3; ++vi) {
      SCOPED_TRACE(std::string(vnames[vi]) + " seed=" + std::to_string(seed));
      Rng rng(seed * 977 + vi);
      core::EngineConfig cfg;
      cfg.cluster.num_nodes = 4 + static_cast<int>(rng.next_below(3));
      cfg.variant = variants[vi];
      cfg.seed = seed;
      cfg.obs.metrics_enabled = true;
      cfg.obs.snapshot_interval = ms(50);
      cfg.faults = faults::FaultPlan::random(
          seed * 31 + vi, cfg.cluster.num_nodes, /*horizon=*/ms(350),
          /*num_faults=*/1 + static_cast<int>(rng.next_below(4)));
      if (rng.bernoulli(0.5)) {
        cfg.enable_acking = true;
        cfg.ack_timeout = ms(50);
      }
      const double rate = 500.0 + 250.0 * rng.next_below(8);
      core::Engine e(cfg, random_chain_topo(rng, rate));
      const core::RunReport& r = e.run(ms(50), ms(250));
      // One loss ledger: the report counts exactly the obs data losses.
      EXPECT_EQ(r.tuples_lost, obs_count(e, "obs.tuples_lost_engine") +
                                   obs_count(e, "obs.tuples_lost_qp") +
                                   obs_count(e, "obs.qp_fabric_drops"));

      // run() stops the clock at the window end with late events still
      // queued; every periodic loop re-arms only inside the window, so
      // draining terminates. The cap is a runaway guard, not a budget.
      e.simulation().run(/*max_events=*/50'000'000);
      ASSERT_TRUE(e.simulation().empty());
      e.obs_finalize();  // recompute end-of-run totals after the drain

      const uint64_t roots = obs_count(e, "obs.roots_emitted");
      const uint64_t sink = obs_count(e, "obs.sink_completions");
      const uint64_t input_drops = obs_count(e, "obs.input_drops");
      const uint64_t rejects = obs_count(e, "obs.queue_rejects");
      const uint64_t lost_engine = obs_count(e, "obs.tuples_lost_engine");
      const uint64_t lost_qp = obs_count(e, "obs.tuples_lost_qp");
      const uint64_t fabric_drops = obs_count(e, "obs.qp_fabric_drops");
      const uint64_t inflight = obs_count(e, "obs.inflight_end");
      ASSERT_GT(roots, 0u);
      EXPECT_EQ(roots, sink + input_drops + rejects + lost_engine + lost_qp +
                           fabric_drops + inflight)
          << "sink=" << sink << " input_drops=" << input_drops
          << " rejects=" << rejects << " lost_engine=" << lost_engine
          << " lost_qp=" << lost_qp << " fabric_drops=" << fabric_drops
          << " inflight=" << inflight;

      // A tiny topology can land entirely on one node (no fabric traffic),
      // so links are only required in aggregate across the sweep.
      e.fabric().for_each_link(
          [&](int src, int dst, const net::Fabric::LinkStats& ls) {
            ++total_links;
            EXPECT_EQ(ls.msgs_sent, ls.msgs_delivered + ls.msgs_dropped)
                << src << "->" << dst;
            EXPECT_EQ(ls.bytes_sent, ls.bytes_delivered + ls.bytes_dropped)
                << src << "->" << dst;
          });
      ++combos;
    }
  }
  EXPECT_GE(combos, 20);
  EXPECT_GT(total_links, 0u);
}

// --- checkpointing-on sweep ----------------------------------------------
//
// Same random topology x fault-plan space with epoch barriers flowing, on
// both store media and both barrier modes. What must hold:
//  - the drain terminates with an empty heap (alignment can never
//    deadlock: a wedged epoch is aborted at the next tick by design);
//  - epochs actually commit and crashes recover across the sweep;
//  - the data ledger balances exactly. Recovery adds two terms: unaligned
//    channel state re-injected at a restore is a fresh instance, like a
//    spout-log replay (which counts as a root); a sink copy dropped by the
//    exactly-once filter is a terminal bucket of its own:
//
//   roots_emitted + channel_reinjections
//       == sink_completions + input_drops + queue_rejects
//          + tuples_lost_engine + tuples_lost_qp + qp_fabric_drops
//          + inflight_end + duplicates_filtered
//
//    Barriers never count: not at an executor, in a transfer queue, in a
//    QP ring reset by a crash, nor in a bundle the fabric refuses.
TEST(Fuzz, CheckpointAlignmentNeverDeadlocksUnderFaults) {
  const core::SystemVariant variants[] = {core::SystemVariant::Storm(),
                                          core::SystemVariant::RdmaStorm(),
                                          core::SystemVariant::Whale()};
  const char* vnames[] = {"storm", "rdma-storm", "whale"};
  const char* mnames[] = {"local-aligned", "local-unaligned",
                          "remote-incremental"};
  uint64_t total_epochs = 0;
  uint64_t total_recoveries = 0;
  int combos = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    for (size_t vi = 0; vi < 3; ++vi) {
      for (size_t mi = 0; mi < 3; ++mi) {
        SCOPED_TRACE(std::string(vnames[vi]) + " " + mnames[mi] +
                     " seed=" + std::to_string(seed));
        Rng rng(seed * 7919 + 97 * (3 * vi + mi));
        core::EngineConfig cfg;
        cfg.cluster.num_nodes = 4 + static_cast<int>(rng.next_below(3));
        cfg.variant = variants[vi];
        cfg.seed = seed;
        cfg.obs.metrics_enabled = true;
        cfg.obs.snapshot_interval = ms(50);
        cfg.state.enabled = true;
        cfg.state.unaligned = mi == 1;
        cfg.state.remote = cfg.state.incremental = mi == 2;
        cfg.state.checkpoint_interval = ms(20 + rng.next_below(60));
        if (rng.bernoulli(0.5)) {
          cfg.enable_acking = true;
          cfg.ack_timeout = ms(50);
        }
        cfg.faults = faults::FaultPlan::random(
            seed * 131 + vi, cfg.cluster.num_nodes, /*horizon=*/ms(350),
            /*num_faults=*/1 + static_cast<int>(rng.next_below(4)));
        const double rate = 500.0 + 250.0 * rng.next_below(8);
        core::Engine e(cfg, random_chain_topo(rng, rate));
        const auto& r = e.run(ms(50), ms(250));

        e.simulation().run(/*max_events=*/50'000'000);
        ASSERT_TRUE(e.simulation().empty()) << "drain did not terminate";
        e.obs_finalize();
        const uint64_t in = obs_count(e, "obs.roots_emitted") +
                            obs_count(e, "state.channel_reinjections");
        const uint64_t out = obs_count(e, "obs.sink_completions") +
                             obs_count(e, "obs.input_drops") +
                             obs_count(e, "obs.queue_rejects") +
                             obs_count(e, "obs.tuples_lost_engine") +
                             obs_count(e, "obs.tuples_lost_qp") +
                             obs_count(e, "obs.qp_fabric_drops") +
                             obs_count(e, "obs.inflight_end") +
                             obs_count(e, "state.duplicates_filtered");
        EXPECT_EQ(in, out);
        total_epochs += r.epochs_completed;
        total_recoveries += r.checkpoint_recoveries;
        ++combos;
      }
    }
  }
  EXPECT_EQ(combos, 360);
  EXPECT_GT(total_epochs, 0u);
  // The random plans crash nodes in most seeds; recoveries must have
  // restored from a checkpoint across the sweep.
  EXPECT_GT(total_recoveries, 0u);
}

}  // namespace
}  // namespace whale
