#include "apps/fingerprint_suite.h"

#include <map>
#include <stdexcept>

#include "apps/ride_hailing_app.h"
#include "apps/stock_app.h"
#include "core/engine.h"
#include "faults/plan.h"
#include "state/state_store.h"

namespace whale::apps {

namespace {

core::EngineConfig base_config(core::SystemVariant v) {
  core::EngineConfig cfg;
  cfg.cluster.num_nodes = 8;
  cfg.cluster.cores_per_node = 16;
  cfg.variant = v;
  cfg.seed = 42;
  return cfg;
}

RideHailingAppParams ride_params() {
  RideHailingAppParams p;
  p.matching_parallelism = 32;
  p.aggregation_parallelism = 4;
  p.driver_spout_parallelism = 2;
  p.request_rate = dsps::RateProfile::constant(3000);
  p.driver_rate = dsps::RateProfile::constant(2000);
  return p;
}

FingerprintLine probe_ride(const std::string& label, core::SystemVariant v,
                           const ConfigMutator& mutate) {
  core::EngineConfig cfg = base_config(v);
  if (mutate) mutate(cfg);
  core::Engine e(cfg, build_ride_hailing(ride_params()).topology);
  const auto& r = e.run(ms(100), ms(300));
  return {"fig13/" + label, r.fingerprint()};
}

FingerprintLine probe_stock(const std::string& label, core::SystemVariant v,
                            const ConfigMutator& mutate) {
  core::EngineConfig cfg = base_config(v);
  if (mutate) mutate(cfg);
  StockAppParams p;
  p.matching_parallelism = 32;
  p.aggregation_parallelism = 4;
  p.order_rate = dsps::RateProfile::constant(3000);
  core::Engine e(cfg, build_stock_exchange(p).topology);
  const auto& r = e.run(ms(100), ms(300));
  return {"fig15/" + label, r.fingerprint()};
}

FingerprintLine probe_faults(const ConfigMutator& mutate) {
  core::EngineConfig cfg = base_config(core::SystemVariant::Whale());
  cfg.enable_acking = true;
  cfg.ack_timeout = ms(120);
  cfg.faults = faults::FaultPlan::random(/*seed=*/7, cfg.cluster.num_nodes,
                                         /*horizon=*/ms(400),
                                         /*num_faults=*/6);
  if (mutate) mutate(cfg);
  core::Engine e(cfg, build_ride_hailing(ride_params()).topology);
  const auto& r = e.run(ms(100), ms(300));
  return {"faults/whale-seeded", r.fingerprint()};
}

// d* switching under a crash: the fig13 Whale shape starting from a chain
// (d* = 1) with the controller sampling every 10 ms, so a scale-up switch
// is in flight when node 1 crashes at 50 ms. The crash aborts it, one
// relay repair follows, and a later switch completes in the window.
FingerprintLine probe_switch_crash(const ConfigMutator& mutate) {
  core::EngineConfig cfg = base_config(core::SystemVariant::Whale());
  cfg.initial_dstar = 1;
  cfg.controller.sample_interval = ms(10);
  cfg.faults.crash(/*node=*/1, /*at=*/ms(50), /*restart_after=*/ms(50));
  if (mutate) mutate(cfg);
  core::Engine e(cfg, build_ride_hailing(ride_params()).topology);
  const auto& r = e.run(ms(100), ms(300));
  return {"faults/whale-switch-crash", r.fingerprint()};
}

// Checkpointing on: the fig13 ride-hailing shape at 1,000 requests/s,
// epochs every 50 ms, and node 3 crashing mid-window so one recovery
// restores the committed images and replays the spout logs. `medium`
// picks the snapshot store and barrier mode under test.
FingerprintLine probe_state(const std::string& label,
                            void (*medium)(state::StateConfig&),
                            const ConfigMutator& mutate) {
  core::EngineConfig cfg = base_config(core::SystemVariant::Whale());
  cfg.state.enabled = true;
  cfg.state.checkpoint_interval = ms(50);
  medium(cfg.state);
  cfg.faults.crash(/*node=*/3, /*at=*/ms(250), /*restart_after=*/ms(50));
  if (mutate) mutate(cfg);
  RideHailingAppParams p = ride_params();
  p.request_rate = dsps::RateProfile::constant(1000);
  core::Engine e(cfg, build_ride_hailing(p).topology);
  const auto& r = e.run(ms(100), ms(300));
  return {"state/" + label, r.fingerprint()};
}

// Emits sequential ids and checkpoints the cursor.
class SeqSpout : public dsps::Spout {
 public:
  dsps::Tuple next(Rng&) override {
    dsps::Tuple t;
    t.values.emplace_back(seq_++);
    return t;
  }
  void register_state(state::StateStore& store) override {
    store.register_cell(
        "seq", [this](ByteWriter& w) { w.put_i64(seq_); },
        [this](ByteReader& r) { seq_ = r.get_i64(); });
  }

 private:
  int64_t seq_ = 0;
};

// Stateless: forwards every tuple after `cost` of work.
class ForwardBolt : public dsps::Bolt {
 public:
  explicit ForwardBolt(Duration cost) : cost_(cost) {}
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override {
    out.emit(t);
    return cost_;
  }

 private:
  Duration cost_;
};

class NopBolt : public dsps::Bolt {
 public:
  Duration execute(const dsps::Tuple&, dsps::Emitter&) override {
    return us(2);
  }
};

// Counts how often each sequence value was applied, in a checkpointed cell.
class CountingSink : public dsps::Bolt {
 public:
  Duration execute(const dsps::Tuple& t, dsps::Emitter&) override {
    ++counts_[t.as_int(0)];
    return us(3);
  }
  void register_state(state::StateStore& store) override {
    store.register_cell(
        "counts",
        [this](ByteWriter& w) {
          w.put_varint(counts_.size());
          for (const auto& [k, v] : counts_) {
            w.put_i64(k);
            w.put_u64(v);
          }
        },
        [this](ByteReader& r) {
          counts_.clear();
          const uint64_t n = r.get_varint();
          for (uint64_t i = 0; i < n; ++i) {
            const int64_t k = r.get_i64();
            counts_[k] = r.get_u64();
          }
        });
  }

 private:
  std::map<int64_t, uint64_t> counts_;
};

// Recovery before any epoch has committed: s -> fwd(2) -> counting sink
// on 4 nodes (tests/test_state.cc's exactly-once pipeline), local aligned
// state with 100 ms epochs, and node 1 down from 50 to 80 ms, so the
// restore rolls every task back to the image it started from and replays
// the whole spout log.
FingerprintLine probe_crash_before_commit(const ConfigMutator& mutate) {
  core::EngineConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.variant = core::SystemVariant::Whale();
  cfg.seed = 23;
  cfg.state.enabled = true;
  cfg.state.checkpoint_interval = ms(100);
  cfg.state.store_write_latency = ms(5);
  cfg.executor_queue_capacity = 65536;
  cfg.transfer_queue_capacity = 65536;
  cfg.faults.crash(/*node=*/1, /*at=*/ms(50), /*restart_after=*/ms(30));
  if (mutate) mutate(cfg);
  dsps::TopologyBuilder b;
  const int s = b.add_spout(
      "s", [] { return std::make_unique<SeqSpout>(); }, 1,
      dsps::RateProfile::constant(400.0).then_at(ms(290), 0.0));
  const int f = b.add_bolt(
      "f", [] { return std::make_unique<ForwardBolt>(us(5)); }, 2);
  const int k = b.add_bolt(
      "c", [] { return std::make_unique<CountingSink>(); }, 1);
  b.connect(s, f, dsps::Grouping::kShuffle);
  b.connect(f, k, dsps::Grouping::kShuffle);
  core::Engine e(cfg, b.build());
  const auto& r = e.run(ms(100), ms(700));
  return {"state/crash-before-commit", r.fingerprint()};
}

// Elastic rescaling of a broadcast destination: s -> fwd(1) =all=> dst(2)
// -> sink on 6 nodes under full Whale. Two bursts grow dst and two lulls
// shrink it, so its multicast group is rebuilt and repaired at rescale
// commits while d* switches run (tests/test_elastic.cc runs the same job
// under three variants).
FingerprintLine probe_elastic_broadcast(const ConfigMutator& mutate) {
  core::EngineConfig cfg;
  cfg.cluster.num_nodes = 6;
  cfg.variant = core::SystemVariant::Whale();
  cfg.seed = 7;
  cfg.executor_queue_capacity = 1024;
  cfg.transfer_queue_capacity = 65536;
  cfg.state.enabled = true;
  cfg.state.checkpoint_interval = ms(50);
  cfg.elastic.enabled = true;
  cfg.elastic.poll_interval = ms(5);
  cfg.elastic.up_backlog = 0.02;
  cfg.elastic.down_backlog = 0.002;
  cfg.elastic.sustain_up = 2;
  cfg.elastic.sustain_down = 4;
  cfg.elastic.cooldown = ms(60);
  cfg.elastic.ewma_alpha = 0.5;
  cfg.elastic.step = 1;
  cfg.elastic.min_parallelism = 2;
  cfg.elastic.max_parallelism = 4;
  if (mutate) mutate(cfg);
  auto rate = dsps::RateProfile::constant(300.0);
  rate.then_at(ms(150), 6000.0)
      .then_at(ms(300), 300.0)
      .then_at(ms(450), 6000.0)
      .then_at(ms(600), 100.0)
      .then_at(ms(1100), 0.0);
  dsps::TopologyBuilder b;
  const int s = b.add_spout(
      "s", [] { return std::make_unique<SeqSpout>(); }, 1, std::move(rate));
  const int f = b.add_bolt(
      "fwd", [] { return std::make_unique<ForwardBolt>(us(5)); }, 1);
  const int d = b.add_bolt(
      "dst", [] { return std::make_unique<ForwardBolt>(us(300)); }, 2);
  const int k = b.add_bolt(
      "sink", [] { return std::make_unique<NopBolt>(); }, 1);
  b.connect(s, f, dsps::Grouping::kShuffle);
  b.connect(f, d, dsps::Grouping::kAll);
  b.connect(d, k, dsps::Grouping::kShuffle);
  core::Engine e(cfg, b.build());
  const auto& r = e.run(ms(50), ms(1200));
  return {"state/elastic-broadcast", r.fingerprint()};
}

}  // namespace

std::vector<std::string> fingerprint_probe_labels() {
  return {"fig13/storm", "fig13/rdma-storm", "fig13/whale-woc", "fig13/whale",
          "fig15/storm", "fig15/rdmc",       "fig15/whale",
          "faults/whale-seeded", "state/local-aligned",
          "state/local-unaligned", "state/remote-incremental",
          "faults/whale-switch-crash", "state/elastic-broadcast",
          "state/crash-before-commit"};
}

FingerprintLine run_fingerprint_probe(const std::string& label,
                                      const ConfigMutator& mutate) {
  if (label == "fig13/storm") {
    return probe_ride("storm", core::SystemVariant::Storm(), mutate);
  }
  if (label == "fig13/rdma-storm") {
    return probe_ride("rdma-storm", core::SystemVariant::RdmaStorm(), mutate);
  }
  if (label == "fig13/whale-woc") {
    return probe_ride("whale-woc", core::SystemVariant::WhaleWoc(), mutate);
  }
  if (label == "fig13/whale") {
    return probe_ride("whale", core::SystemVariant::Whale(), mutate);
  }
  if (label == "fig15/storm") {
    return probe_stock("storm", core::SystemVariant::Storm(), mutate);
  }
  if (label == "fig15/rdmc") {
    return probe_stock("rdmc", core::SystemVariant::Rdmc(), mutate);
  }
  if (label == "fig15/whale") {
    return probe_stock("whale", core::SystemVariant::Whale(), mutate);
  }
  if (label == "faults/whale-seeded") {
    return probe_faults(mutate);
  }
  if (label == "faults/whale-switch-crash") {
    return probe_switch_crash(mutate);
  }
  if (label == "state/elastic-broadcast") {
    return probe_elastic_broadcast(mutate);
  }
  if (label == "state/crash-before-commit") {
    return probe_crash_before_commit(mutate);
  }
  if (label == "state/local-aligned") {
    return probe_state("local-aligned", [](state::StateConfig&) {}, mutate);
  }
  if (label == "state/local-unaligned") {
    return probe_state(
        "local-unaligned", [](state::StateConfig& s) { s.unaligned = true; },
        mutate);
  }
  if (label == "state/remote-incremental") {
    return probe_state("remote-incremental",
                       [](state::StateConfig& s) {
                         s.remote = true;
                         s.incremental = true;
                       },
                       mutate);
  }
  throw std::out_of_range("unknown fingerprint probe: " + label);
}

std::vector<FingerprintLine> run_fingerprint_suite(
    const ConfigMutator& mutate) {
  std::vector<FingerprintLine> out;
  for (const auto& label : fingerprint_probe_labels()) {
    out.push_back(run_fingerprint_probe(label, mutate));
  }
  return out;
}

}  // namespace whale::apps
