// Elastic rescaling benchmark (DESIGN.md §14, EXPERIMENTS.md).
//
// A keyed operator behind a square-wave input rate (the bursty profile of
// workloads/ridehailing.h) is grown and shrunk live by the gauge-driven
// scaling controller: every burst pushes the executor backlog over the
// scale-up threshold, every lull drains it under the scale-down one. Two
// full cycles force at least one rescale in each direction. One JSON
// object on stdout (committed as results/BENCH_elastic.json):
//
//  - episodes     — every executed rescale: direction, parallelism edge,
//                   cutover time, migration stall (rescale-epoch inject ->
//                   cutover), and the smoothed backlog that triggered it.
//  - conservation — the recovery-free exactly-once ledger across all
//                   migrations: emitted vs applied-once at the sink,
//                   duplicates, losses, stale deliveries fenced at retired
//                   instances, checkpoint recoveries (all must be zero
//                   except emitted == applied).
//  - summary      — totals: scale direction counts, stall time, keyed
//                   state moved, spawn/retire/placement census, controller
//                   polls, wall clock.
//
// Not a paper figure: the paper fixes operator parallelism per run; this
// bench characterises the elastic subsystem layered on top of the engine.
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "elastic/keyed.h"
#include "state/state_store.h"
#include "workloads/ridehailing.h"

using namespace whale;
using namespace whale::bench;

namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Emits sequential ids and checkpoints the cursor.
class SeqSpout : public dsps::Spout {
 public:
  dsps::Tuple next(Rng&) override {
    dsps::Tuple t;
    t.values.emplace_back(seq_++);
    return t;
  }
  void register_state(whale::state::StateStore& store) override {
    store.register_cell(
        "seq", [this](ByteWriter& w) { w.put_i64(seq_); },
        [this](ByteReader& r) { seq_ = r.get_i64(); });
  }
  int64_t emitted() const { return seq_; }

 private:
  int64_t seq_ = 0;
};

// The rescalable operator: tallies per-key applications in a keyed cell
// (key = the fields-grouping hash the upstream stream routes by) and
// forwards the tuple. 300 us of modeled work per tuple makes two
// instances saturate under the burst and idle through the lull.
class KeyedTallyBolt : public dsps::Bolt {
 public:
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override {
    ++tally_[dsps::value_hash(t.values[0])];
    out.emit(t);
    return us(300);
  }
  void register_state(whale::state::StateStore& store) override {
    store.register_cell(
        std::string(elastic::kKeyedCellPrefix) + "tally",
        [this](ByteWriter& w) {
          std::vector<elastic::KeyedEntry> entries;
          entries.reserve(tally_.size());
          for (const auto& [k, v] : tally_) {
            ByteWriter pw(8);
            pw.put_u64(v);
            entries.push_back(elastic::KeyedEntry{k, pw.take()});
          }
          elastic::write_keyed_body(w, std::move(entries));
        },
        [this](ByteReader& r) {
          tally_.clear();
          for (const auto& e : elastic::read_keyed_body(r)) {
            ByteReader pr(e.payload);
            tally_[e.key] = pr.get_u64();
          }
        });
  }

 private:
  std::map<uint64_t, uint64_t> tally_;
};

// Sink counting how often each sequence number was applied.
class CountingSink : public dsps::Bolt {
 public:
  Duration execute(const dsps::Tuple& t, dsps::Emitter&) override {
    ++counts_[t.as_int(0)];
    return us(3);
  }
  void register_state(whale::state::StateStore& store) override {
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
  const std::map<int64_t, uint64_t>& counts() const { return counts_; }

 private:
  std::map<int64_t, uint64_t> counts_;
};

}  // namespace

int main() {
  const double lull_tps = env_double("WHALE_BENCH_LULL_TPS", 300.0);
  const double burst_tps = env_double("WHALE_BENCH_BURST_TPS", 8000.0);
  const Duration half_period = ms(150);
  const int cycles = 2;
  // Two full cycles end at 600 ms; emission stops 50 ms later so the
  // pipeline drains inside the 700 ms window and the conservation ledger
  // closes (nothing cut off in flight).
  const Duration stop_at = half_period * (2 * cycles) + ms(50);
  const Duration warmup = ms(50);
  const Duration window = ms(700);

  core::EngineConfig cfg;
  cfg.cluster.num_nodes = 8;
  cfg.cluster.num_racks = 2;
  cfg.variant = core::SystemVariant::Whale();
  cfg.seed = 7;
  // Small executor queues keep the fill-fraction gauge sensitive; the
  // transfer queue stays deep so no migration backlog hits the wire limit.
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
  cfg.elastic.min_parallelism = 2;
  cfg.elastic.max_parallelism = 4;

  SeqSpout* spout = nullptr;
  CountingSink* sink = nullptr;
  dsps::TopologyBuilder b;
  auto rate = workloads::bursty_request_profile(lull_tps, burst_tps,
                                                half_period, cycles);
  rate.then_at(stop_at, 0.0);
  const int s = b.add_spout(
      "s",
      [&spout] {
        auto sp = std::make_unique<SeqSpout>();
        spout = sp.get();
        return sp;
      },
      1, std::move(rate));
  const int m = b.add_bolt(
      "tally", [] { return std::make_unique<KeyedTallyBolt>(); }, 2);
  const int k = b.add_bolt(
      "sink",
      [&sink] {
        auto sk = std::make_unique<CountingSink>();
        sink = sk.get();
        return sk;
      },
      1);
  b.connect(s, m, dsps::Grouping::kFields, /*key_field=*/0);
  b.connect(m, k, dsps::Grouping::kShuffle);

  core::Engine e(cfg, b.build());
  const double t0 = now_ns();
  const core::RunReport& r = e.run(warmup, window);
  const double wall_ms = (now_ns() - t0) / 1e6;

  const int64_t emitted = spout ? spout->emitted() : 0;
  uint64_t applied_once = 0, duplicates = 0;
  if (sink) {
    for (const auto& [seq, n] : sink->counts()) {
      if (n == 1) ++applied_once;
      if (n > 1) duplicates += n - 1;
    }
  }
  const uint64_t lost =
      static_cast<uint64_t>(emitted) -
      (sink ? static_cast<uint64_t>(sink->counts().size()) : 0);

  std::printf("{\n\"bench\": \"elastic\",\n");
  std::printf(
      "\"config\": {\"nodes\": 8, \"racks\": 2, \"lull_tps\": %.0f, "
      "\"burst_tps\": %.0f, \"half_period_ms\": %lld, \"cycles\": %d, "
      "\"window_ms\": %lld, \"initial_parallelism\": 2, "
      "\"min_parallelism\": 2, \"max_parallelism\": 4, "
      "\"poll_ms\": 5, \"checkpoint_interval_ms\": 50, "
      "\"up_backlog\": 0.02, \"down_backlog\": 0.002},\n",
      lull_tps, burst_tps, static_cast<long long>(to_millis(half_period)),
      cycles, static_cast<long long>(to_millis(window)));

  std::printf("\"episodes\": [\n");
  for (size_t i = 0; i < r.elastic.episodes.size(); ++i) {
    const auto& ep = r.elastic.episodes[i];
    std::printf(
        "  {\"op\": %d, \"direction\": \"%s\", \"from\": %d, \"to\": %d, "
        "\"at_ms\": %.3f, \"stall_ms\": %.3f, \"backlog\": %.4f}%s\n",
        ep.op, ep.to > ep.from ? "up" : "down", ep.from, ep.to,
        to_millis(ep.at), to_millis(ep.stall), ep.backlog,
        i + 1 < r.elastic.episodes.size() ? "," : "");
  }
  std::printf("],\n");

  std::printf(
      "\"conservation\": {\"emitted\": %lld, \"applied_once\": %llu, "
      "\"duplicates\": %llu, \"lost\": %llu, \"stale_drops\": %llu, "
      "\"recoveries\": %llu, \"input_drops\": %llu, "
      "\"queue_rejects\": %llu},\n",
      static_cast<long long>(emitted),
      static_cast<unsigned long long>(applied_once),
      static_cast<unsigned long long>(duplicates),
      static_cast<unsigned long long>(lost),
      static_cast<unsigned long long>(r.elastic.stale_drops),
      static_cast<unsigned long long>(r.checkpoint_recoveries),
      static_cast<unsigned long long>(r.input_drops),
      static_cast<unsigned long long>(r.queue_rejects));

  std::printf(
      "\"summary\": {\"scale_ups\": %llu, \"scale_downs\": %llu, "
      "\"rescales_canceled\": %llu, \"instances_spawned\": %llu, "
      "\"instances_retired\": %llu, "
      "\"keyed_entries_moved\": %llu, \"state_bytes_moved\": %llu, "
      "\"migration_stall_total_ms\": %.3f, \"migration_stall_max_ms\": %.3f, "
      "\"polls\": %llu, \"final_parallelism\": %d, "
      "\"epochs_completed\": %llu, \"epochs_aborted\": %llu, "
      "\"events\": %llu, \"wall_ms\": %.2f}\n}\n",
      static_cast<unsigned long long>(r.elastic.scale_ups),
      static_cast<unsigned long long>(r.elastic.scale_downs),
      static_cast<unsigned long long>(r.elastic.rescales_canceled),
      static_cast<unsigned long long>(r.elastic.instances_spawned),
      static_cast<unsigned long long>(r.elastic.instances_retired),
      static_cast<unsigned long long>(r.elastic.keyed_entries_moved),
      static_cast<unsigned long long>(r.elastic.state_bytes_moved),
      to_millis(r.elastic.migration_stall_total),
      to_millis(r.elastic.migration_stall_max),
      static_cast<unsigned long long>(r.elastic.polls), e.op_parallelism(m),
      static_cast<unsigned long long>(r.epochs_completed),
      static_cast<unsigned long long>(r.epochs_aborted),
      static_cast<unsigned long long>(r.sim_events), wall_ms);
  (void)s;
  (void)k;
  return 0;
}
