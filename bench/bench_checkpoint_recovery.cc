// Checkpoint/recovery benchmark (DESIGN.md §10, EXPERIMENTS.md).
//
// A one-to-many topology with a stateful counting sink is crashed halfway
// through the window and restored. Three questions, one JSON object on
// stdout (committed as results/BENCH_checkpoint.json):
//
//  1. interval_sweep — recovery time and goodput vs checkpoint interval:
//     short intervals bound the uncommitted log (fast replay, more barrier
//     and snapshot traffic); long intervals checkpoint cheaply but replay a
//     larger gap.
//  2. overhead — the same fault-free run with checkpointing off vs on:
//     the delivered-throughput cost of barriers + snapshots, plus the
//     wall-clock simulation cost of having the layer merely compiled in.
//  3. remote_state — the same crash run at the tightest interval (25ms)
//     with the remote-state backend layered in step by step: one-sided
//     full snapshots, then incremental (dirty-page) deltas, then unaligned
//     barriers. The summary derives the per-epoch snapshot byte cut and
//     the alignment-stall cut against the aligned/local/full baseline.
//  4. vs_acker — the crash run recovered by acker-driven at-least-once
//     replay (state off) against checkpoint-restore exactly-once: replay
//     volume, duplicate sink applications, and delivery-recovery gap.
//
// Not a paper figure: the paper assumes a fault-free cluster; this bench
// characterises the state subsystem layered on top of it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "faults/plan.h"
#include "state/state_store.h"

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
    t.values.emplace_back(std::string(128, 'w'));
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

class ForwardBolt : public dsps::Bolt {
 public:
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override {
    out.emit(t);
    return us(4);
  }
};

// Stateful sink: counts how often each sequence number was applied. With
// the all-grouped middle operator at parallelism P, exactly-once delivery
// means every value lands exactly P times; extra applications are
// duplicates (at-least-once replay), fewer are losses.
class CountingSink : public dsps::Bolt {
 public:
  Duration execute(const dsps::Tuple& t, dsps::Emitter&) override {
    ++counts_[t.as_int(0)];
    return us(2);
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

constexpr int kMidParallelism = 8;

struct Handles {
  SeqSpout* spout = nullptr;
  CountingSink* sink = nullptr;
};

dsps::Topology stateful_topo(double rate, Duration stop_at, Handles* h) {
  dsps::TopologyBuilder b;
  // Emission stops shortly before the simulation horizon so the pipeline
  // drains: the run ends at window_end sharp, and copies of the very last
  // values would otherwise be cut off in flight and read as "missing".
  const int s = b.add_spout(
      "s",
      [h] {
        auto sp = std::make_unique<SeqSpout>();
        if (h) h->spout = sp.get();
        return sp;
      },
      1, dsps::RateProfile::constant(rate).then_at(stop_at, 0.0));
  const int m = b.add_bolt(
      "m", [] { return std::make_unique<ForwardBolt>(); }, kMidParallelism);
  const int k = b.add_bolt(
      "c",
      [h] {
        auto sk = std::make_unique<CountingSink>();
        if (h) h->sink = sk.get();
        return sk;
      },
      1);
  b.connect(s, m, dsps::Grouping::kAll);  // barriers ride the mcast tree
  b.connect(m, k, dsps::Grouping::kShuffle);
  return b.build();
}

struct RunResult {
  core::RunReport report;
  int64_t emitted = 0;
  uint64_t duplicates = 0;  // sink applications beyond kMidParallelism
  uint64_t missing = 0;     // values applied fewer than kMidParallelism times
  double wall_ms = 0;
};

struct Scenario {
  double rate = 2000.0;
  Duration warmup = ms(100);
  Duration window = ms(1200);
  Duration crash_at = 0;  // 0 = fault free
  Duration restart_after = ms(150);
  bool checkpoint = false;
  Duration interval = ms(100);
  bool acker = false;
  bool remote = false;       // one-sided snapshots onto the state host
  bool incremental = false;  // ship dirty pages instead of full images
  bool unaligned = false;    // capture in-flight channel state, no stall
};

RunResult run_scenario(const Scenario& s) {
  core::EngineConfig cfg;
  cfg.cluster.num_nodes = 8;
  cfg.variant = core::SystemVariant::Whale();
  cfg.seed = 42;
  cfg.timeseries_bin = ms(10);
  cfg.executor_queue_capacity = 65536;
  cfg.transfer_queue_capacity = 65536;
  cfg.state.enabled = s.checkpoint;
  cfg.state.checkpoint_interval = s.interval;
  cfg.state.remote = s.remote;
  cfg.state.incremental = s.incremental;
  cfg.state.unaligned = s.unaligned;
  if (s.acker) {
    cfg.enable_acking = true;
    cfg.ack_timeout = ms(120);
  }
  if (s.crash_at > 0) cfg.faults.crash(/*node=*/3, s.crash_at, s.restart_after);

  Handles h;
  core::Engine e(cfg,
                 stateful_topo(s.rate, s.warmup + s.window - ms(50), &h));
  const double t0 = now_ns();
  RunResult out;
  out.report = e.run(s.warmup, s.window);
  out.wall_ms = (now_ns() - t0) / 1e6;
  out.emitted = h.spout ? h.spout->emitted() : 0;
  if (h.sink) {
    const bool dbg = std::getenv("WHALE_BENCH_DEBUG") != nullptr;
    for (const auto& [seq, n] : h.sink->counts()) {
      if (n > kMidParallelism) out.duplicates += n - kMidParallelism;
      if (n < kMidParallelism) out.missing += kMidParallelism - n;
      if (dbg && n != kMidParallelism) {
        std::fprintf(stderr, "deficit seq=%lld count=%llu\n",
                     static_cast<long long>(seq),
                     static_cast<unsigned long long>(n));
      }
    }
    if (dbg) {
      std::fprintf(stderr, "emitted=%lld sink_values=%zu\n",
                   static_cast<long long>(out.emitted),
                   h.sink->counts().size());
    }
  }
  return out;
}

// First throughput bin at/after the crash that recovers to `frac` of the
// pre-crash average delivery rate; -1 if it never does.
double recovery_ms(const core::RunReport& r, Duration warmup, Duration crash,
                   Duration bin, double frac) {
  const auto& s = r.tput_series;
  const size_t crash_bin = static_cast<size_t>(crash / bin);
  const size_t first_bin = static_cast<size_t>(warmup / bin);
  double pre = 0;
  size_t n = 0;
  for (size_t i = first_bin; i < crash_bin && i < s.num_bins(); ++i) {
    pre += s.bin_rate(i);
    ++n;
  }
  if (n == 0 || pre <= 0) return -1;
  pre /= static_cast<double>(n);
  for (size_t i = crash_bin; i < s.num_bins(); ++i) {
    if (s.bin_rate(i) >= frac * pre) {
      return to_millis(static_cast<Time>(i - crash_bin) * ms(10));
    }
  }
  return -1;
}

void print_common(const RunResult& rr, Duration warmup, Duration crash) {
  const auto& r = rr.report;
  std::printf(
      "\"sink_tps\": %.0f, \"mcast_tps\": %.0f, \"recovery_ms\": %.0f, "
      "\"emitted\": %lld, \"duplicates\": %llu, \"missing\": %llu, "
      "\"queue_rejects\": %llu, \"tuples_lost\": %llu",
      r.sink_throughput_tps, r.mcast_throughput_tps,
      crash > 0 ? recovery_ms(r, warmup, crash, ms(10), 0.8) : 0.0,
      static_cast<long long>(rr.emitted),
      static_cast<unsigned long long>(rr.duplicates),
      static_cast<unsigned long long>(rr.missing),
      static_cast<unsigned long long>(r.queue_rejects),
      static_cast<unsigned long long>(r.tuples_lost));
}

void print_checkpoint_fields(const core::RunReport& r) {
  std::printf(
      "\"epochs_completed\": %llu, \"epochs_aborted\": %llu, "
      "\"barriers\": %llu, \"checkpoint_bytes\": %llu, "
      "\"committed_completions\": %llu, \"duplicates_filtered\": %llu, "
      "\"recoveries\": %llu, \"checkpoint_replays\": %llu, "
      "\"align_stall_ms\": %.3f, \"epoch_duration_ms\": %.3f",
      static_cast<unsigned long long>(r.epochs_completed),
      static_cast<unsigned long long>(r.epochs_aborted),
      static_cast<unsigned long long>(r.barriers_injected),
      static_cast<unsigned long long>(r.checkpoint_bytes),
      static_cast<unsigned long long>(r.committed_completions),
      static_cast<unsigned long long>(r.duplicates_filtered),
      static_cast<unsigned long long>(r.checkpoint_recoveries),
      static_cast<unsigned long long>(r.checkpoint_replays),
      to_millis(r.align_stall_total), to_millis(r.epoch_duration_avg));
}

void print_remote_fields(const core::RunReport& r) {
  std::printf(
      "\"snapshot_full_bytes\": %llu, \"dirty_cells\": %llu, "
      "\"clean_cells\": %llu, \"remote_writes\": %llu, "
      "\"remote_write_bytes\": %llu, \"remote_reads\": %llu, "
      "\"remote_read_bytes\": %llu, \"mr_regions\": %llu, "
      "\"mr_region_bytes\": %llu, \"mr_region_grows\": %llu, "
      "\"channel_tuples_captured\": %llu, \"channel_bytes\": %llu, "
      "\"channel_replays\": %llu",
      static_cast<unsigned long long>(r.snapshot_full_bytes),
      static_cast<unsigned long long>(r.state_dirty_cells),
      static_cast<unsigned long long>(r.state_clean_cells),
      static_cast<unsigned long long>(r.remote_writes),
      static_cast<unsigned long long>(r.remote_write_bytes),
      static_cast<unsigned long long>(r.remote_reads),
      static_cast<unsigned long long>(r.remote_read_bytes),
      static_cast<unsigned long long>(r.mr_regions),
      static_cast<unsigned long long>(r.mr_region_bytes),
      static_cast<unsigned long long>(r.mr_region_grows),
      static_cast<unsigned long long>(r.channel_tuples_captured),
      static_cast<unsigned long long>(r.channel_bytes),
      static_cast<unsigned long long>(r.channel_replays));
}

double per_epoch(uint64_t bytes, uint64_t epochs) {
  return epochs ? static_cast<double>(bytes) / static_cast<double>(epochs)
                : 0.0;
}

}  // namespace

int main() {
  const Duration warmup = ms(100);
  const Duration window = ms(static_cast<int64_t>(
      env_double("WHALE_BENCH_WINDOW_MS", 1200)));
  const Duration crash_at = window / 2;
  const double rate = env_double("WHALE_BENCH_RATE", 2000.0);

  std::printf("{\n\"bench\": \"checkpoint_recovery\",\n");
  std::printf(
      "\"config\": {\"nodes\": 8, \"rate_tps\": %.0f, \"window_ms\": %lld, "
      "\"crash_ms\": %lld, \"restart_ms\": 150, \"mid_parallelism\": %d},\n",
      rate, static_cast<long long>(to_millis(window)),
      static_cast<long long>(to_millis(crash_at)), kMidParallelism);

  // --- 1. recovery vs checkpoint interval --------------------------------
  std::printf("\"interval_sweep\": [\n");
  const int64_t intervals_ms[] = {25, 50, 100, 200, 400};
  bool first = true;
  for (const int64_t iv : intervals_ms) {
    Scenario s;
    s.rate = rate;
    s.warmup = warmup;
    s.window = window;
    s.crash_at = crash_at;
    s.checkpoint = true;
    s.interval = ms(iv);
    const RunResult rr = run_scenario(s);
    std::printf("%s  {\"interval_ms\": %lld, ", first ? "" : ",\n",
                static_cast<long long>(iv));
    first = false;
    print_common(rr, warmup, crash_at);
    std::printf(", ");
    print_checkpoint_fields(rr.report);
    std::printf("}");
  }
  std::printf("\n],\n");

  // --- 2. checkpoint on/off overhead (fault free) ------------------------
  {
    Scenario off;
    off.rate = rate;
    off.warmup = warmup;
    off.window = window;
    Scenario on = off;
    on.checkpoint = true;
    on.interval = ms(100);
    const RunResult a = run_scenario(off);
    const RunResult b = run_scenario(on);
    const double tps_delta =
        a.report.sink_throughput_tps > 0
            ? (a.report.sink_throughput_tps - b.report.sink_throughput_tps) /
                  a.report.sink_throughput_tps
            : 0.0;
    std::printf("\"overhead\": {\n");
    std::printf("  \"off\": {\"events\": %llu, \"wall_ms\": %.2f, ",
                static_cast<unsigned long long>(a.report.sim_events),
                a.wall_ms);
    print_common(a, warmup, 0);
    std::printf("},\n  \"on\": {\"events\": %llu, \"wall_ms\": %.2f, ",
                static_cast<unsigned long long>(b.report.sim_events),
                b.wall_ms);
    print_common(b, warmup, 0);
    std::printf(", ");
    print_checkpoint_fields(b.report);
    std::printf("},\n  \"goodput_overhead_frac\": %.4f\n},\n", tps_delta);
  }

  // --- 3. remote-state backend: one-sided + incremental + unaligned ------
  {
    Scenario base;
    base.rate = rate;
    base.warmup = warmup;
    base.window = window;
    base.crash_at = crash_at;
    base.checkpoint = true;
    base.interval = ms(25);  // tightest interval: snapshot cost dominates

    struct Step {
      const char* name;
      bool remote, incremental, unaligned;
    };
    const Step steps[] = {
        {"aligned_full_local", false, false, false},
        {"remote_full", true, false, false},
        {"remote_incremental", true, true, false},
        {"remote_incremental_unaligned", true, true, true},
    };
    RunResult results[4];
    std::printf("\"remote_state\": {\n  \"interval_ms\": 25,\n");
    for (int i = 0; i < 4; ++i) {
      Scenario s = base;
      s.remote = steps[i].remote;
      s.incremental = steps[i].incremental;
      s.unaligned = steps[i].unaligned;
      results[i] = run_scenario(s);
      std::printf("  \"%s\": {", steps[i].name);
      print_common(results[i], warmup, crash_at);
      std::printf(", ");
      print_checkpoint_fields(results[i].report);
      if (steps[i].remote || steps[i].unaligned) {
        std::printf(", ");
        print_remote_fields(results[i].report);
      }
      std::printf("},\n");
    }
    const auto& full = results[0].report;
    const auto& incr = results[2].report;
    const auto& unal = results[3].report;
    const double full_per_epoch =
        per_epoch(full.checkpoint_bytes, full.epochs_completed);
    const double incr_per_epoch =
        per_epoch(incr.checkpoint_bytes, incr.epochs_completed);
    const double stall_full = to_millis(full.align_stall_total);
    const double stall_unal = to_millis(unal.align_stall_total);
    std::printf(
        "  \"summary\": {\"bytes_per_epoch_full\": %.0f, "
        "\"bytes_per_epoch_incremental\": %.0f, "
        "\"bytes_reduction_x\": %.2f, "
        "\"align_stall_full_ms\": %.3f, \"align_stall_unaligned_ms\": %.3f, "
        "\"align_stall_reduction_x\": %.2f}\n},\n",
        full_per_epoch, incr_per_epoch,
        incr_per_epoch > 0 ? full_per_epoch / incr_per_epoch : 0.0,
        stall_full, stall_unal,
        // A fully eliminated stall would divide by zero; clamp the
        // denominator to one microsecond so the ratio stays finite.
        stall_full / std::max(stall_unal, 0.001));
  }

  // --- 4. checkpoint-restore vs acker-only replay ------------------------
  {
    Scenario acker;
    acker.rate = rate;
    acker.warmup = warmup;
    acker.window = window;
    acker.crash_at = crash_at;
    acker.acker = true;
    Scenario ckpt = acker;
    ckpt.acker = false;
    ckpt.checkpoint = true;
    ckpt.interval = ms(100);
    const RunResult a = run_scenario(acker);
    const RunResult c = run_scenario(ckpt);
    std::printf("\"vs_acker\": {\n  \"acker_only\": {");
    print_common(a, warmup, crash_at);
    std::printf(
        ", \"replayed_roots\": %llu, \"replay_completions\": %llu, "
        "\"failed_roots\": %llu",
        static_cast<unsigned long long>(a.report.replayed_roots),
        static_cast<unsigned long long>(a.report.replay_completions),
        static_cast<unsigned long long>(a.report.failed_roots));
    std::printf("},\n  \"checkpoint\": {");
    print_common(c, warmup, crash_at);
    std::printf(", ");
    print_checkpoint_fields(c.report);
    std::printf("}\n}\n}\n");
  }
  return 0;
}
