#include "core/checkpoints.h"

#include <algorithm>
#include <utility>

#include "dsps/partitioning.h"
#include "state/checkpoint.h"

namespace whale::core {

namespace {

// An alignment channel: (stream << 32) | producing task.
uint64_t chan_key(uint32_t stream, int src_task) {
  return (static_cast<uint64_t>(stream) << 32) |
         static_cast<uint32_t>(src_task);
}

}  // namespace

Checkpoints::Checkpoints(const EngineConfig& cfg, const dsps::Topology& topo,
                         const std::vector<std::vector<int>>& op_tasks,
                         net::Fabric& fabric, McastGroups& mcast,
                         obs::Tracer& tracer, RunReport& report, Hooks& hooks,
                         int trace_pid)
    : cfg_(cfg), topo_(topo), op_tasks_(op_tasks), fabric_(fabric),
      mcast_(mcast), tracer_(tracer), report_(report), hooks_(hooks),
      trace_pid_(trace_pid) {
  // The remote medium's state host is the node appended past the workers.
  if (enabled()) {
    store_ = std::make_unique<state::CheckpointStore>(
        fabric_, cfg_.cost, cfg_.state, /*host_node=*/cfg_.cluster.num_nodes);
  }
}

void Checkpoints::add_task(const Executor& x) {
  if (!enabled()) return;
  const auto& spec = topo_.ops[static_cast<size_t>(x.op)];
  Task& t = tasks_.emplace_back();
  t.x = x;
  t.spout = spec.is_spout;
  t.sink = !spec.is_spout && spec.out_streams.empty();
  if (started_) {
    // Stray barrier copies of the epoch committing now are stale on
    // arrival; the rescale then installs the task's image.
    t.epoch = last_committed_;
    store_->bind_task(x.id, x.node, x.store->snapshot());
  }
}

void Checkpoints::start(Time window_end) {
  if (!enabled()) return;
  started_ = true;
  window_end_ = window_end;
  // The delta baselines start at the bound image, so the first incremental
  // delta diffs against exactly what the remote host holds.
  for (Task& t : tasks_) {
    const std::vector<uint8_t> image = t.x.store->snapshot();
    store_->bind_task(t.x.id, t.x.node, image);
    t.x.store->rebase(image);
  }
  rescaled();
  tick_loop();
}

void Checkpoints::register_metrics(obs::MetricsRegistry& metrics) {
  epochs_completed_.c = metrics.counter("state.epochs_completed");
  epochs_aborted_.c = metrics.counter("state.epochs_aborted");
  barriers_injected_.c = metrics.counter("state.barriers_injected");
  snapshot_bytes_.c = metrics.counter("state.snapshot_bytes");
  committed_completions_.c = metrics.counter("state.committed_completions");
  duplicates_filtered_.c = metrics.counter("state.duplicates_filtered");
  replayed_tuples_.c = metrics.counter("state.replayed_tuples");
  c_reinjections_ = metrics.counter("state.channel_reinjections");
  const RunReport& r = report_;
  metrics.gauge("state.last_committed_epoch",
                [this] { return static_cast<double>(last_committed_); });
  metrics.gauge("state.align_stall_ns",
                [&r] { return static_cast<double>(r.align_stall_total); });
  metrics.gauge("state.dirty_ratio", [&r] {
    // Shipped snapshot bytes over the full images they represent; 1.0 for
    // full snapshots, < 1.0 once incremental deltas start paying off.
    const double full = static_cast<double>(r.snapshot_full_bytes);
    return full ? static_cast<double>(r.checkpoint_bytes) / full : 0.0;
  });
  metrics.gauge("state.channel_bytes",
                [&r] { return static_cast<double>(r.channel_bytes); });
  if (!cfg_.state.remote) return;
  const state::CheckpointStore::Stats& s = store_->stats();
  metrics.gauge("state.remote_write_bytes",
                [&s] { return static_cast<double>(s.write_bytes); });
  metrics.gauge("state.remote_read_bytes",
                [&s] { return static_cast<double>(s.read_bytes); });
  metrics.gauge("state.mr_registered_bytes",
                [&s] { return static_cast<double>(s.region_bytes); });
}

void Checkpoints::finalize() {
  if (!enabled()) return;
  RunReport& r = report_;
  r.epoch_duration_avg =
      r.epochs_completed ? epoch_duration_total_ /
                               static_cast<Duration>(r.epochs_completed)
                         : 0;
  const auto& rs = store_->stats();  // all 0 on the local store
  r.remote_writes = rs.writes_posted;
  r.remote_write_bytes = rs.write_bytes;
  r.remote_reads = rs.reads_posted;
  r.remote_read_bytes = rs.read_bytes;
  r.mr_regions = rs.regions;
  r.mr_region_bytes = rs.region_bytes;
  r.mr_region_grows = rs.region_grows;
}

bool Checkpoints::admit(int task, Delivery& d) {
  Task& t = tasks_[static_cast<size_t>(task)];
  // Stale-incarnation fence: a copy sent before a recovery (still on the
  // wire or in a queue when the rollback ran) must not be applied to the
  // restored state — its root is re-delivered by the epoch-log replay. A
  // restarted real system severs its old connections; here the old bytes
  // still arrive, so they are dropped at the door. Stale barriers vanish
  // silently (their epoch died with the old incarnation).
  if (d.gen != gen_) {
    if (!state::is_barrier(*d.tuple)) hooks_.count_lost(1);
    hooks_.resume(task);
    return false;
  }
  if (state::is_barrier(*d.tuple)) {
    on_barrier(t, *d.tuple);
    return false;
  }
  // An open fence splits the input channels at the cut. Aligned, a fenced
  // channel's tuple belongs to the NEXT epoch: it waits in the stash,
  // uncharged, until the fence closes. Unaligned, an unfenced channel's
  // tuple is pre-barrier traffic arriving after the cut: it is captured
  // into the epoch's channel state (after the duplicate filter below) and
  // ALSO processed live — its effects land outside the snapshot, which is
  // exactly why recovery re-applies the captured copy.
  bool capture = false;
  if (!t.fenced.empty()) {
    const bool fenced =
        t.fenced.count(chan_key(d.tuple->stream, d.src_task)) != 0;
    if (cfg_.state.unaligned) {
      capture = !fenced;
    } else if (fenced) {
      t.stash.push_back(std::move(d));
      hooks_.resume(task);
      return false;
    }
  }
  // Sink-side exactly-once filter: a root whose effects are already inside
  // the committed snapshot (delivered again by a log replay or a stale
  // wire copy) is dropped before user logic runs. Channel-state
  // re-injections are exempt: their roots may have committed (the epoch
  // whose capture they rode), but their live effects were NOT in that
  // epoch's snapshot — recovery must re-apply them.
  if (t.sink && !d.from_channel_state &&
      committed_roots_.count(d.tuple->root_id) != 0) {
    duplicates_filtered_.add();
    hooks_.filtered(d);
    hooks_.resume(task);
    return false;
  }
  if (capture) t.captured.push_back(*d.tuple);
  return true;
}

void Checkpoints::log_emission(int task, const dsps::Tuple& tuple) {
  // The root belongs to the epoch the spout's NEXT barrier opens; entries
  // tagged past the committed epoch form the rewind set.
  Task& t = tasks_[static_cast<size_t>(task)];
  t.log.push_back(LogEntry{t.epoch + 1, tuple});
}

void Checkpoints::barrier_lost(uint64_t epoch) {
  sim().schedule_after(0, [this, epoch] {
    if (in_flight_ && epoch_ == epoch) abort();
  });
}

size_t Checkpoints::stashed() const {
  size_t n = 0;
  for (const Task& t : tasks_) n += t.stash.size();
  return n;
}

void Checkpoints::tick_loop() {
  sim().schedule_after(cfg_.state.checkpoint_interval, [this] {
    // An epoch that did not finish within one interval is wedged (a
    // barrier was lost, a worker died, a queue stayed full): abort it. This
    // bounds alignment stall at one interval and makes alignment
    // deadlock-free. Skip injection while the cluster is unstable — the
    // epoch would only abort again.
    abort();
    bool stable = !mcast_.reconfiguring();
    for (int n = 0; n < cfg_.cluster.num_nodes; ++n) {
      stable = stable && fabric_.node_up(n);
    }
    if (stable) inject();
    if (sim().now() < window_end_) tick_loop();
  });
}

void Checkpoints::inject() {
  in_flight_ = true;
  const uint64_t epoch = ++epoch_;
  epoch_start_ = sim().now();
  unstage();
  hooks_.epoch_begun(epoch);
  bool ok = false;
  for (Task& t : tasks_) {
    if (!t.spout) continue;
    barriers_injected_.add();
    if (tracer_.enabled()) {
      tracer_.instant("barrier.inject", "state", t.x.node, obs::kLaneControl,
                      sim().now(), epoch);
    }
    Delivery bd{std::make_shared<const dsps::Tuple>(
                    state::make_barrier(epoch, /*src_task=*/-1)),
                0};
    bd.gen = gen_;
    if (!t.x.in_queue->try_push(std::move(bd))) {
      // A spout queue so full even the barrier bounces: give up on this
      // epoch (the barrier would arrive behind an unbounded backlog
      // anyway) and retry at the next tick.
      abort();
      return;
    }
    ok = true;
  }
  if (!ok) abort();  // no spouts: nothing can ever align
}

void Checkpoints::unstage() {
  for (Task& t : tasks_) {
    t.staged.reset();
    t.staged_channel.clear();
    t.staged_channel_bytes = 0;
    t.written = false;
  }
  writes_landed_ = 0;
}

void Checkpoints::abort() {
  if (!in_flight_) return;
  in_flight_ = false;
  const uint64_t epoch = epoch_;
  unstage();
  epochs_aborted_.add();
  if (tracer_.enabled()) {
    tracer_.instant("epoch.abort", "state", trace_pid_, obs::kLaneControl,
                    sim().now(), epoch);
  }
  mcast_.lift_fences();
  store_->abort(epoch);
  for (Task& t : tasks_) t.x.store->drop_pending_baseline();
  for (Task& t : tasks_) close_fence(t);
  hooks_.epoch_aborted(epoch);
}

void Checkpoints::on_barrier(Task& t, const dsps::Tuple& b) {
  const uint64_t epoch = state::barrier_epoch(b);
  const int id = t.x.id;
  // Tree fence: this barrier copy has left the dissemination structure.
  if (!t.spout) mcast_.exit_fence(static_cast<int>(b.stream));
  if (!in_flight_ || epoch != epoch_ || epoch <= t.epoch) {
    hooks_.resume(id);  // an aborted or superseded epoch's barrier
    return;
  }
  // A spout or single-channel task opens, cuts and seals on one barrier.
  const bool first = t.fenced.empty();
  if (first) t.fence_start = sim().now();
  t.fenced.insert(chan_key(b.stream, state::barrier_src_task(b)));
  const bool last = static_cast<int>(t.fenced.size()) >= t.expected;
  const bool cut = cfg_.state.unaligned ? first : last;
  Duration ser = 0;
  if (cut) {
    t.cut = store_->take(*t.x.store);
    // The serializer walks every cell even when only a delta ships, so the
    // CPU charge follows the FULL image size.
    ser = cfg_.cost.ser_time(t.cut->stats.full_bytes);
    if (t.sink) {
      // Everything the sink completed before this barrier is this epoch's.
      sealed_roots_.insert(sealed_roots_.end(), t.sink_pending.begin(),
                           t.sink_pending.end());
      t.sink_pending.clear();
    }
  }
  // Seal: stage the cut and the captured channel state, then write them.
  // The task's epoch moves only now — while an unaligned fence is open,
  // the staleness guard above must keep admitting this epoch's barriers.
  std::optional<state::CheckpointStore::Snapshot> sealed;
  uint64_t channel_bytes = 0;
  if (last) {
    t.epoch = epoch;
    sealed = std::move(t.cut);
    t.staged = sealed->stats;
    for (const auto& tup : t.captured) channel_bytes += tup.approx_bytes();
    t.staged_channel = std::move(t.captured);
    t.staged_channel_bytes = channel_bytes;
    close_fence(t);
  }
  auto resume = [this, id, epoch, sealed = std::move(sealed),
                 channel_bytes]() mutable {
    if (sealed) {
      write(tasks_[static_cast<size_t>(id)], epoch, std::move(*sealed),
            channel_bytes);
      hooks_.task_sealed(id, epoch);
    }
    hooks_.resume(id);
  };
  if (!cut) {
    resume();
    return;
  }
  // Serialization is the only synchronous cost the executor pays; the
  // barrier is forwarded BEFORE the stash drains (downstream FIFO order),
  // and the store write proceeds off the critical path.
  t.x.cpu->execute(ser, sim::CpuCategory::kSerialization,
                   [this, id, epoch, resume = std::move(resume)]() mutable {
                     hooks_.forward_barrier(id, epoch, std::move(resume));
                   });
}

void Checkpoints::close_fence(Task& t) {
  if (!t.fenced.empty() && !cfg_.state.unaligned) {
    report_.align_stall_total += sim().now() - t.fence_start;
  }
  t.fenced.clear();
  t.cut.reset();
  t.captured.clear();
}

void Checkpoints::write(Task& t, uint64_t epoch,
                        state::CheckpointStore::Snapshot snap,
                        uint64_t channel_bytes) {
  // A remote WRITE eaten by the fabric fires nothing; the epoch aborts at
  // the next tick.
  const int id = t.x.id;
  store_->write(id, epoch, t.x.cpu, std::move(snap), channel_bytes,
                [this, id, epoch] {
                  if (!in_flight_ || epoch != epoch_) return;  // stale
                  Task& w = tasks_[static_cast<size_t>(id)];
                  if (!w.written) {
                    w.written = true;
                    ++writes_landed_;
                  }
                  if (writes_landed_ == participants_) commit();
                });
}

void Checkpoints::commit() {
  const uint64_t epoch = epoch_;
  in_flight_ = false;
  last_committed_ = epoch;
  // Merge the staged deltas into the committed images, then promote the
  // local baselines to match — the next delta diffs against exactly what
  // the store now holds.
  store_->commit(epoch);
  for (Task& t : tasks_) t.x.store->commit_baseline();
  // Channel state is per epoch: the committing epoch's captures REPLACE
  // the previous epoch's (a task that captured nothing has none).
  RunReport& r = report_;
  uint64_t bytes = 0;
  for (Task& t : tasks_) {
    if (t.staged) {
      bytes += t.staged->shipped_bytes;
      r.snapshot_full_bytes += t.staged->full_bytes;
      r.state_dirty_cells += t.staged->dirty_cells;
      r.state_clean_cells += t.staged->clean_cells;
    }
    bytes += t.staged_channel_bytes;
    r.channel_bytes += t.staged_channel_bytes;
    t.channel = std::move(t.staged_channel);
    r.channel_tuples_captured += t.channel.size();
    // Prune the log's committed prefix.
    const auto kept = std::find_if(t.log.begin(), t.log.end(),
                                   [epoch](const LogEntry& e) {
                                     return e.epoch > epoch;
                                   });
    t.log.erase(t.log.begin(), kept);
  }
  unstage();
  snapshot_bytes_.add(bytes);
  // One sealed entry per sink *delivery*: an all-grouped fan-in seals the
  // same root several times, which is not a filtered duplicate.
  for (const uint64_t root : sealed_roots_) {
    if (committed_roots_.insert(root).second) committed_completions_.add();
  }
  sealed_roots_.clear();
  epochs_completed_.add();
  const Duration took = sim().now() - epoch_start_;
  epoch_duration_total_ += took;
  if (tracer_.enabled()) {
    tracer_.complete("checkpoint", "state", trace_pid_, obs::kLaneControl,
                     epoch_start_, took, epoch);
  }
  // A tree fence held by a barrier copy lost to a racing crash must not
  // outlive the epoch.
  mcast_.lift_fences();
  hooks_.epoch_committed(epoch);
}

uint64_t Checkpoints::drain(int task) {
  Task& t = tasks_[static_cast<size_t>(task)];
  uint64_t dropped = t.stash.size();  // barriers are never stashed
  while (auto d = t.x.in_queue->try_pop()) {
    if (!state::is_barrier(*d->tuple)) ++dropped;
  }
  t.stash.clear();
  // Nothing waits on a dead fence: it closes without counting stall.
  t.fenced.clear();
  close_fence(t);
  return dropped;
}

void Checkpoints::on_restart(int node, sim::CpuServer* reader) {
  // The incarnation lets a newer restart supersede a restore in flight.
  const uint64_t gen = ++gen_;
  const Time start = sim().now();
  const double bytes = static_cast<double>(store_->committed_bytes_total());
  store_->read_images(reader, node, [this, gen, node, start, bytes] {
    if (tracer_.enabled()) {
      tracer_.complete("state.restore", "fault", node, obs::kLaneControl,
                       start, sim().now() - start, 0, "bytes", bytes);
    }
    if (gen == gen_) recover();
  });
}

void Checkpoints::recover() {
  // Quietly drop any in-flight epoch: the crash already counted its abort.
  in_flight_ = false;
  unstage();
  sealed_roots_.clear();
  ++report_.checkpoint_recoveries;
  mcast_.lift_fences();
  for (Task& t : tasks_) {
    t.sink_pending.clear();   // replay re-delivers these roots
    if (!t.active) continue;  // retired by a rescale; nothing to roll back
    // Everything queued or fenced past the committed epoch is superseded
    // by the log replay below.
    hooks_.count_lost(drain(t.x.id));
    t.epoch = last_committed_;
    // Spout stores are source-reader state: the live value already covers
    // every logged emission, and the log replay re-delivers the
    // uncommitted gap. Rolling a spout back would make post-recovery
    // generation repeat the replayed offsets as fresh roots. Its ROUTING
    // cells are the exception: they rewind, or the replayed emissions take
    // different routes than their originals did.
    const auto& image = store_->recovery_image(t.x.id);
    if (!t.spout) {
      t.x.store->restore(image);
    } else if (t.x.store->has_cell_matching(dsps::is_routing_cell)) {
      t.x.store->restore_if(image, dsps::is_routing_cell);
    }
    t.x.store->rebase(image);
  }
  if (tracer_.enabled()) {
    tracer_.instant("state.recovered", "state", trace_pid_, obs::kLaneControl,
                    sim().now(), last_committed_);
  }
  // Re-apply the committed epoch's channel state (unaligned barriers):
  // processed live AFTER the snapshot, so the restored image lacks their
  // effects. They are older than anything the logs re-emit, so they go
  // first, flagged to bypass the sink dup filter.
  for (Task& t : tasks_) {
    if (!t.active) continue;
    for (const auto& tup : t.channel) {
      if (c_reinjections_) c_reinjections_->inc();
      Delivery d{std::make_shared<const dsps::Tuple>(tup), 0};
      d.gen = gen_;
      d.from_channel_state = true;
      if (t.x.in_queue->try_push(std::move(d))) {
        ++report_.channel_replays;
      } else {
        hooks_.count_lost(1);
      }
    }
  }
  // Rewind every spout to the committed epoch's source offsets.
  for (Task& t : tasks_) {
    if (!t.spout || !t.active) continue;
    t.replay.clear();
    t.replayed = 0;
    for (const auto& e : t.log) {
      if (e.epoch > last_committed_) t.replay.push_back(e.tuple);
    }
    replay(t.x.id, gen_);
  }
}

void Checkpoints::replay(int task, uint64_t gen) {
  Task& t = tasks_[static_cast<size_t>(task)];
  if (gen != gen_ || t.replayed >= t.replay.size()) return;
  if (!fabric_.node_up(t.x.node)) return;
  auto tup = std::make_shared<dsps::Tuple>(t.replay[t.replayed]);
  tup->root_emit_time = sim().now();
  Delivery d{tup, 0};
  d.replayed = true;
  d.gen = gen;
  if (t.x.in_queue->try_push(std::move(d))) {
    ++t.replayed;
    replayed_tuples_.add();
    hooks_.replayed(tup->root_id);
    // One event per queued tuple keeps the recursion flat and lets replay
    // interleave with regular pumping deterministically.
    sim().schedule_after(0, [this, task, gen] { replay(task, gen); });
    return;
  }
  t.x.in_queue->wait_for_space([this, task, gen] { replay(task, gen); });
}

uint64_t Checkpoints::retire(int task) {
  const uint64_t stale = drain(task);
  Task& t = tasks_[static_cast<size_t>(task)];
  t.active = false;
  t.channel.clear();
  t.sink_pending.clear();
  t.log.clear();
  // Its slice now lives in the surviving instances' installed images.
  store_->erase_task(task);
  return stale;
}

void Checkpoints::install(int task) {
  state::StateStore& s = *tasks_[static_cast<size_t>(task)].x.store;
  const std::vector<uint8_t> image = s.snapshot();
  store_->overwrite(task, image);
  s.rebase(image);
}

void Checkpoints::rescaled() {
  // op_tasks_ holds exactly the live instances: one alignment channel per
  // (in-stream, live upstream task) pair; a spout aligns on the injected
  // barrier alone.
  participants_ = 0;
  for (Task& t : tasks_) {
    if (!t.active) continue;
    ++participants_;
    const auto& spec = topo_.ops[static_cast<size_t>(t.x.op)];
    t.expected = spec.is_spout ? 1 : 0;
    for (int sid : spec.in_streams) {
      t.expected += static_cast<int>(
          op_tasks_[static_cast<size_t>(
                        topo_.streams[static_cast<size_t>(sid)].from_op)]
              .size());
    }
  }
}

}  // namespace whale::core
