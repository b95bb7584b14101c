#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <stdexcept>

#include "common/logging.h"
#include "common/slab.h"
#include "state/checkpoint.h"

namespace whale::core {

namespace {

constexpr uint64_t kMaxTrackedTuples = 1 << 20;

// Encoding the per-worker BatchTuple header around an already-serialized
// body (worker-oriented communication reserializes nothing).
constexpr Duration kWocHeaderCost = ns(600);

// Asynchronous self-continuation without a reference cycle. `body` is
// invoked with a copyable `next` callable; calling next() (directly or
// from a scheduled/queued continuation) runs another iteration. The body
// lives on the heap owned by the next-tokens in flight, so the whole
// chain frees itself as soon as no continuation holds it — unlike the
// `shared_ptr<function> captures itself` idiom, which forms a cycle and
// leaks every chain ever started.
template <typename Body>
void loop_async(Body body_in) {
  // Intrusively refcounted, slab-recycled state: a loop iteration costs
  // zero allocations once the slab is warm. The refcount switches to
  // atomic ops in parallel mode (a chain's continuations always run on
  // one partition, but the guard keeps the invariant local, not global).
  struct State {
    uint32_t refs;
    Body body;
  };
  struct Next {
    State* st = nullptr;
    explicit Next(State* adopted) : st(adopted) {}
    Next(const Next& o) : st(o.st) {
      if (g_buffer_mt) {
        std::atomic_ref<uint32_t>(st->refs).fetch_add(
            1, std::memory_order_relaxed);
      } else {
        ++st->refs;
      }
    }
    Next(Next&& o) noexcept : st(o.st) { o.st = nullptr; }
    Next& operator=(const Next&) = delete;
    Next& operator=(Next&&) = delete;
    ~Next() {
      if (!st) return;
      const bool last =
          g_buffer_mt
              ? std::atomic_ref<uint32_t>(st->refs).fetch_sub(
                    1, std::memory_order_acq_rel) == 1
              : --st->refs == 0;
      if (last) {
        st->~State();
        slab_free(st, sizeof(State));
      }
    }
    void operator()() const {
      Next keep(*this);  // the body may drop the last external reference
      keep.st->body(keep);
    }
  };
  void* p = slab_alloc(sizeof(State));
  Next{::new (p) State{1, std::move(body_in)}}();
}

// Out of line and cold, so route_emissions' per-emission body stays small
// enough to inline.
[[noreturn, gnu::cold, gnu::noinline]] void no_out_stream(
    const dsps::OperatorSpec& op, size_t out_idx) {
  throw std::logic_error("route_emissions: operator '" + op.name +
                         "' has no out stream " + std::to_string(out_idx));
}

// Refuses, naming the entry and the field, a fault plan the cluster cannot
// run: a crash or stall off the workers, a link endpoint off the fabric
// (the remote-state host is on it), a self-link (a node's traffic to
// itself is loopback and never reads link state), a negative time or span,
// or a link factor Fabric::degrade_link cannot apply.
void check_plan(const faults::FaultPlan& plan, int workers,
                int fabric_nodes) {
  auto need = [](bool ok, const char* kind, size_t i, const char* field,
                 const std::string& rule) {
    if (ok) return;
    throw std::invalid_argument("faults." + std::string(kind) + "[" +
                                std::to_string(i) + "]." + field + " " +
                                rule);
  };
  auto node = [&](int n, int limit, const char* kind, size_t i,
                  const char* field) {
    need(n >= 0 && n < limit, kind, i, field,
         "must name a node in [0, " + std::to_string(limit) + ")");
  };
  auto span = [&](Duration d, const char* kind, size_t i, const char* field) {
    need(d >= 0, kind, i, field, "must not be negative");
  };
  for (size_t i = 0; i < plan.crashes.size(); ++i) {
    const faults::NodeCrash& c = plan.crashes[i];
    node(c.node, workers, "crashes", i, "node");
    span(c.at, "crashes", i, "at");
    span(c.restart_after, "crashes", i, "restart_after");
  }
  for (size_t i = 0; i < plan.links.size(); ++i) {
    const faults::LinkFault& l = plan.links[i];
    node(l.src, fabric_nodes, "links", i, "src");
    node(l.dst, fabric_nodes, "links", i, "dst");
    need(l.dst != l.src, "links", i, "dst", "must differ from src");
    span(l.at, "links", i, "at");
    span(l.duration, "links", i, "duration");
    need(l.bandwidth_factor >= 0.0, "links", i, "bandwidth_factor",
         "must not be negative");
    need(l.latency_factor > 0.0, "links", i, "latency_factor",
         "must be positive");
  }
  for (size_t i = 0; i < plan.stalls.size(); ++i) {
    const faults::RelayStall& s = plan.stalls[i];
    node(s.node, workers, "stalls", i, "node");
    span(s.at, "stalls", i, "at");
    span(s.duration, "stalls", i, "duration");
  }
}

}  // namespace

Engine::Engine(EngineConfig cfg, dsps::Topology topo)
    : cfg_(std::move(cfg)), topo_(std::move(topo)) {
  // The remote checkpoint-store medium lives on a dedicated state-host node
  // appended past the workers; it exists in the fabric only when that
  // medium is on, so other runs build the exact same fabric as before.
  net::ClusterSpec cluster = cfg_.cluster;
  const bool remote = cfg_.state.enabled && cfg_.state.remote;
  if (remote) cluster.num_nodes += 1;
  check_plan(cfg_.faults, cfg_.cluster.num_nodes, cluster.num_nodes);
  // At-least-once acking (core/acking.h). It makes the parallel kernel fall
  // back, so it runs on sim_.
  if (cfg_.enable_acking) {
    acking_ = std::make_unique<Acking>(cfg_, sim_, tracer_, report_,
                                       static_cast<Acking::Hooks&>(*this));
  }
  // Parallel kernel opt-in: decided before the fabric exists so the NICs
  // bind to their node's partition. Leaves psim_ null (exact serial path)
  // unless the configuration is provably safe to partition.
  setup_parallel();
  fabric_ = std::make_unique<net::Fabric>(sim_, cluster, psim_.get());
  if (psim_) {
    // Conservative lookahead: the minimum cross-partition propagation on
    // the transport data actually rides (control/data both use it; TCP
    // variants never touch the IB plane and vice versa).
    const net::Transport wire =
        cfg_.variant.transport == TransportMode::kTcp ? net::Transport::kTcp
                                                      : net::Transport::kRdma;
    psim_->set_lookahead(
        fabric_->min_cross_propagation(wire, psim_->node_partition_map()));
  }
  build_runtime();
  mcast_ = std::make_unique<McastGroups>(
      cfg_, topo_,
      McastGroups::Tasks{
          op_tasks_,
          [this](int t) { return tasks_[static_cast<size_t>(t)]->worker; },
          [this](int t) {
            return tasks_[static_cast<size_t>(t)]->in_queue->size();
          }},
      *fabric_, *transport_, tracer_, report_);
  // The "source instance" whose CPU/queue/egress the report tracks: the
  // source of the first all-grouped stream (any variant), else task 0.
  for (const auto& s : topo_.streams) {
    if (s.grouping == dsps::Grouping::kAll) {
      primary_src_task_ = op_tasks_[static_cast<size_t>(s.from_op)][0];
      break;
    }
  }
  if (primary_src_task_ < 0 && !tasks_.empty()) primary_src_task_ = 0;
  if (primary_src_task_ >= 0) {
    primary_src_worker_ =
        tasks_[static_cast<size_t>(primary_src_task_)]->worker;
  }
  const int trace_pid = primary_src_worker_ >= 0 ? primary_src_worker_ : 0;
  ckpt_.emplace(cfg_, topo_, op_tasks_, *fabric_, *mcast_, tracer_, report_,
                static_cast<Checkpoints::Hooks&>(*this), trace_pid);
  for (auto& tp : tasks_) {
    ckpt_->add_task({tp->id, tp->op, tp->node, tp->cpu.get(),
                     tp->in_queue.get(), &tp->store});
  }
  mcast_processed_per_stream_.assign(topo_.streams.size(), 0);
  stream_dst_count_.assign(topo_.streams.size(), 1);
  stream_instance_counts_.resize(topo_.streams.size());
  for (const auto& s : topo_.streams) {
    if (s.grouping == dsps::Grouping::kAll) {
      stream_dst_count_[static_cast<size_t>(s.id)] = static_cast<uint32_t>(
          topo_.ops[static_cast<size_t>(s.to_op)].parallelism);
    }
    stream_instance_counts_[static_cast<size_t>(s.id)].assign(
        static_cast<size_t>(
            topo_.ops[static_cast<size_t>(s.to_op)].parallelism),
        0);
  }
  stream_instance_snap_ = stream_instance_counts_;
  // Elastic rescaling needs the wired runtime (registered state cells
  // decide eligibility, mcast groups take the d* probes); obs comes after
  // so the elastic.* gauges can bind to live controllers.
  if (cfg_.elastic.enabled) {
    elastic_ = std::make_unique<Elastic>(
        cfg_, topo_, op_tasks_, *ckpt_, *mcast_, sim_, tracer_, report_,
        static_cast<Elastic::Hooks&>(*this), trace_pid);
  }
  obs_setup();
}

void Engine::setup_parallel() {
  // Every fallback names the FIRST disqualifying knob in parallel_info_,
  // so the eligibility matrix is pinned by name, never a silent `return`.
  auto fallback = [this](const char* reason) {
    parallel_info_.fallback_reason = reason;
  };
  if (cfg_.sim.threads < 2) return fallback("not_requested");
  // Configurations the partitioner cannot prove safe fall back to the
  // exact serial path (DESIGN.md §13). Each of these couples partitions
  // through shared mutable state with order-sensitive semantics (acker
  // ledger, fault timelines, epoch alignment, obs sampling) or through
  // zero-lookahead cross-node interactions (one-sided READ rings, tree
  // switching control traffic).
  if (acking_) return fallback("acking");
  if (!cfg_.faults.empty()) return fallback("faults");
  if (cfg_.elastic.enabled) return fallback("elastic");
  if (cfg_.state.enabled) return fallback("state");
  if (cfg_.obs.metrics_enabled || cfg_.obs.tracing_enabled) {
    return fallback("obs");
  }
  if (cfg_.variant.transport == TransportMode::kRdmaOptimized) {
    return fallback("optimized_rdma");
  }
  if (cfg_.variant.mcast == McastMode::kNonblocking) {
    return fallback("nonblocking_mcast");
  }
  // Load-aware strategies read live cross-partition instance loads at
  // routing time; probe with a throwaway instance per stream.
  for (const auto& s : topo_.streams) {
    if (dsps::make_strategy(s)->load_aware()) {
      return fallback("load_aware_strategy");
    }
  }

  // Partition map: one partition per node, spout-hosting nodes included.
  // Spout arrivals are partition-local because every spout instance owns
  // its own RNG and its own disjoint root-id stream (build_runtime), so
  // nothing about source emission couples partitions — the old fold of
  // all spout nodes into partition 0 (which serialized the run once the
  // cluster grew past a few dozen nodes) is gone. Partition 0 is anchored
  // at node 0: setup code and post-run readers execute there.
  const int n = cfg_.cluster.num_nodes;
  if (n < 2) return fallback("single_partition");
  std::vector<int> part(static_cast<size_t>(n));
  for (int node = 0; node < n; ++node) part[static_cast<size_t>(node)] = node;

  // Buffers will cross partition threads from here on (relayed multicast
  // payloads, routed deliveries); flip refcounting/pooling to mt mode
  // before any worker thread exists so the flip happens-before all of
  // them. Sticky for the process by design.
  g_buffer_mt = true;
  const int threads = std::min(cfg_.sim.threads, n);
  parallel_info_.engaged = true;
  parallel_info_.num_partitions = n;
  parallel_info_.threads = threads;
  psim_ = std::make_unique<sim::ParallelSimulation>(std::move(part), n,
                                                    threads);
}

void Engine::obs_setup() {
  metrics_.configure(cfg_.obs.metrics_enabled, cfg_.obs.snapshot_interval);
  tracer_.configure(cfg_.obs.tracing_enabled, cfg_.obs.trace_sample_stride,
                    cfg_.obs.max_trace_events);
  fabric_->set_tracer(&tracer_);

  if (!metrics_.enabled()) return;
  fabric_->enable_link_stats();
  c_roots_ = metrics_.counter("obs.roots_emitted");
  c_input_drops_ = metrics_.counter("obs.input_drops");
  c_queue_rejects_ = metrics_.counter("obs.queue_rejects");
  c_sink_ = metrics_.counter("obs.sink_completions");
  c_lost_ = metrics_.counter("obs.tuples_lost_engine");
  c_lost_qp_ = metrics_.counter("obs.tuples_lost_qp");
  c_qp_fabric_drops_ = metrics_.counter("obs.qp_fabric_drops");
  c_inflight_ = metrics_.counter("obs.inflight_end");
  h_sink_latency_ = metrics_.histogram("obs.sink_latency");
  if (state_on()) ckpt_->register_metrics(metrics_);
  if (elastic_) elastic_->register_metrics(metrics_);

  // Verbs-layer fault visibility, summed over every (data + ctrl) QP:
  // READs cancelled by epoch-bumping resets, and packets sitting in QPs
  // wedged by a fabric refusal (destination down at transmit time).
  metrics_.gauge("obs.qp_read_cancellations", [this] {
    return static_cast<double>(transport_->stats().reads_cancelled);
  });
  metrics_.gauge("obs.qp_wedged_packets", [this] {
    return static_cast<double>(transport_->stats().wedged_packets);
  });

  for (auto& wp : workers_) {
    WorkerRt* w = wp.get();
    const int id = w->id;
    const std::string prefix = "worker" + std::to_string(id);
    metrics_.gauge(prefix + ".transfer_queue", [this, id] {
      return static_cast<double>(transport_->queue_depth(id));
    });
    metrics_.gauge(prefix + ".ring_bytes", [this, id] {
      return static_cast<double>(transport_->ring_bytes(id));
    });
    metrics_.gauge("node" + std::to_string(w->node) + ".egress_bytes",
                   [this, w] {
                     return static_cast<double>(
                         fabric_->bytes_sent(net::Transport::kTcp, w->node) +
                         fabric_->bytes_sent(net::Transport::kRdma, w->node));
                   });
  }
  for (auto& tp : tasks_) {
    TaskRt* t = tp.get();
    metrics_.gauge("task" + std::to_string(t->id) + ".in_queue", [t] {
      return static_cast<double>(t->in_queue->size());
    });
  }
  // Per-stream destination-load imbalance (max/avg over instances, 1.0 =
  // perfectly balanced, 0 = no traffic yet). The gauge name carries the
  // active partitioning strategy so metrics JSON is self-describing.
  for (const auto& s : topo_.streams) {
    const size_t sid = static_cast<size_t>(s.id);
    const char* strat =
        tasks_[static_cast<size_t>(
                   op_tasks_[static_cast<size_t>(s.from_op)][0])]
            ->strategies[out_index(s.from_op, s.id)]
            ->name();
    metrics_.gauge(
        "stream" + std::to_string(s.id) + "." + strat + ".imbalance",
        [this, sid] {
          const auto& counts = stream_instance_counts_[sid];
          uint64_t mx = 0, sum = 0;
          for (uint64_t v : counts) {
            mx = std::max(mx, v);
            sum += v;
          }
          return sum ? static_cast<double>(mx) *
                           static_cast<double>(counts.size()) /
                           static_cast<double>(sum)
                     : 0.0;
        });
  }
  // The controller's own input signal (Eq. 1-3): the source instance's
  // queue depth plus its worker's transfer queue.
  if (primary_src_worker_ >= 0) {
    metrics_.gauge("src.transfer_queue", [this] {
      return static_cast<double>(
          transport_->queue_depth(primary_src_worker_));
    });
  }
  if (primary_src_task_ >= 0) {
    TaskRt* st = tasks_[static_cast<size_t>(primary_src_task_)].get();
    metrics_.gauge("src.in_queue", [st] {
      return static_cast<double>(st->in_queue->size());
    });
  }
  mcast_->register_gauges(metrics_);
  // 0 on acking-off runs, so every metrics dump has the series.
  metrics_.gauge("acker.pending", [this] {
    return acking_ ? static_cast<double>(acking_->pending()) : 0.0;
  });
}

void Engine::obs_finalize() {
  if (!metrics_on()) return;
  const Transport::Stats ts = transport_->stats();
  uint64_t inflight = ts.inflight;
  for (const auto& tp : tasks_) {
    inflight += tp->in_queue->size();
    // A task stuck mid-processing (its emission blocked on a queue that
    // will never drain) holds exactly one tuple instance in limbo.
    if (tp->processing) ++inflight;
  }
  if (state_on()) inflight += ckpt_->stashed();
  c_lost_qp_->set(ts.data_packets_lost);
  c_qp_fabric_drops_->set(ts.fabric_drops);
  c_inflight_->set(inflight);
}

Engine::~Engine() = default;

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

sim::CorePool* Engine::core_pool(int node) const {
  return cfg_.model_core_contention
             ? core_pools_[static_cast<size_t>(node)].get()
             : nullptr;
}

void Engine::build_runtime() {
  const int num_workers = cfg_.cluster.num_nodes;
  if (cfg_.model_core_contention) {
    for (int n = 0; n < num_workers; ++n) {
      core_pools_.push_back(std::make_unique<sim::CorePool>(
          node_sim(n), cfg_.cluster.cores_per_node));
    }
  }
  transport_ = std::make_unique<Transport>(
      cfg_, *fabric_,
      [this](int node, std::string name) {
        return std::make_unique<sim::CpuServer>(node_sim(node),
                                                std::move(name),
                                                core_pool(node));
      },
      [this](int dst, rdma::Packet pkt, int src) {
        handle_bytes(*workers_[static_cast<size_t>(dst)], std::move(pkt), src);
      },
      [this] { count_lost(); });
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    auto wr = std::make_unique<WorkerRt>();
    wr->id = w;
    wr->node = w;  // one worker process per node (paper setup)
    wr->op_local_tasks.resize(topo_.ops.size());
    workers_.push_back(std::move(wr));
  }

  op_tasks_.resize(topo_.ops.size());
  // Stream -> out-index maps, fixed at wiring time (a per-emission scan
  // used to re-derive this and silently fell back to slot 0 on a miss).
  op_out_index_.resize(topo_.ops.size());
  for (size_t op = 0; op < topo_.ops.size(); ++op) {
    const auto& outs = topo_.ops[op].out_streams;
    for (size_t i = 0; i < outs.size(); ++i) {
      op_out_index_[op].emplace(outs[i], i);
    }
  }
  // Per-spout arrival state (DESIGN.md §13): every spout instance draws
  // from its own RNG (seeded from cfg_.seed and its global spout index)
  // and allocates root ids from its own disjoint stream — first id
  // 1 + spout_index, stride = total spout instances. Deterministic
  // regardless of thread count, and it is what lets spout-hosting nodes
  // partition like any other node instead of folding into partition 0.
  uint64_t total_spouts = 0;
  for (const auto& spec : topo_.ops) {
    if (spec.is_spout) total_spouts += static_cast<uint64_t>(spec.parallelism);
  }
  uint64_t spout_index = 0;
  for (size_t op = 0; op < topo_.ops.size(); ++op) {
    const auto& spec = topo_.ops[op];
    for (int i = 0; i < spec.parallelism; ++i) {
      // Storm-style round-robin placement.
      TaskRt& t = add_task(static_cast<int>(op), i, i % num_workers);
      if (!spec.is_spout) continue;
      t.spout_rng.reseed(cfg_.seed + 0x9E3779B97F4A7C15ULL * (spout_index + 1));
      t.next_root = 1 + spout_index;
      t.root_stride = total_spouts;
      ++spout_index;
    }
  }
}

Engine::TaskRt& Engine::add_task(int op, int instance, int worker) {
  const auto& spec = topo_.ops[static_cast<size_t>(op)];
  auto t = std::make_unique<TaskRt>();
  TaskRt* raw = t.get();
  t->id = static_cast<int>(tasks_.size());
  t->op = op;
  t->instance = instance;
  t->worker = worker;
  t->node = workers_[static_cast<size_t>(worker)]->node;
  t->cpu = std::make_unique<sim::CpuServer>(
      node_sim(t->node), spec.name + "[" + std::to_string(instance) + "]",
      core_pool(t->node));
  t->in_queue = std::make_unique<sim::BoundedQueue<Delivery>>(
      cfg_.executor_queue_capacity);
  t->in_queue->set_on_item([this, raw] { pump_task(*raw); });
  t->strategies.reserve(spec.out_streams.size());
  for (int sid : spec.out_streams) {
    t->strategies.push_back(
        dsps::make_strategy(topo_.streams[static_cast<size_t>(sid)]));
  }
  dsps::TaskContext ctx{t->id,           op,        instance,
                        spec.parallelism, t->worker, t->node};
  if (spec.is_spout) {
    t->spout = spec.spout_factory();
    t->spout->prepare(ctx);
    t->spout->register_state(t->store);
  } else {
    t->bolt = spec.bolt_factory();
    t->bolt->prepare(ctx);
    t->bolt->register_state(t->store);
  }
  for (size_t oi = 0; oi < spec.out_streams.size(); ++oi) {
    dsps::PartitioningStrategy* strat = t->strategies[oi].get();
    // Routing state joins the executor's checkpoint: a crash-rollback
    // must rewind shuffle cursors / PKG tallies along with operator
    // state, or replayed tuples take different routes than the
    // originals. Cells use the reserved "__route." prefix — recovery
    // restores them even for spouts (whose operator cells stay live).
    if (strat->stateful()) {
      t->store.register_cell(
          std::string(dsps::kRoutingCellPrefix) + "s" +
              std::to_string(spec.out_streams[oi]),
          [strat](ByteWriter& w) { strat->save(w); },
          [strat](ByteReader& r) { strat->restore(r); });
    }
    // Load probes for load-aware strategies (po2c): the destination
    // executor's in-queue depth — the same signal the obs layer's queue
    // gauges export. The destination is looked up per call, so it may be
    // built after this task or spawned by a rescale.
    if (strat->load_aware()) {
      const int to_op =
          topo_.streams[static_cast<size_t>(spec.out_streams[oi])].to_op;
      strat->set_load_probe([this, to_op](size_t i) {
        const int dst = op_tasks_[static_cast<size_t>(to_op)][i];
        return static_cast<double>(
            tasks_[static_cast<size_t>(dst)]->in_queue->size());
      });
    }
  }
  op_tasks_[static_cast<size_t>(op)].push_back(t->id);
  workers_[static_cast<size_t>(worker)]
      ->op_local_tasks[static_cast<size_t>(op)]
      .push_back(t->id);
  tasks_.push_back(std::move(t));
  return *raw;
}

size_t Engine::out_index(int op, int stream) const {
  const auto& m = op_out_index_[static_cast<size_t>(op)];
  const auto it = m.find(stream);
  if (it == m.end()) {
    throw std::logic_error(
        "out_index: operator '" +
        topo_.ops[static_cast<size_t>(op)].name + "' does not produce "
        "stream " + std::to_string(stream));
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

const RunReport& Engine::run(Duration warmup, Duration measure) {
  if (running_) throw std::logic_error("Engine::run called twice");
  running_ = true;
  window_start_ = warmup;
  window_end_ = warmup + measure;
  report_ = RunReport{};
  report_.parallel = parallel_info_;  // decided once, at construction
  report_.variant = cfg_.variant.name();
  report_.warmup = warmup;
  report_.window = measure;
  report_.tput_series = TimeSeries(cfg_.timeseries_bin);
  report_.lat_sum_series = TimeSeries(cfg_.timeseries_bin);
  report_.lat_cnt_series = TimeSeries(cfg_.timeseries_bin);

  if (acking_) {
    acking_->start(window_start_, window_end_,
                   primary_src_worker_ >= 0 ? primary_src_worker_ : 0);
  }

  for (auto& t : tasks_) {
    if (t->spout) schedule_arrival(t->id);
  }
  arm_faults();
  // Queue-length sampling of the source instance for the report (1 ms).
  // The sampler reads the source task's in-queue, so on parallel runs it
  // lives on that task's partition; the report fields it bumps are shared,
  // hence the guard. Then the d* controllers' sample loops.
  if (primary_src_task_ >= 0) {
    const int src = primary_src_task_;
    sim::Simulation* src_sim =
        &node_sim(tasks_[static_cast<size_t>(src)]->node);
    loop_async([this, src, src_sim](auto next) {
      src_sim->schedule_after(ms(1), [this, src, next] {
        if (in_window()) {
          const auto& q = *tasks_[static_cast<size_t>(src)]->in_queue;
          auto lk = shared_guard();
          queue_len_accum_ += static_cast<double>(q.size());
          ++queue_samples_;
          report_.transfer_queue_max =
              std::max(report_.transfer_queue_max, q.size());
        }
        if (cur_sim().now() < window_end_) next();
      });
    });
  }
  mcast_->start(window_start_, window_end_);
  cur_sim().schedule_at(window_start_, [this] { snapshot_at_window_start(); });

  // Metrics snapshots on the simulated-time cadence. Gated on the registry
  // being enabled: a disabled registry schedules ZERO events here, which is
  // what keeps the workload fingerprints (events= included) bit-identical.
  if (metrics_on()) {
    metrics_.snapshot(cur_sim().now());
    loop_async([this](auto next) {
      cur_sim().schedule_after(metrics_.snapshot_interval(), [this, next] {
        metrics_.snapshot(cur_sim().now());
        if (cur_sim().now() < window_end_) next();
      });
    });
  }

  // Checkpoint epoch ticks. Same zero-overhead contract as the metrics
  // loop above: disabled checkpointing schedules ZERO events.
  ckpt_->start(window_end_);

  // Elastic polls. Zero-overhead contract again: with elasticity off no
  // component exists and no events are scheduled.
  if (elastic_) elastic_->start(window_end_);

  if (psim_) {
    // Stop the world at the window start so the snapshot callback (and any
    // exact-boundary event) executes with every partition quiesced, then
    // run the measurement window. Both calls are the same two-phase
    // windowed protocol; the intermediate barrier costs one extra round.
    psim_->run_until(window_start_);
    psim_->run_until(window_end_);
  } else {
    sim_.run_until(window_end_);
  }
  finalize_report(measure);
  obs_finalize();
  return report_;
}

void Engine::snapshot_at_window_start() {
  stream_instance_snap_ = stream_instance_counts_;
  for (auto& t : tasks_) t->cpu->mark_window();
  snap_bytes_tcp_ = fabric_->total_bytes_sent(net::Transport::kTcp);
  snap_bytes_rdma_ = fabric_->total_bytes_sent(net::Transport::kRdma);
  if (primary_src_task_ >= 0) {
    const int node = tasks_[static_cast<size_t>(primary_src_task_)]->node;
    snap_src_node_bytes_ =
        fabric_->bytes_sent(net::Transport::kTcp, node) +
        fabric_->bytes_sent(net::Transport::kRdma, node);
  }
}

void Engine::finalize_report(Duration measure) {
  const double secs = to_seconds(measure);
  double mcast_tuples = 0.0;
  for (const auto& s : topo_.streams) {
    if (s.grouping != dsps::Grouping::kAll) continue;
    mcast_tuples +=
        static_cast<double>(
            mcast_processed_per_stream_[static_cast<size_t>(s.id)]) /
        static_cast<double>(stream_dst_count_[static_cast<size_t>(s.id)]);
  }
  report_.mcast_roots = static_cast<uint64_t>(mcast_tuples);
  report_.mcast_throughput_tps = mcast_tuples / secs;
  report_.sink_throughput_tps =
      static_cast<double>(report_.sink_completions) / secs;

  // Offered load: average configured spout rate over the window.
  double offered = 0.0;
  for (const auto& op : topo_.ops) {
    if (!op.is_spout) continue;
    // Piecewise integration of the rate profile over the window.
    for (Time t = window_start_; t < window_end_; t += ms(1)) {
      offered += op.rate.rate_at(t) * to_seconds(ms(1));
    }
  }
  report_.offered_tps = offered / secs;

  if (primary_src_task_ >= 0) {
    auto& src = *tasks_[static_cast<size_t>(primary_src_task_)];
    report_.src_utilization = src.cpu->utilization(window_start_);
    report_.load_factor = report_.src_utilization;
    for (size_t c = 0; c < report_.src_cpu_seconds.size(); ++c) {
      report_.src_cpu_seconds[c] = to_seconds(
          src.cpu->busy_time(static_cast<sim::CpuCategory>(c)));
    }
    // Downstream utilization: mean over the destination instances of the
    // primary all-grouped stream, whose group is the first one (or all
    // non-source tasks as fallback).
    double sum = 0.0;
    int count = 0;
    const int dst_op = mcast_->size() > 0 ? mcast_->group(0).dst_op : -1;
    for (const auto& t : tasks_) {
      if (dst_op >= 0 ? t->op == dst_op : t->id != primary_src_task_) {
        sum += t->cpu->utilization(window_start_);
        ++count;
      }
    }
    report_.downstream_utilization_avg = count ? sum / count : 0.0;

    const int node = tasks_[static_cast<size_t>(primary_src_task_)]->node;
    report_.src_node_bytes =
        fabric_->bytes_sent(net::Transport::kTcp, node) +
        fabric_->bytes_sent(net::Transport::kRdma, node) -
        snap_src_node_bytes_;
  }

  report_.bytes_tcp =
      fabric_->total_bytes_sent(net::Transport::kTcp) - snap_bytes_tcp_;
  report_.bytes_rdma =
      fabric_->total_bytes_sent(net::Transport::kRdma) - snap_bytes_rdma_;

  report_.transfer_queue_avg =
      queue_samples_ ? queue_len_accum_ / static_cast<double>(queue_samples_)
                     : 0.0;

  mcast_->finalize();

  ckpt_->finalize();

  report_.fabric_messages_dropped = fabric_->messages_dropped();
  report_.fabric_bytes_dropped = fabric_->bytes_dropped();
  // One loss ledger: the obs layer's engine, QP-reset and fabric-drop
  // counters sum to this.
  const Transport::Stats ts = transport_->stats();
  report_.tuples_lost = tuples_lost_ + ts.data_packets_lost + ts.fabric_drops;
  for (const auto& wp : workers_) {
    // Nodes still down at the end of the run contribute their residual.
    if (!fabric_->node_up(wp->node)) {
      report_.downtime_total += cur_sim().now() - wp->down_since;
    }
  }

  // Per-stream routing rows: active strategy + window load spread over
  // the destination instances (whole-run counts minus window-start snap).
  report_.stream_routing.clear();
  for (const auto& s : topo_.streams) {
    const size_t sid = static_cast<size_t>(s.id);
    RunReport::StreamRouting sr;
    sr.stream = s.id;
    sr.strategy =
        tasks_[static_cast<size_t>(
                   op_tasks_[static_cast<size_t>(s.from_op)][0])]
            ->strategies[out_index(s.from_op, s.id)]
            ->name();
    const auto& now_counts = stream_instance_counts_[sid];
    const auto& snap = stream_instance_snap_[sid];
    for (size_t i = 0; i < now_counts.size(); ++i) {
      const uint64_t v = now_counts[i] - snap[i];
      sr.tuples += v;
      sr.max_instance = std::max(sr.max_instance, v);
    }
    if (!now_counts.empty() && sr.tuples > 0) {
      sr.avg_instance = static_cast<double>(sr.tuples) /
                        static_cast<double>(now_counts.size());
      sr.imbalance = static_cast<double>(sr.max_instance) / sr.avg_instance;
    }
    report_.stream_routing.push_back(std::move(sr));
  }

  report_.sim_events =
      psim_ ? psim_->events_processed() : sim_.events_processed();
}

// ---------------------------------------------------------------------------
// Data path: arrivals, executors, routing
// ---------------------------------------------------------------------------

void Engine::schedule_arrival(int task) {
  auto& t = *tasks_[static_cast<size_t>(task)];
  const auto& op = topo_.ops[static_cast<size_t>(t.op)];
  // Schedule against the spout's own partition: the initial call runs on
  // the coordinator thread, and the arrival chain must live where the
  // spout's node lives. All later hops re-enter from that partition's
  // thread, where node_sim(t.node) == cur_sim().
  sim::Simulation& s = node_sim(t.node);
  const double rate =
      op.rate.rate_at(s.now()) / static_cast<double>(op.parallelism);
  if (rate <= 0.0) {
    // Idle spout: poll again soon in case a rate step begins.
    s.schedule_after(ms(10), [this, task] { schedule_arrival(task); });
    return;
  }
  const Duration gap = from_seconds(t.spout_rng.exponential(rate));
  s.schedule_after(gap, [this, task] {
    auto& tk = *tasks_[static_cast<size_t>(task)];
    if (!fabric_->node_up(tk.node)) {
      // Crashed worker emits nothing; keep polling so the spout resumes
      // after a restart.
      if (cur_sim().now() < window_end_) schedule_arrival(task);
      return;
    }
    auto tuple = std::allocate_shared<dsps::Tuple>(
        SlabAllocator<dsps::Tuple>{}, tk.spout->next(tk.spout_rng));
    auto* mut = const_cast<dsps::Tuple*>(tuple.get());
    mut->root_id = tk.next_root;
    tk.next_root += tk.root_stride;
    mut->root_emit_time = cur_sim().now();
    if (in_window()) {
      auto lk = shared_guard();
      ++report_.roots_emitted;
    }
    if (c_roots_) c_roots_->inc();
    if (trace_on() && tracer_.sampled(mut->root_id)) {
      tracer_.instant("spout.emit", "app", tk.worker, obs::kLaneApp,
                      cur_sim().now(), mut->root_id);
    }
    if (acking_) acking_->emitted(*tuple, task, tk.worker);
    Delivery arrival{tuple, 0};
    arrival.gen = ckpt_->gen();
    if (!tk.in_queue->try_push(std::move(arrival))) {
      if (in_window()) {
        auto lk = shared_guard();
        ++report_.input_drops;
      }
      if (c_input_drops_) c_input_drops_->inc();
      if (acking_) acking_->fail(tuple->root_id);
    }
    // Stream-rate monitoring for the self-adjusting controller.
    mcast_->record_arrival(task, cur_sim().now());
    if (cur_sim().now() < window_end_) schedule_arrival(task);
  });
}

void Engine::pump_task(TaskRt& t) {
  if (t.processing) return;
  if (!fabric_->node_up(t.node)) return;
  // Elastic fences: a retired instance never runs again; a quiesced one
  // holds still until its rescale epoch commits (or aborts). Plain bool
  // reads — no cost on elastic-off runs.
  if (!t.active || t.quiesced) return;
  // Deliveries stashed behind a closed fence go first: they arrived before
  // anything still waiting in the in-queue.
  if (state_on()) {
    if (auto d = ckpt_->unstash(t.id)) {
      t.processing = true;
      process_tuple(t, std::move(*d));
      return;
    }
  }
  auto item = t.in_queue->try_pop();
  if (!item) return;
  t.processing = true;
  process_tuple(t, std::move(*item));
}

void Engine::process_tuple(TaskRt& t, Delivery d) {
  // The checkpoint protocol takes barriers, stale copies, stashed tuples
  // and a sink's committed roots (and resumes the executor itself).
  if (state_on() && !ckpt_->admit(t.id, d)) return;
  std::shared_ptr<const dsps::Tuple> tuple = std::move(d.tuple);
  const uint64_t ack_edge = d.ack_edge;
  const bool replayed = d.replayed;
  const auto& op = topo_.ops[static_cast<size_t>(t.op)];
  // Per-(stream, destination instance) load accounting: feeds the
  // load-imbalance gauges and the report's stream_routing rows.
  if (!t.spout) {
    ++stream_instance_counts_[tuple->stream]
                             [static_cast<size_t>(t.instance)];
  }
  // A processed all-grouped tuple advances the throughput counters:
  // system throughput = processed broadcast tuples per destination
  // instance per second (robust under overload, where different
  // instances drop different tuples).
  if (!t.spout &&
      topo_.streams[tuple->stream].grouping == dsps::Grouping::kAll) {
    if (in_window()) {
      auto lk = shared_guard();
      ++mcast_processed_per_stream_[tuple->stream];
      report_.tput_series.add(
          cur_sim().now(),
          1.0 / stream_dst_count_[tuple->stream]);
    }
  }
  Duration cost;
  dsps::Emissions emissions;
  if (t.spout) {
    cost = t.spout->emit_cost();
    emissions.emplace_back(0, *tuple);
    // Epoch log (source offsets); replayed deliveries keep their original
    // entry.
    if (state_on() && !replayed) ckpt_->log_emission(t.id, *tuple);
  } else {
    dsps::Emitter em;
    cost = t.bolt->execute(*tuple, em);
    emissions = std::move(em.take());
    // Propagate root identity to descendants.
    for (auto& [idx, e] : emissions) {
      e.root_id = tuple->root_id;
      e.root_emit_time = tuple->root_emit_time;
    }
    if (op.out_streams.empty()) {
      // Sink operator: completion of this tuple's processing.
      if (in_window()) {
        auto lk = shared_guard();
        ++report_.sink_completions;
        const Duration lat = cur_sim().now() - tuple->root_emit_time;
        report_.processing_latency.add(lat);
        report_.lat_sum_series.add(cur_sim().now(), static_cast<double>(lat));
        report_.lat_cnt_series.add(cur_sim().now(), 1.0);
      }
      if (c_sink_) c_sink_->inc();
      if (h_sink_latency_) {
        h_sink_latency_->add(cur_sim().now() - tuple->root_emit_time);
      }
      // Exactly-once bookkeeping: pending until this sink's next barrier
      // seals the epoch; committed with the epoch's snapshot.
      if (state_on()) ckpt_->sink_pending(t.id, tuple->root_id);
    }
  }
  // The M/D/1 model's per-tuple fixed term includes the source's own
  // processing time, not just serialization: feed it to the monitor.
  mcast_->record_logic(t.id, cost);
  TaskRt* traw = &t;
  const bool is_spout = t.spout != nullptr;
  const uint64_t root = tuple->root_id;
  const char* span_name =
      is_spout ? "spout.next" : (op.out_streams.empty() ? "sink" : "bolt.execute");
  t.cpu->execute(
      cost, sim::CpuCategory::kAppLogic,
      [this, traw, root, ack_edge, is_spout, cost, span_name,
       emissions = std::move(emissions)]() mutable {
        if (trace_on() && tracer_.sampled(root)) {
          tracer_.complete(span_name, "app", traw->worker, obs::kLaneApp,
                           cur_sim().now() - cost, cost, root);
        }
        route_emissions(
            *traw, std::move(emissions),
            [this, traw, root, ack_edge, is_spout] {
              // Children anchored (inside route_emissions) BEFORE the
              // input edge is acked — Storm's ordering requirement.
              if (acking_) acking_->finished(root, ack_edge, is_spout);
              traw->processing = false;
              pump_task(*traw);
            });
      });
}

void Engine::route_emissions(TaskRt& t, dsps::Emissions emissions,
                             InlineFunction done) {
  if (emissions.empty()) {
    done();
    return;
  }
  // Process emissions sequentially: each may involve serialization jobs and
  // transfer-queue waits on this executor. The list and cursor live in the
  // loop's slab-held state — no shared_ptr bookkeeping per tuple.
  TaskRt* traw = &t;
  loop_async([this, traw, remaining = std::move(emissions), idx = size_t{0},
              done = std::move(done)](auto next) mutable {
    if (idx >= remaining.size()) {
      done();
      return;
    }
    auto& [out_idx, tuple] = remaining[idx];
    ++idx;
    const auto& op = topo_.ops[static_cast<size_t>(traw->op)];
    if (out_idx >= op.out_streams.size()) no_out_stream(op, out_idx);
    const int stream = op.out_streams[out_idx];
    send_emission(*traw, std::move(tuple), stream, [next] { next(); });
  });
}

void Engine::send_emission(TaskRt& t, dsps::Tuple tuple, int stream,
                           InlineFunction done) {
  const auto& s = topo_.streams[static_cast<size_t>(stream)];
  tuple.stream = static_cast<uint32_t>(stream);
  auto tup = std::allocate_shared<const dsps::Tuple>(
      SlabAllocator<dsps::Tuple>{}, std::move(tuple));
  auto& strat = *t.strategies[out_index(t.op, stream)];

  if (strat.broadcast()) {
    if (const auto* g = mcast_->group_of_stream(stream)) {
      send_mcast(t, *g, std::move(tup), std::move(done));
      return;
    }
    // Instance-oriented sequential all-grouping (Storm / RDMA-Storm).
    const auto& dsts = op_tasks_[static_cast<size_t>(s.to_op)];
    if (tup->root_id != 0 && (tup->root_id % cfg_.tuple_sample_stride) == 0) {
      mcast_track_start(tup->root_id, tup->root_emit_time,
                        static_cast<uint32_t>(dsts.size()));
    }
    send_point_to_point(t, std::move(tup),
                        PooledVec<int>(dsts.begin(), dsts.end()),
                        std::move(done));
    return;
  }

  const auto& dst_tasks = op_tasks_[static_cast<size_t>(s.to_op)];
  const int dst = dst_tasks[strat.select(*tup, dst_tasks.size())];
  send_point_to_point(t, std::move(tup), PooledVec<int>{dst}, std::move(done));
}

void Engine::deliver_local(TaskRt& dst,
                           std::shared_ptr<const dsps::Tuple> tup,
                           int src_task, uint64_t gen) {
  const bool bar = state_on() && state::is_barrier(*tup);
  if (!fabric_->node_up(dst.node)) {
    if (bar) {
      // A barrier swallowed by a dead worker can never align: the epoch
      // is doomed, abort it promptly instead of stalling until the tick.
      ckpt_->barrier_lost(state::barrier_epoch(*tup));
      return;
    }
    // No NACK from a dead worker: the loss surfaces as an ack timeout.
    count_lost();
    return;
  }
  if (!dst.active) {
    // Stale wire copy addressed to an instance a rescale retired (only a
    // rescale retires one, so the component exists). Every upstream of a
    // rescaled operator fences before the commit retires anything, so
    // tools/validate.py's elastic conservation check asserts this stays 0.
    elastic_->stale_drop();
    return;
  }
  // All-grouped deliveries feed the multicast-reception tracker.
  const auto& s = topo_.streams[tup->stream];
  if (s.grouping == dsps::Grouping::kAll) {
    mcast_track_received(tup->root_id);
  }
  Delivery d{tup, 0};
  d.src_task = src_task;
  d.gen = gen;
  if (acking_) d.ack_edge = acking_->take(tup->root_id, dst.id);
  if (!dst.in_queue->try_push(d)) {
    if (bar) {
      // Barrier shed by a full executor queue: the epoch cannot complete.
      ckpt_->barrier_lost(state::barrier_epoch(*tup));
      return;
    }
    if (in_window()) {
      auto lk = shared_guard();
      ++report_.queue_rejects;
    }
    if (c_queue_rejects_) c_queue_rejects_->inc();
    // A dropped tuple instance can never be acked: fail the whole root
    // (Storm would replay it after the message timeout).
    if (acking_) acking_->fail(tup->root_id);
  }
}

void Engine::send_point_to_point(TaskRt& t,
                                 std::shared_ptr<const dsps::Tuple> tup,
                                 PooledVec<int> dsts,
                                 InlineFunction done) {
  const bool bar = state_on() && state::is_barrier(*tup);
  if (acking_) {
    // Barriers carry root 0, which the acker never tracks.
    for (int d : dsts) acking_->anchor(tup->root_id, d);
  }

  // Local destinations skip serde entirely (Storm does the same).
  PooledVec<int> remote;
  size_t local_count = 0;
  for (int d : dsts) {
    auto& dt = *tasks_[static_cast<size_t>(d)];
    if (dt.worker == t.worker) {
      ++local_count;
    } else {
      remote.push_back(d);
    }
  }
  TaskRt* traw = &t;
  auto after_local = [this, traw, tup, bar, remote = std::move(remote),
                      done = std::move(done)]() mutable {
    if (remote.empty()) {
      done();
      return;
    }
    if (cfg_.variant.comm == CommMode::kInstance) {
      // Per-tuple communication tracking (Figs. 25/26) for the all-grouped
      // stream's source instance. Barriers (root 0) are never sampled.
      // Worker-oriented runs multicast every all-grouped stream, so only
      // this branch sees tracked roots.
      bool tracked =
          topo_.streams[tup->stream].grouping == dsps::Grouping::kAll &&
          traw->id == primary_src_task_ && tup->root_id != 0 &&
          (tup->root_id % cfg_.tuple_sample_stride) == 0 && in_window();
      if (tracked) {
        auto lk = shared_guard();
        tracked = comm_tracks_.size() < kMaxTrackedTuples;
        if (tracked) {
          comm_tracks_[tup->root_id] =
              CommTrack{cur_sim().now(), cur_sim().now(), 0.0,
                        static_cast<uint32_t>(remote.size())};
        }
      }
      const uint64_t track_root = tracked ? tup->root_id : 0;

      // One serialization + one protocol pass per destination instance,
      // sequentially on this executor — the paper's Fig. 2 bottleneck.
      // Both the serialization and the multi-layer packet processing are
      // charged to the upstream instance, matching Fig. 2d's breakdown.
      loop_async([this, traw, tup, idx = size_t{0}, rem = std::move(remote),
                  track_root, bar, done = std::move(done)](auto next) mutable {
        if (idx >= rem.size()) {
          done();
          return;
        }
        const int d = rem[idx++];
        // Encode straight into a pooled block; the envelope header is
        // prepended in place (no payload copy, no per-message allocation
        // once the pool is warm).
        PoolWriter pw(tup->approx_bytes() + 40, kFrameHeadroom);
        dsps::TupleSerde::encode_instance_into(pw, d, *tup);
        Bytes bytes = frame(MsgKind::kInstanceData, 0, std::move(pw));
        const Duration ser = cfg_.cost.ser_time(bytes->size());
        if (track_root) {
          auto lk = shared_guard();
          auto it = comm_tracks_.find(track_root);
          if (it != comm_tracks_.end()) {
            it->second.ser_ns += static_cast<double>(ser);
          }
        }
        traw->cpu->execute(
            ser, sim::CpuCategory::kSerialization,
            [this, traw, bytes = std::move(bytes), d, next, track_root, ser,
             bar, root = tup->root_id] {
              if (trace_on() && tracer_.sampled(root)) {
                tracer_.complete("serialize", "app", traw->worker,
                                 obs::kLaneApp, cur_sim().now() - ser, ser, root);
              }
              const auto [send_cost, send_cat] = transport_->send_cost(
                  bytes->size());
              traw->cpu->execute(
                  send_cost, send_cat,
                  [this, traw, bytes = std::move(bytes), d, next, track_root,
                   bar] {
                    OutMsg m;
                    m.bytes = std::move(bytes);
                    m.dst_worker = tasks_[static_cast<size_t>(d)]->worker;
                    m.enqueued = cur_sim().now();
                    m.root_id = track_root;
                    m.src_task = traw->id;
                    m.barrier = bar;
                    m.gen = ckpt_->gen();
                    transport_->push(traw->worker, std::move(m),
                                     [next] { next(); });
                  });
            });
      });
      return;
    }

    // Worker-oriented: serialize the body once, then one BatchTuple per
    // destination worker carrying that worker's local task ids.
    PooledVec<PooledVec<int32_t>> per_worker(workers_.size());
    for (int d : remote) {
      per_worker[static_cast<size_t>(tasks_[static_cast<size_t>(d)]->worker)]
          .push_back(d);
    }
    struct Target {
      int worker;
      Bytes bytes;
    };
    PooledVec<Target> targets;
    for (size_t wk = 0; wk < per_worker.size(); ++wk) {
      if (per_worker[wk].empty()) continue;
      PoolWriter pw(tup->approx_bytes() + 40 + per_worker[wk].size() * 2,
                    kFrameHeadroom);
      dsps::TupleSerde::encode_batch_into(pw, per_worker[wk], *tup);
      targets.push_back(Target{static_cast<int>(wk),
                               frame(MsgKind::kBatchData, 0, std::move(pw))});
    }
    const Duration first_ser =
        cfg_.cost.ser_time(dsps::TupleSerde::body_size(*tup));
    // The target list parks in the loop's slab state; the inner lambdas
    // reference entries by address, which stay stable because the state
    // block never relocates.
    loop_async([this, traw, targets = std::move(targets), idx = size_t{0},
                first_ser, bar, root = tup->root_id,
                done = std::move(done)](auto next) mutable {
      if (idx >= targets.size()) {
        done();
        return;
      }
      auto& tgt = targets[idx++];
      // The data item is serialized once; subsequent workers only pay the
      // BatchTuple header packaging cost.
      const Duration d = (idx == 1) ? first_ser : kWocHeaderCost;
      traw->cpu->execute(
          d, sim::CpuCategory::kSerialization,
          [this, traw, &tgt, next, bar, d, root] {
            if (trace_on() && tracer_.sampled(root)) {
              tracer_.complete("serialize", "app", traw->worker,
                               obs::kLaneApp, cur_sim().now() - d, d, root);
            }
            const auto [send_cost, send_cat] =
                transport_->send_cost(tgt.bytes->size());
            traw->cpu->execute(send_cost, send_cat,
                               [this, traw, &tgt, next, bar] {
                                 OutMsg m;
                                 m.bytes = tgt.bytes;
                                 m.dst_worker = tgt.worker;
                                 m.enqueued = cur_sim().now();
                                 m.src_task = traw->id;
                                 m.barrier = bar;
                                 m.gen = ckpt_->gen();
                                 transport_->push(traw->worker, std::move(m),
                                                  [next] { next(); });
                               });
          });
    });
  };

  if (local_count > 0) {
    const Duration d = cfg_.cost.local_enqueue *
                       static_cast<Duration>(local_count);
    PooledVec<int> locals;
    for (int dd : dsts) {
      if (tasks_[static_cast<size_t>(dd)]->worker == t.worker) {
        locals.push_back(dd);
      }
    }
    t.cpu->execute(d, sim::CpuCategory::kDispatch,
                   [this, tup, src = t.id, locals = std::move(locals),
                    after_local = std::move(after_local)]() mutable {
                     for (int dd : locals) {
                       deliver_local(*tasks_[static_cast<size_t>(dd)], tup,
                                     src, ckpt_->gen());
                     }
                     after_local();
                   });
  } else {
    after_local();
  }
}

void Engine::send_mcast(TaskRt& t, const McastGroups::Group& g,
                        std::shared_ptr<const dsps::Tuple> tup,
                        InlineFunction done) {
  const uint64_t root = tup->root_id;
  const bool bar = state_on() && state::is_barrier(*tup);
  const bool tracked = root != 0 && (root % cfg_.tuple_sample_stride) == 0;
  if (acking_) {
    for (int d : op_tasks_[static_cast<size_t>(g.dst_op)]) {
      acking_->anchor(root, d);
    }
  }

  // Serialize the data item once (shared by every hop of the tree).
  PoolWriter bw(tup->approx_bytes() + 32, kFrameHeadroom);
  dsps::TupleSerde::encode_body(*tup, bw);
  const size_t body_len = bw.size();
  const Duration ser = cfg_.cost.ser_time(body_len);

  if (tracked) {
    mcast_track_start(root, tup->root_emit_time,
                      static_cast<uint32_t>(g.total_dst_instances));
  }
  if (tracked && in_window()) {
    auto lk = shared_guard();
    if (comm_tracks_.size() < kMaxTrackedTuples) {
      comm_tracks_[root] = CommTrack{cur_sim().now(), cur_sim().now(),
                                     static_cast<double>(ser), 0};
    }
  }

  // Feed the t_s / t_d monitors with the actual charged costs (the paper's
  // statistics monitoring, Sec. 4).
  mcast_->record_send(g, ser, body_len);

  // Worker-level trees carry endpoint 0 in every envelope (WOC), so the
  // message is framed once right here and every child shares the same
  // pooled buffer by refcount bump. Instance-level trees rewrite the
  // endpoint per child, so they share the bare body and frame per
  // destination (one copy each, as before).
  Bytes framed;  // worker-level only
  Bytes body;    // instance-level only
  if (g.worker_level) {
    framed = frame_mcast(g.id, 0, std::move(bw));
  } else {
    body = std::move(bw).finish();
  }

  TaskRt* traw = &t;
  const McastGroups::Group* graw = &g;
  t.cpu->execute(ser, sim::CpuCategory::kSerialization, [this, traw, graw,
                                                         tup, root, tracked,
                                                         bar, framed, body,
                                                         body_len, ser,
                                                         done = std::move(
                                                             done)]() mutable {
    if (trace_on() && tracer_.sampled(root)) {
      tracer_.complete("serialize", "app", traw->worker, obs::kLaneApp,
                       cur_sim().now() - ser, ser, root);
    }
    // Local dispatch to destination instances hosted with the source.
    const auto& locals = workers_[static_cast<size_t>(traw->worker)]
                             ->op_local_tasks[static_cast<size_t>(
                                 graw->dst_op)];
    for (int d : locals) {
      deliver_local(*tasks_[static_cast<size_t>(d)], tup, traw->id,
                    ckpt_->gen());
    }

    // Relay to the source's direct cascading endpoints, one scheduling
    // charge per child (the d0 * t_d term of the queue model).
    // Snapshot the child list (the tree may be reconfigured mid-flight);
    // the single copy lands directly in the loop state below.
    std::vector<int> children = graw->tree.children(0);
    {
      auto lk = shared_guard();
      auto ct = comm_tracks_.find(root);
      if (ct != comm_tracks_.end()) {
        if (children.empty()) {
          comm_tracks_.erase(ct);  // purely local delivery: no communication
        } else {
          ct->second.outstanding = static_cast<uint32_t>(children.size());
        }
      }
    }
    loop_async([this, traw, graw, root, tracked, bar, framed, body, body_len,
                idx = size_t{0}, children = std::move(children),
                done = std::move(done)](auto next) mutable {
      if (idx >= children.size()) {
        done();
        return;
      }
      const int child_ep = children[idx++];
      // Each cascading destination costs the source its scheduling time
      // plus the transport's per-channel send cost — the d0 * t_d term
      // that makes large out-degrees choke the source (Eq. 1).
      const auto [send_cost, send_cat] = transport_->send_cost(body_len);
      traw->cpu->execute(cfg_.mcast_schedule_per_child + send_cost, send_cat,
          [this, traw, graw, root, tracked, bar, framed, body, child_ep, next] {
            OutMsg m;
            m.bytes = graw->worker_level
                          ? framed  // shared buffer, refcount bump only
                          : frame_mcast(graw->id,
                                        static_cast<uint32_t>(child_ep),
                                        *body);
            m.dst_worker = graw->worker(child_ep);
            m.enqueued = cur_sim().now();
            m.root_id = tracked ? root : 0;
            m.src_task = traw->id;
            m.barrier = bar;
            m.gen = ckpt_->gen();
            transport_->push(traw->worker, std::move(m), [next] { next(); });
          });
    });
  });
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void Engine::handle_bytes(WorkerRt& w, rdma::Packet pkt, int src_worker) {
  const Envelope env = peek(*pkt.bytes);
  switch (env.kind) {
    case MsgKind::kInstanceData:
      if (pkt.id != 0 && src_worker == primary_src_worker_) {
        comm_track_delivery(pkt.id);
      }
      dispatch_instance(w, std::move(pkt));
      break;
    case MsgKind::kBatchData:
      dispatch_batch(w, std::move(pkt));
      break;
    case MsgKind::kMcastData:
      if (pkt.id != 0 && src_worker == mcast_->group(env.group).src_worker) {
        comm_track_delivery(pkt.id);
      }
      dispatch_mcast(w, std::move(pkt), env);
      break;
    case MsgKind::kControl:
    case MsgKind::kAck:
      mcast_->on_control(w.id, src_worker, pkt);
      break;
  }
}

void Engine::dispatch_instance(WorkerRt& w, rdma::Packet pkt) {
  const uint64_t sz = pkt.size();
  WorkerRt* wr = &w;
  const Duration cost =
      cfg_.cost.deser_time(sz) + cfg_.cost.dispatch_per_tuple;
  transport_->recv_cpu(w.id).execute(
      cost, sim::CpuCategory::kSerialization,
      [this, wr, cost, pkt = std::move(pkt)] {
        const Envelope env = peek(*pkt.bytes);
        auto m = dsps::TupleSerde::decode_instance_message(
            payload_of(*pkt.bytes, env));
        auto tup = std::allocate_shared<const dsps::Tuple>(
            SlabAllocator<dsps::Tuple>{}, std::move(m.tuple));
        if (trace_on() && tracer_.sampled(tup->root_id)) {
          tracer_.complete("dispatch", "recv", wr->id, obs::kLaneRecv,
                           cur_sim().now() - cost, cost, tup->root_id);
        }
        deliver_local(*tasks_[static_cast<size_t>(m.dst_task)],
                      std::move(tup), pkt.src_task, pkt.gen);
      });
}

void Engine::dispatch_batch(WorkerRt& w, rdma::Packet pkt) {
  // Whale's dispatcher: deserialize the data item once, then hand an
  // AddressedTuple to every local destination executor.
  const uint64_t sz = pkt.size();
  const Envelope env = peek(*pkt.bytes);
  auto m =
      dsps::TupleSerde::decode_batch_message(payload_of(*pkt.bytes, env));
  const Duration cost =
      cfg_.cost.deser_time(sz) +
      cfg_.cost.dispatch_per_tuple * static_cast<Duration>(m.dst_tasks.size());
  WorkerRt* wr = &w;
  transport_->recv_cpu(w.id).execute(
      cost, sim::CpuCategory::kSerialization,
      [this, wr, cost, src = pkt.src_task, gen = pkt.gen,
       m = std::move(m)]() mutable {
        auto tup = std::allocate_shared<const dsps::Tuple>(
            SlabAllocator<dsps::Tuple>{}, std::move(m.tuple));
        if (trace_on() && tracer_.sampled(tup->root_id)) {
          tracer_.complete("dispatch", "recv", wr->id, obs::kLaneRecv,
                           cur_sim().now() - cost, cost, tup->root_id);
        }
        for (int32_t d : m.dst_tasks) {
          deliver_local(*tasks_[static_cast<size_t>(d)], tup, src, gen);
        }
      });
}

void Engine::dispatch_mcast(WorkerRt& w, rdma::Packet pkt,
                            const Envelope& env) {
  const auto& g = mcast_->group(env.group);
  const int my_endpoint = g.worker_level ? g.endpoint_of(w.id)
                                         : static_cast<int>(env.endpoint);
  if (my_endpoint < 0) return;  // stale delivery after a reconfiguration

  // Relay first — raw bytes, no deserialization (zero-copy forwarding).
  relay_mcast(w, g, my_endpoint, pkt);

  // Then deliver locally.
  const uint64_t sz = pkt.size();
  const Envelope e = env;
  WorkerRt* wr = &w;
  const McastGroups::Group* graw = &g;
  const int ep = my_endpoint;
  const Duration deser = cfg_.cost.deser_time(sz);
  transport_->recv_cpu(w.id).execute(
      deser, sim::CpuCategory::kSerialization,
      [this, wr, graw, ep, deser, pkt = std::move(pkt), e] {
        ByteReader r(payload_of(*pkt.bytes, e));
        auto tup = std::allocate_shared<const dsps::Tuple>(
            SlabAllocator<dsps::Tuple>{}, dsps::TupleSerde::decode_body(r));
        if (trace_on() && tracer_.sampled(tup->root_id)) {
          tracer_.complete("dispatch", "recv", wr->id, obs::kLaneRecv,
                           cur_sim().now() - deser, deser, tup->root_id);
        }
        if (graw->worker_level) {
          const auto& locals =
              wr->op_local_tasks[static_cast<size_t>(graw->dst_op)];
          const Duration d = cfg_.cost.dispatch_per_tuple *
                             static_cast<Duration>(locals.size());
          transport_->recv_cpu(wr->id).execute(d, sim::CpuCategory::kDispatch);
          for (int t : locals) {
            deliver_local(*tasks_[static_cast<size_t>(t)], tup,
                          graw->src_task, pkt.gen);
          }
        } else {
          deliver_local(*tasks_[static_cast<size_t>(graw->task(ep))],
                        std::move(tup), graw->src_task, pkt.gen);
        }
      });
}

void Engine::relay_mcast(WorkerRt& w, const McastGroups::Group& g,
                         int my_endpoint,
                         const rdma::Packet& pkt) {
  const auto& children = g.tree.children(my_endpoint);
  if (children.empty()) return;
  for (const int child_ep : children) {
    OutMsg m;
    if (g.worker_level) {
      m.bytes = pkt.bytes;  // shared — relays never copy payloads
    } else {
      // Instance-level endpoints need their own envelope (endpoint field).
      const Envelope env = peek(*pkt.bytes);
      m.bytes = frame_mcast(g.id, static_cast<uint32_t>(child_ep),
                            payload_of(*pkt.bytes, env));
    }
    m.dst_worker = g.worker(child_ep);
    m.enqueued = cur_sim().now();
    m.relay = true;
    m.src_task = pkt.src_task;
    m.barrier = pkt.barrier;
    m.gen = pkt.gen;
    // Relays bypass the producer's comm-time tracking (root_id = 0) but a
    // small forwarding charge lands on the relay's receive thread. The
    // push waits for queue space instead of dropping: relayed traffic is
    // backpressured just like locally produced traffic (the RDMA channel
    // would block the same way). Under tracing the sampled root id rides
    // along so downstream hops land in the same trace track; the comm
    // tracker ignores relayed ids (its guards key on the source worker).
    if (trace_on()) m.root_id = pkt.id;
    sim::CpuServer& recv = transport_->recv_cpu(w.id);
    if (trace_on() && tracer_.sampled(pkt.id)) {
      WorkerRt* wr = &w;
      const Duration fwd = cfg_.cost.local_enqueue;
      const uint64_t root = pkt.id;
      recv.execute(fwd, sim::CpuCategory::kDispatch, [this, wr, fwd, root] {
        tracer_.complete("relay.forward", "recv", wr->id, obs::kLaneRecv,
                         cur_sim().now() - fwd, fwd, root);
      });
    } else {
      recv.execute(cfg_.cost.local_enqueue, sim::CpuCategory::kDispatch);
    }
    transport_->push(w.id, std::move(m), [] {});
  }
}

// ---------------------------------------------------------------------------
// Multicast + communication-time tracking
// ---------------------------------------------------------------------------

void Engine::mcast_track_start(uint64_t root_id, Time emit, uint32_t total) {
  auto lk = shared_guard();
  if (mcast_tracks_.size() >= kMaxTrackedTuples) return;
  mcast_tracks_[root_id] = McastTrack{emit, 0, total};
}

void Engine::mcast_track_received(uint64_t root_id) {
  auto lk = shared_guard();
  auto it = mcast_tracks_.find(root_id);
  if (it == mcast_tracks_.end()) return;
  // Receptions on different partitions can report out of simulated-time
  // order; the completion time is the max over all of them, which is
  // exactly the serial "clock at the last reception".
  it->second.max_recv = std::max(it->second.max_recv, cur_sim().now());
  if (--it->second.remaining_recv == 0) {
    // Every destination instance has received the tuple (Sec. 5.1's
    // multicast-latency definition).
    const Time done = it->second.max_recv;
    if (done >= window_start_ && done < window_end_) {
      report_.multicast_latency.add(done - it->second.emit);
    }
    mcast_tracks_.erase(it);
  }
}

void Engine::comm_track_delivery(uint64_t root_id) {
  auto lk = shared_guard();
  auto it = comm_tracks_.find(root_id);
  if (it == comm_tracks_.end()) return;
  auto& ct = it->second;
  // Same max-completion rule as mcast_track_received: deliveries arrive
  // from several partitions in arbitrary call order.
  ct.last = std::max(ct.last, cur_sim().now());
  if (ct.outstanding > 0) --ct.outstanding;
  if (ct.outstanding == 0) {
    if (ct.last >= window_start_ && ct.last < window_end_) {
      const Duration comm = ct.last - ct.start;
      report_.comm_time.add(comm);
      // Streaming means for the serialization share.
      const double ratio =
          comm > 0 ? ct.ser_ns / static_cast<double>(comm) : 1.0;
      const double n = static_cast<double>(report_.comm_time.count());
      report_.ser_ratio += (ratio - report_.ser_ratio) / n;
      report_.ser_time_avg_ns += (ct.ser_ns - report_.ser_time_avg_ns) / n;
    }
    comm_tracks_.erase(it);
  }
}

// ---------------------------------------------------------------------------
// Fault injection & recovery
// ---------------------------------------------------------------------------

void Engine::arm_faults() {
  // Kind by kind (crashes, link faults, stalls), each in plan order: at
  // equal times the kernel's insertion order makes the kind order win.
  // Each firing leaves a `fault` instant on the node's control lane.
  auto fired = [this](const char* name, int pid) {
    if (trace_on()) {
      tracer_.instant(name, "fault", pid, obs::kLaneControl, sim_.now());
    }
  };
  for (const faults::NodeCrash& c : cfg_.faults.crashes) {
    sim_.schedule_at(c.at, [this, fired, c] {
      fired("fault.crash", c.node);
      on_node_crash(c.node);
      if (c.restart_after == 0) return;
      sim_.schedule_after(c.restart_after, [this, fired, c] {
        fired("fault.restart", c.node);
        on_node_restart(c.node);
      });
    });
  }
  for (const faults::LinkFault& l : cfg_.faults.links) {
    sim_.schedule_at(l.at, [this, fired, l] {
      fired("fault.link_degrade", l.src);
      ++report_.link_faults;
      const uint64_t fault = fabric_->degrade_link(
          l.src, l.dst, l.bandwidth_factor, l.latency_factor);
      if (l.duration == 0) return;
      sim_.schedule_after(l.duration, [this, fired, l, fault] {
        fired("fault.link_restore", l.src);
        fabric_->restore_link(l.src, l.dst, fault);
      });
    });
  }
  for (const faults::RelayStall& s : cfg_.faults.stalls) {
    sim_.schedule_at(s.at, [this, fired, s] {
      fired("fault.relay_stall", s.node);
      ++report_.relay_stalls;
      transport_->set_stalled(s.node, true);
      if (s.duration == 0) return;
      sim_.schedule_after(s.duration, [this, fired, s] {
        fired("fault.relay_unstall", s.node);
        transport_->set_stalled(s.node, false);
        transport_->pump(s.node);
      });
    });
  }
}

uint64_t Engine::drain_task(TaskRt& t) {
  if (state_on()) return ckpt_->drain(t.id);
  uint64_t dropped = 0;
  while (t.in_queue->try_pop()) ++dropped;
  return dropped;
}

void Engine::on_node_crash(int node) {
  if (!fabric_->node_up(node)) return;
  ++report_.node_crashes;
  // Down before the transfer-queue drain releases blocked producers: their
  // retries must see the dead worker.
  fabric_->set_node_up(node, false);
  workers_[static_cast<size_t>(node)]->down_since = cur_sim().now();
  // The process is gone: everything queued inside it is lost. The acker's
  // timeout turns those losses into failed (and possibly replayed) roots —
  // there is no explicit NACK, exactly like a real worker death.
  transport_->crash(node);
  for (auto& t : tasks_) {
    if (t->worker != node) continue;
    // Queued and stashed deliveries died with the process.
    count_lost(drain_task(*t));
    t->processing = false;
  }
  // A crash dooms any in-flight epoch (some snapshot or barrier is gone):
  // aborting it now unblocks alignment elsewhere and lifts the fences.
  if (state_on()) ckpt_->abort();
  transport_->reset_qps(node);
  mcast_->on_crash(node);
}

void Engine::on_node_restart(int node) {
  if (fabric_->node_up(node)) return;
  ++report_.node_restarts;
  report_.downtime_total +=
      cur_sim().now() - workers_[static_cast<size_t>(node)]->down_since;
  fabric_->set_node_up(node, true);
  // Any pause it owed died with the old process.
  transport_->set_paused(node, false);
  // Fresh process: peers re-create their queue pairs empty.
  transport_->reset_qps(node);
  mcast_->on_restart(node);
  // Checkpoint recovery. The restarted node's receive CPU posts the
  // restore read (on the remote medium a one-sided READ: the state host's
  // CPU stays idle).
  if (state_on()) {
    ckpt_->on_restart(node, &transport_->recv_cpu(node));
  }
  transport_->pump(node);
}

// ---------------------------------------------------------------------------
// Checkpointing: the component's Hooks
// ---------------------------------------------------------------------------

void Engine::forward_barrier(int task, uint64_t epoch, InlineFunction done) {
  TaskRt* traw = tasks_[static_cast<size_t>(task)].get();
  const auto& op = topo_.ops[static_cast<size_t>(traw->op)];
  if (op.out_streams.empty()) {
    done();
    return;
  }
  loop_async([this, traw, epoch, streams = op.out_streams, idx = size_t{0},
              done = std::move(done)](auto next) mutable {
    if (idx >= streams.size()) {
      done();
      return;
    }
    const int stream = streams[idx++];
    auto bar = state::make_barrier(epoch, traw->id);
    bar.stream = static_cast<uint32_t>(stream);
    auto tup = std::make_shared<const dsps::Tuple>(std::move(bar));
    if (const auto* g = mcast_->group_of_stream(stream)) {
      if (!mcast_->enter_fence(*g)) {
        // Never push a barrier into a reconfiguring tree — the epoch must
        // not straddle a topology change, so it aborts instead.
        ckpt_->barrier_lost(epoch);
        next();
        return;
      }
      send_mcast(*traw, *g, std::move(tup), [next] { next(); });
      return;
    }
    const auto& s = topo_.streams[static_cast<size_t>(stream)];
    // Every downstream channel needs the barrier, whatever the grouping.
    const auto& all = op_tasks_[static_cast<size_t>(s.to_op)];
    send_point_to_point(*traw, std::move(tup),
                        PooledVec<int>(all.begin(), all.end()),
                        [next] { next(); });
  });
}

void Engine::resume(int task) {
  TaskRt& t = *tasks_[static_cast<size_t>(task)];
  t.processing = false;
  pump_task(t);
}

void Engine::replayed(uint64_t root) {
  // A replay is a fresh emission instance for conservation purposes (the
  // earlier instance was written off as lost at the rollback).
  if (c_roots_) c_roots_->inc();
  if (acking_) acking_->reemitted(root);
}

void Engine::filtered(const Delivery& d) {
  if (acking_) acking_->finished(d.tuple->root_id, d.ack_edge, false);
}

void Engine::task_sealed(int task, uint64_t epoch) {
  TaskRt& t = *tasks_[static_cast<size_t>(task)];
  if (elastic_ && elastic_->quiesces(t.op, epoch)) t.quiesced = true;
}

void Engine::epoch_aborted(uint64_t epoch) {
  if (elastic_) elastic_->epoch_aborted(epoch);
  // Every fence is closed, a rescale's quiesce included: wake every
  // executor.
  for (auto& tp : tasks_) {
    tp->quiesced = false;
    pump_task(*tp);
  }
}

// ---------------------------------------------------------------------------
// Acking: the component's Hooks
// ---------------------------------------------------------------------------

bool Engine::spout_up(int task) {
  return fabric_->node_up(tasks_[static_cast<size_t>(task)]->node);
}

bool Engine::reinject(int task, std::shared_ptr<const dsps::Tuple> root) {
  // A replay is a fresh emission instance for conservation purposes: the
  // earlier instance was already written off as lost or dropped.
  if (c_roots_) c_roots_->inc();
  Delivery d{std::move(root), 0};
  d.gen = ckpt_->gen();
  if (tasks_[static_cast<size_t>(task)]->in_queue->try_push(std::move(d))) {
    return true;
  }
  if (c_input_drops_) c_input_drops_->inc();
  return false;
}

// ---------------------------------------------------------------------------
// Elastic rescaling: the component's Hooks, in the order a cutover runs them
// ---------------------------------------------------------------------------

void Engine::spawn(int op, int instance, int node) {
  TaskRt& t = add_task(op, instance, /*worker=*/node);  // one worker per node
  ckpt_->add_task(
      {t.id, t.op, t.node, t.cpu.get(), t.in_queue.get(), &t.store});
  if (metrics_on()) {
    TaskRt* raw = &t;
    metrics_.gauge("task" + std::to_string(t.id) + ".in_queue", [raw] {
      return static_cast<double>(raw->in_queue->size());
    });
  }
}

uint64_t Engine::retire(int task) {
  TaskRt& t = *tasks_[static_cast<size_t>(task)];
  t.active = false;
  t.quiesced = false;
  t.processing = false;
  return ckpt_->retire(task);
}

void Engine::reshape(int op, const std::vector<std::vector<uint8_t>>& images) {
  const size_t o = static_cast<size_t>(op);
  const int n = topo_.ops[o].parallelism;
  auto prune = [this](std::vector<int>& ids) {
    ids.erase(std::remove_if(ids.begin(), ids.end(),
                             [this](int tid) {
                               return !tasks_[static_cast<size_t>(tid)]->active;
                             }),
              ids.end());
  };
  prune(op_tasks_[o]);
  for (auto& wp : workers_) prune(wp->op_local_tasks[o]);

  // Surviving and fresh instances alike restore their slice, learn the new
  // shape, and make it their recovery image — a crash after this cutover
  // rolls back to exactly the state the rescale installed.
  for (int i = 0; i < n; ++i) {
    TaskRt& t = *tasks_[static_cast<size_t>(op_tasks_[o][static_cast<size_t>(i)])];
    t.store.restore(images[static_cast<size_t>(i)]);
    t.bolt->rescaled({t.id, op, i, n, t.worker, t.node});
    ckpt_->install(t.id);
  }

  for (auto& tp : tasks_) {
    if (!tp->active) continue;
    const auto& tspec = topo_.ops[static_cast<size_t>(tp->op)];
    for (size_t oi = 0; oi < tspec.out_streams.size(); ++oi) {
      if (topo_.streams[static_cast<size_t>(tspec.out_streams[oi])].to_op ==
          op) {
        tp->strategies[oi]->rebalanced(static_cast<size_t>(n));
      }
    }
  }
  // Instance-indexed accounting must admit the new indexes; on shrink the
  // old columns stay (whole-run counters never forget retired instances).
  for (int sid : topo_.ops[o].in_streams) {
    const size_t s = static_cast<size_t>(sid);
    if (stream_instance_counts_[s].size() < static_cast<size_t>(n)) {
      stream_instance_counts_[s].resize(static_cast<size_t>(n), 0);
      stream_instance_snap_[s].resize(static_cast<size_t>(n), 0);
    }
    if (topo_.streams[s].grouping == dsps::Grouping::kAll) {
      stream_dst_count_[s] = static_cast<uint32_t>(n);
    }
  }
}

void Engine::release() {
  for (auto& tp : tasks_) {
    if (!tp->quiesced) continue;
    tp->quiesced = false;
    pump_task(*tp);
  }
}

}  // namespace whale::core
