// The checkpoint store: every task's committed snapshot image, for both
// storage media (DESIGN.md §10, §12).
//
// Each epoch a task's snapshot is taken as a StateStore::snapshot_delta
// blob (a full image is just a delta of every page — one encoding, one
// apply path), *staged* when its write is posted, and merged into the
// task's cell-granular image only when the engine commits the epoch; an
// aborted epoch's staged deltas are dropped, leaving the image exactly at
// the last commit — the same image the StateStore baselines diff against.
// Recovery reads the committed images back; an elastic rescale overwrites
// them. Each task's epoch-0 image, kept from bind, is its recovery image
// until its first commit.
//
// cfg.remote picks the medium. It decides only how a write or read is
// timed and whether a take may skip clean pages:
//  - local (default): a persistent store on the task's own node (think
//    NVMe + fsync). Writes and reads take store_transfer_time. Every take
//    is a full image, accounted at its snapshot() size. Nothing is
//    written at bind, so a task has no committed image until its first
//    commit, and a restore reads committed images only.
//  - remote: RDMA-registered memory on a dedicated state-host node
//    appended to the fabric. A write is a one-sided WRITE, recovery one
//    one-sided READ; the host's CPU is never scheduled. Images are seeded
//    from epoch 0 at bind, and with cfg.incremental a take ships only the
//    dirty pages of dirty cells.
//
// This is passive bookkeeping plus op scheduling: the checkpoint component
// (core/checkpoints.h) drives every transition.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/time.h"
#include "net/cost_model.h"
#include "net/fabric.h"
#include "rdma/mr.h"
#include "sim/cpu.h"
#include "state/state.h"
#include "state/state_store.h"

namespace whale::state {

class CheckpointStore {
 public:
  // Local-medium calibration (sequential NVMe): a snapshot write takes
  // cfg.store_write_latency + bytes / kLocalWriteGbps, a recovery read
  // kLocalReadLatency + bytes / kLocalReadGbps.
  static constexpr double kLocalWriteGbps = 2.0;
  static constexpr double kLocalReadGbps = 4.0;
  static constexpr Duration kLocalReadLatency = us(100);
  // Page granularity of incremental deltas: smaller pages ship fewer bytes
  // per dirty cell but more per-page framing.
  static constexpr uint64_t kDeltaPageBytes = 256;
  // Remote medium: each task's memory region is registered at bind with
  // at least kMrMinCapacity bytes and doubled when its image outgrows it;
  // the WRITE that first needs the grown region pays kMrRegisterLatency
  // (pinning + rkey exchange, off the data path).
  static constexpr uint64_t kMrMinCapacity = 4096;
  static constexpr Duration kMrRegisterLatency = us(50);

  // Remote-medium counters; all stay 0 on the local medium.
  struct Stats {
    uint64_t writes_posted = 0;
    uint64_t write_bytes = 0;   // one-sided snapshot WRITE payloads
    uint64_t reads_posted = 0;
    uint64_t read_bytes = 0;    // one-sided recovery READ payloads
    uint64_t write_drops = 0;   // WRITEs eaten by the fabric
    uint64_t read_drops = 0;
    uint64_t regions = 0;           // registered memory regions
    uint64_t region_bytes = 0;      // pinned capacity total
    uint64_t region_grows = 0;      // re-registrations after image growth
  };

  // One taken snapshot: the delta blob and its byte accounting.
  // `stats.shipped_bytes` is what the write carries.
  struct Snapshot {
    std::vector<uint8_t> delta;
    StateStore::DeltaStats stats;
  };

  // `host_node` is the state host; only the remote medium uses it.
  CheckpointStore(net::Fabric& fabric, const net::CostModel& cost,
                  const StateConfig& cfg, int host_node);

  // Registers `task`, whose executor runs on `node`, and keeps
  // `epoch0_image` as its recovery image. The remote medium pins a memory
  // region sized to it (floored at kMrMinCapacity) and seeds the host
  // image from it. Must be called once per task before its first write.
  void bind_task(int task, int node, std::span<const uint8_t> epoch0_image);
  // Drops a retired task's image and anything it has staged.
  void erase_task(int task) { images_.erase(task); }

  // Takes `store`'s snapshot for this epoch (staging its pending
  // baseline): every page of every cell, unless the remote medium runs
  // incrementally.
  Snapshot take(StateStore& store) const;

  // Ships `snap` for `task` from `initiator` (the task's executor CPU)
  // and stages it for `epoch`. `extra_bytes` rides the same write without
  // entering the image (in-flight channel state under unaligned
  // barriers). `on_written` fires when the write has landed. A remote
  // WRITE eaten by the fabric (initiator crashed mid-write) fires nothing;
  // the epoch aborts at the next tick as usual.
  void write(int task, uint64_t epoch, sim::CpuServer* initiator,
             Snapshot snap, uint64_t extra_bytes,
             std::function<void()> on_written);

  // Merges every delta staged for `epoch` into the committed images.
  void commit(uint64_t epoch);
  // Drops every delta staged for `epoch`.
  void abort(uint64_t epoch);

  // Reads all committed images (committed_bytes_total()) back to a
  // recovering `node`; `on_data` fires when they have landed.
  void read_images(sim::CpuServer* initiator, int node,
                   std::function<void()> on_data);

  // Replaces `task`'s committed image with `image` (snapshot() format):
  // an elastic rescale installs re-split state this way, so a crash after
  // the cutover rolls back to exactly what the rescale installed.
  void overwrite(int task, std::span<const uint8_t> image);

  // What a recovery restores `task` to, in snapshot() format (cells in
  // sorted-name order — deterministic across platforms): its committed
  // image, or its epoch-0 image before its first commit.
  const std::vector<uint8_t>& recovery_image(int task) const;
  // What a restore reads: the committed images only.
  uint64_t committed_bytes_total() const;

  const Stats& stats() const { return stats_; }

 private:
  struct TaskImage {
    int node = 0;
    uint32_t rkey = 0;       // remote medium only
    bool committed = false;  // seeded, committed or overwritten (else
                             // `cells` hold the epoch-0 image)
    std::map<std::string, std::vector<uint8_t>> cells;
    bool staged = false;
    uint64_t staged_epoch = 0;
    std::vector<uint8_t> staged_delta;
    mutable std::vector<uint8_t> assembled;  // lazy snapshot()-format cache
    mutable bool assembled_valid = false;
  };

  TaskImage& bound(int task);
  void install(TaskImage& img, std::span<const uint8_t> image) const;
  void apply_delta(TaskImage& img, std::span<const uint8_t> delta) const;

  net::Fabric& fabric_;
  const StateConfig& cfg_;
  rdma::MemoryRegionTable mrs_;
  rdma::OneSidedPlane plane_;
  std::map<int, TaskImage> images_;
  Stats stats_;
};

}  // namespace whale::state
