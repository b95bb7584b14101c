#include "state/checkpoint_store.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/bytes.h"

namespace whale::state {

CheckpointStore::CheckpointStore(net::Fabric& fabric,
                                 const net::CostModel& cost,
                                 const StateConfig& cfg, int host_node)
    : fabric_(fabric), cfg_(cfg), plane_(fabric, cost, host_node) {}

CheckpointStore::TaskImage& CheckpointStore::bound(int task) {
  auto it = images_.find(task);
  assert(it != images_.end() && "checkpoint store: task was never bound");
  return it->second;
}

void CheckpointStore::install(TaskImage& img,
                              std::span<const uint8_t> image) const {
  img.cells.clear();
  for (auto& [name, body] : parse_snapshot(image)) {
    img.cells[std::move(name)] = std::move(body);
  }
  img.assembled_valid = false;
}

void CheckpointStore::bind_task(int task, int node,
                                std::span<const uint8_t> epoch0_image) {
  TaskImage img;
  img.node = node;
  install(img, epoch0_image);
  if (cfg_.remote) {
    img.committed = true;  // seeded on the host
    img.rkey = mrs_.register_region(
        std::max<uint64_t>(epoch0_image.size(), kMrMinCapacity));
    stats_.regions = mrs_.count();
    stats_.region_bytes = mrs_.registered_bytes();
  }
  images_[task] = std::move(img);
}

CheckpointStore::Snapshot CheckpointStore::take(StateStore& store) const {
  Snapshot s;
  s.delta = store.snapshot_delta(kDeltaPageBytes,
                                 /*force_full=*/!(cfg_.remote &&
                                                  cfg_.incremental),
                                 &s.stats);
  if (!cfg_.remote) {
    // The local store writes whole images: it ships (and is timed by) the
    // snapshot() size, and a full image has no dirty/clean census.
    s.stats.shipped_bytes = s.stats.full_bytes;
    s.stats.dirty_cells = s.stats.clean_cells = 0;
  }
  return s;
}

void CheckpointStore::write(int task, uint64_t epoch,
                            sim::CpuServer* initiator, Snapshot snap,
                            uint64_t extra_bytes,
                            std::function<void()> on_written) {
  TaskImage& img = bound(task);
  // Stage at post time (simulation-side bookkeeping); the committed image
  // only moves at commit(), so a recovery racing this write still reads
  // the previous epoch.
  img.staged = true;
  img.staged_epoch = epoch;
  img.staged_delta = std::move(snap.delta);
  const uint64_t bytes = snap.stats.shipped_bytes + extra_bytes;
  if (!cfg_.remote) {
    fabric_.simulation().schedule_after(
        store_transfer_time(bytes, kLocalWriteGbps, cfg_.store_write_latency),
        [on_written = std::move(on_written)] { on_written(); });
    return;
  }
  // A grown image re-registers its region; the pin + rkey exchange is
  // charged as extra latency on this write's post.
  Duration extra = 0;
  if (mrs_.ensure_capacity(img.rkey, bytes)) {
    extra = kMrRegisterLatency;
    ++stats_.region_grows;
    stats_.region_bytes = mrs_.registered_bytes();
  }
  mrs_.note_write(img.rkey, bytes);
  ++stats_.writes_posted;
  plane_.write(
      initiator, img.node, bytes, extra,
      [this, bytes, on_written = std::move(on_written)] {
        stats_.write_bytes += bytes;
        on_written();
      },
      [this] { ++stats_.write_drops; });
}

void CheckpointStore::apply_delta(TaskImage& img,
                                  std::span<const uint8_t> delta) const {
  const uint64_t page = kDeltaPageBytes;
  ByteReader r(delta);
  const size_t n_cells = r.get_varint();
  for (size_t i = 0; i < n_cells; ++i) {
    const std::string name = r.get_string();
    const uint64_t new_size = r.get_varint();
    const size_t n_pages = r.get_varint();
    std::vector<uint8_t>& body = img.cells[name];
    body.resize(new_size, 0);
    for (size_t p = 0; p < n_pages; ++p) {
      const uint64_t idx = r.get_varint();
      const std::vector<uint8_t> bytes = r.get_bytes();
      const size_t off = static_cast<size_t>(idx * page);
      assert(off + bytes.size() <= body.size());
      std::copy(bytes.begin(), bytes.end(),
                body.begin() + static_cast<ptrdiff_t>(off));
    }
  }
}

void CheckpointStore::commit(uint64_t epoch) {
  for (auto& [task, img] : images_) {
    if (!img.staged || img.staged_epoch != epoch) continue;
    apply_delta(img, img.staged_delta);
    img.staged = false;
    img.staged_delta.clear();
    img.committed = true;
    img.assembled_valid = false;
  }
}

void CheckpointStore::abort(uint64_t epoch) {
  for (auto& [task, img] : images_) {
    if (img.staged && img.staged_epoch == epoch) {
      img.staged = false;
      img.staged_delta.clear();
    }
  }
}

void CheckpointStore::read_images(sim::CpuServer* initiator, int node,
                                  std::function<void()> on_data) {
  const uint64_t bytes = committed_bytes_total();
  if (!cfg_.remote) {
    fabric_.simulation().schedule_after(
        store_transfer_time(bytes, kLocalReadGbps, kLocalReadLatency),
        [on_data = std::move(on_data)] { on_data(); });
    return;
  }
  ++stats_.reads_posted;
  plane_.read(
      initiator, node, bytes,
      [this, bytes, on_data = std::move(on_data)] {
        stats_.read_bytes += bytes;
        on_data();
      },
      [this] { ++stats_.read_drops; });
}

void CheckpointStore::overwrite(int task, std::span<const uint8_t> image) {
  TaskImage& img = bound(task);
  install(img, image);
  img.committed = true;
}

const std::vector<uint8_t>& CheckpointStore::recovery_image(int task) const {
  const TaskImage& img = images_.at(task);
  if (!img.assembled_valid) {
    // std::map iteration: sorted names.
    img.assembled =
        build_snapshot(SnapshotCells(img.cells.begin(), img.cells.end()));
    img.assembled_valid = true;
  }
  return img.assembled;
}

uint64_t CheckpointStore::committed_bytes_total() const {
  uint64_t n = 0;
  for (const auto& [task, img] : images_) {
    if (img.committed) n += recovery_image(task).size();
  }
  return n;
}

}  // namespace whale::state
