// Keyed/operator state registration + serde (DESIGN.md §10, §12).
//
// Each executor owns one StateStore. During prepare() the operator
// registers named cells — a (save, restore) closure pair over its live
// in-memory structures. A snapshot serializes every cell into one
// length-prefixed byte blob (via ByteWriter); restore replays the blob
// back through the matching cells by name, so layout changes between
// registration orders are tolerated as long as names survive.
//
// For checkpoints (DESIGN.md §10, §12) the store additionally tracks a
// per-cell *baseline*: the serialized bytes of the last committed
// snapshot. snapshot_delta() diffs the current serialization against it
// — clean cells are skipped entirely and dirty cells are shipped
// page-granular (only the changed pages cross the wire), which is what
// makes one-sided incremental checkpoints cheap. Dirtiness is
// detected by content comparison, never by an operator-declared flag, so
// a missed annotation can never silently corrupt a checkpoint.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace whale::state {

// The snapshot blob format, owned here: varint cell count, then per cell
// {string name, length-prefixed body}. StateStore::snapshot() builds it,
// restore()/rebase() parse it, and so do the checkpoint store's committed
// images and the elastic key-range migration.
using SnapshotCells = std::vector<std::pair<std::string, std::vector<uint8_t>>>;
SnapshotCells parse_snapshot(std::span<const uint8_t> blob);  // {} if empty
std::vector<uint8_t> build_snapshot(const SnapshotCells& cells);

class StateStore {
 public:
  using SaveFn = std::function<void(ByteWriter&)>;
  using RestoreFn = std::function<void(ByteReader&)>;

  // Byte accounting of one snapshot_delta() call.
  struct DeltaStats {
    uint64_t shipped_bytes = 0;  // encoded delta blob size
    uint64_t full_bytes = 0;     // what snapshot() would have produced
    uint32_t dirty_cells = 0;
    uint32_t clean_cells = 0;
  };

  // Registers a named cell. Names must be unique within one store; the
  // pair is invoked on every snapshot/restore of the owning executor.
  void register_cell(std::string name, SaveFn save, RestoreFn restore);

  // Serializes all cells in the snapshot blob format. Cells are emitted in
  // registration order, which is fixed at prepare() time — the blob is
  // byte-stable across runs and platforms.
  std::vector<uint8_t> snapshot() const;

  // Differential snapshot against the committed baseline: varint dirty
  // cell count, then per dirty cell {string name, varint new_body_size,
  // varint n_pages, pages {varint page_index, varint page_size, bytes}}.
  // A cell whose serialized bytes equal its baseline is clean and absent
  // from the blob; a dirty cell ships only the pages (page_bytes-sized
  // slices of its body) that differ. With force_full (or an empty
  // baseline) every cell ships all its pages — the encoding is the same,
  // so full and incremental snapshots share one apply path.
  //
  // The fresh serialization is staged as the *pending* baseline:
  // commit_baseline() promotes it when the epoch commits,
  // drop_pending_baseline() discards it when the epoch aborts (so the
  // next delta is diffed against the image the store host actually has).
  std::vector<uint8_t> snapshot_delta(uint64_t page_bytes, bool force_full,
                                      DeltaStats* stats = nullptr);
  void commit_baseline();
  void drop_pending_baseline();

  // Resets the committed baseline to `full_image` (a snapshot()-format
  // blob) and drops any pending baseline. Used at bind and after
  // recovery: the next delta must be diffed against the image the
  // checkpoint store holds, for every task — including spouts, whose live
  // operator cells are not rolled back but whose stored images are the
  // committed ones.
  void rebase(std::span<const uint8_t> full_image);

  // Replays a snapshot produced by this store (or an identically
  // registered one). Unknown cell names are skipped; registered cells
  // missing from the blob are left untouched.
  void restore(std::span<const uint8_t> blob);

  // Like restore(), but only replays cells whose name passes `filter`.
  // Used by recovery paths that roll back a subset of an executor's state
  // (e.g. spout routing cursors while the source-reader cells stay live).
  void restore_if(std::span<const uint8_t> blob,
                  const std::function<bool(const std::string&)>& filter);

  // True if any registered cell name passes `filter`.
  bool has_cell_matching(
      const std::function<bool(const std::string&)>& filter) const;

  size_t cell_count() const { return cells_.size(); }
  bool empty() const { return cells_.empty(); }

 private:
  struct Cell {
    std::string name;
    SaveFn save;
    RestoreFn restore;
    std::vector<uint8_t> baseline;  // last committed serialization
    std::vector<uint8_t> pending;   // staged by snapshot_delta()
    bool has_pending = false;
  };
  std::vector<Cell> cells_;
};

}  // namespace whale::state
