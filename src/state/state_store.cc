#include "state/state_store.h"

#include <algorithm>
#include <cassert>

namespace whale::state {

void StateStore::register_cell(std::string name, SaveFn save,
                               RestoreFn restore) {
  for (const auto& c : cells_) {
    assert(c.name != name && "duplicate state cell name");
    (void)c;
  }
  Cell c;
  c.name = std::move(name);
  c.save = std::move(save);
  c.restore = std::move(restore);
  cells_.push_back(std::move(c));
}

SnapshotCells parse_snapshot(std::span<const uint8_t> blob) {
  SnapshotCells cells;
  if (blob.empty()) return cells;
  ByteReader r(blob);
  const uint64_t n = r.get_varint();
  for (uint64_t i = 0; i < n; ++i) {
    std::string name = r.get_string();
    cells.emplace_back(std::move(name), r.get_bytes());
  }
  return cells;
}

std::vector<uint8_t> build_snapshot(const SnapshotCells& cells) {
  ByteWriter w(256);
  w.put_varint(cells.size());
  for (const auto& [name, body] : cells) {
    w.put_string(name);
    w.put_bytes(body);
  }
  return w.take();
}

std::vector<uint8_t> StateStore::snapshot() const {
  SnapshotCells cells;
  cells.reserve(cells_.size());
  for (const auto& c : cells_) {
    ByteWriter body;
    c.save(body);
    cells.emplace_back(c.name, body.take());
  }
  return build_snapshot(cells);
}

std::vector<uint8_t> StateStore::snapshot_delta(uint64_t page_bytes,
                                                bool force_full,
                                                DeltaStats* stats) {
  assert(page_bytes > 0);
  DeltaStats ds;
  ds.full_bytes = varint_size(cells_.size());

  // Serialize every cell first (full_bytes counts what snapshot() would
  // produce, and the fresh bytes become the pending baseline either way).
  struct Dirty {
    size_t cell;
    std::vector<std::pair<uint64_t, std::span<const uint8_t>>> pages;
  };
  std::vector<Dirty> dirty;
  for (size_t i = 0; i < cells_.size(); ++i) {
    Cell& c = cells_[i];
    ByteWriter body;
    c.save(body);
    c.pending = body.take();
    c.has_pending = true;
    ds.full_bytes += varint_size(c.name.size()) + c.name.size() +
                     varint_size(c.pending.size()) + c.pending.size();

    if (!force_full && c.pending == c.baseline) {
      ++ds.clean_cells;
      continue;
    }
    ++ds.dirty_cells;
    Dirty d;
    d.cell = i;
    const auto& cur = c.pending;
    const auto& base = c.baseline;
    const uint64_t n_pages =
        (cur.size() + page_bytes - 1) / page_bytes;
    for (uint64_t p = 0; p < n_pages; ++p) {
      const size_t off = static_cast<size_t>(p * page_bytes);
      const size_t len = std::min<size_t>(page_bytes, cur.size() - off);
      const bool differs =
          force_full || off + len > base.size() ||
          !std::equal(cur.begin() + static_cast<ptrdiff_t>(off),
                      cur.begin() + static_cast<ptrdiff_t>(off + len),
                      base.begin() + static_cast<ptrdiff_t>(off));
      if (differs) {
        d.pages.emplace_back(
            p, std::span<const uint8_t>(cur.data() + off, len));
      }
    }
    // A shrunk cell can diff clean on every surviving page yet still need
    // its new (smaller) length applied; an empty page list carries it.
    dirty.push_back(std::move(d));
  }

  ByteWriter w;
  w.put_varint(dirty.size());
  for (const auto& d : dirty) {
    const Cell& c = cells_[d.cell];
    w.put_string(c.name);
    w.put_varint(c.pending.size());
    w.put_varint(d.pages.size());
    for (const auto& [idx, page] : d.pages) {
      w.put_varint(idx);
      w.put_bytes(page);
    }
  }
  auto blob = w.take();
  ds.shipped_bytes = blob.size();
  if (stats) *stats = ds;
  return blob;
}

void StateStore::commit_baseline() {
  for (auto& c : cells_) {
    if (!c.has_pending) continue;
    c.baseline = std::move(c.pending);
    c.pending.clear();
    c.has_pending = false;
  }
}

void StateStore::drop_pending_baseline() {
  for (auto& c : cells_) {
    c.pending.clear();
    c.has_pending = false;
  }
}

void StateStore::rebase(std::span<const uint8_t> full_image) {
  for (auto& c : cells_) {
    c.baseline.clear();
    c.pending.clear();
    c.has_pending = false;
  }
  for (auto& [name, body] : parse_snapshot(full_image)) {
    for (auto& c : cells_) {
      if (c.name != name) continue;
      c.baseline = std::move(body);
      break;
    }
  }
}

void StateStore::restore(std::span<const uint8_t> blob) {
  restore_if(blob, nullptr);
}

void StateStore::restore_if(
    std::span<const uint8_t> blob,
    const std::function<bool(const std::string&)>& filter) {
  for (const auto& [name, body] : parse_snapshot(blob)) {
    if (filter && !filter(name)) continue;
    for (auto& c : cells_) {
      if (c.name != name) continue;
      ByteReader br(std::span<const uint8_t>(body.data(), body.size()));
      c.restore(br);
      break;
    }
  }
}

bool StateStore::has_cell_matching(
    const std::function<bool(const std::string&)>& filter) const {
  for (const auto& c : cells_) {
    if (filter(c.name)) return true;
  }
  return false;
}

}  // namespace whale::state
