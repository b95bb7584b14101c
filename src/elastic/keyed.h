// Keyed-state cells and key-range re-splitting (DESIGN.md §14).
//
// A rescalable operator's migratable state must be *keyed*: cells whose
// names carry the "__keyed." prefix use a common wire format — varint
// entry count, then per entry {u64 key hash, length-prefixed payload},
// sorted by key hash — so the migration machinery can merge the cells of
// every old instance and re-split them by `key % n_new` without knowing
// anything about the payloads. Operators keep full ownership of payload
// serde; the split is a pure byte-level shuffle. The sort makes merged
// and re-split bodies byte-stable regardless of which instance each
// entry came from. Whole snapshot blobs are parsed and built with
// state::parse_snapshot / state::build_snapshot (state/state_store.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace whale::elastic {

inline constexpr std::string_view kKeyedCellPrefix = "__keyed.";

inline bool is_keyed_cell(const std::string& name) {
  return name.rfind(kKeyedCellPrefix, 0) == 0;
}

struct KeyedEntry {
  uint64_t key = 0;
  std::vector<uint8_t> payload;
};

// Serializes entries in key order (sorting is done here so callers can
// hand over hash-map contents directly).
inline void write_keyed_body(ByteWriter& w, std::vector<KeyedEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const KeyedEntry& a, const KeyedEntry& b) {
              return a.key < b.key;
            });
  w.put_varint(entries.size());
  for (const auto& e : entries) {
    w.put_u64(e.key);
    w.put_bytes(e.payload);
  }
}

inline std::vector<KeyedEntry> read_keyed_body(ByteReader& r) {
  const uint64_t n = r.get_varint();
  std::vector<KeyedEntry> entries;
  entries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    KeyedEntry e;
    e.key = r.get_u64();
    e.payload = r.get_bytes();
    entries.push_back(std::move(e));
  }
  return entries;
}

struct SplitStats {
  uint64_t entries = 0;  // keyed entries redistributed
  uint64_t bytes = 0;    // payload bytes redistributed
};

// Merges the bodies of one keyed cell across every old instance and
// re-splits them into `n` new bodies by `key % n`. Ownership of a key is
// a pure function of (key, n), which is exactly the predicate keyed
// operators use to claim work, so the state lands where the routing will
// send the traffic.
inline std::vector<std::vector<uint8_t>> split_keyed_cell(
    const std::vector<std::vector<uint8_t>>& old_bodies, size_t n,
    SplitStats* stats = nullptr) {
  std::vector<KeyedEntry> all;
  for (const auto& body : old_bodies) {
    ByteReader r(body);
    auto entries = read_keyed_body(r);
    all.insert(all.end(), std::make_move_iterator(entries.begin()),
               std::make_move_iterator(entries.end()));
  }
  std::vector<std::vector<KeyedEntry>> buckets(n);
  for (auto& e : all) {
    if (stats) {
      ++stats->entries;
      stats->bytes += e.payload.size();
    }
    buckets[e.key % n].push_back(std::move(e));
  }
  std::vector<std::vector<uint8_t>> out;
  out.reserve(n);
  for (auto& b : buckets) {
    ByteWriter w(64);
    write_keyed_body(w, std::move(b));
    out.push_back(w.take());
  }
  return out;
}

}  // namespace whale::elastic
