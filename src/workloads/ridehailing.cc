#include "workloads/ridehailing.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "elastic/keyed.h"
#include "state/state_store.h"

namespace whale::workloads {

dsps::Tuple DriverLocationSpout::next(Rng& rng) {
  dsps::Tuple t;
  t.values.reserve(4);
  t.values.emplace_back(static_cast<int64_t>(kDriverUpdate));
  t.values.emplace_back(rng.uniform_int(0, p_.num_drivers - 1));
  t.values.emplace_back(rng.uniform(0.0, p_.city_km));
  t.values.emplace_back(rng.uniform(0.0, p_.city_km));
  return t;
}

dsps::Tuple PassengerRequestSpout::next(Rng& rng) {
  dsps::Tuple t;
  t.values.reserve(4);
  t.values.emplace_back(static_cast<int64_t>(kPassengerRequest));
  t.values.emplace_back(next_request_++);
  t.values.emplace_back(rng.uniform(0.0, p_.city_km));
  t.values.emplace_back(rng.uniform(0.0, p_.city_km));
  return t;
}

void PassengerRequestSpout::register_state(whale::state::StateStore& store) {
  store.register_cell(
      "next_request",
      [this](ByteWriter& w) { w.put_i64(next_request_); },
      [this](ByteReader& r) { next_request_ = r.get_i64(); });
}

namespace {

// Largest grid side: keeps row * cols + column below 2^62. A smaller radius
// only folds the far columns into the last one, which the clamp in
// axis_cell() keeps correct.
constexpr uint64_t kMaxCols = uint64_t{1} << 31;

// floor(v) clamped to [0, hi]; NaN maps to 0.
uint64_t clamp_floor(double v, uint64_t hi) {
  if (!(v >= 1.0)) return 0;
  if (v >= static_cast<double>(hi)) return hi;
  return static_cast<uint64_t>(v);
}

}  // namespace

std::span<const int32_t> DriverOwnership::owned(int parallelism,
                                                 int instance) {
  if (parallelism < 1 || instance < 0 || instance >= parallelism) {
    throw std::invalid_argument(
        "DriverOwnership: instance " + std::to_string(instance) +
        " outside [0, " + std::to_string(parallelism) + ")");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_parallelism_.find(parallelism);
  if (it == by_parallelism_.end()) {
    // Counting sort by owner: ids stay ascending within each bucket.
    const size_t n = static_cast<size_t>(std::max(0, num_drivers_));
    const auto p = static_cast<uint64_t>(parallelism);
    std::vector<uint32_t> owner(n);
    Buckets b;
    b.offsets.assign(static_cast<size_t>(parallelism) + 1, 0);
    for (size_t id = 0; id < n; ++id) {
      owner[id] = static_cast<uint32_t>(
          dsps::value_hash(dsps::Value{static_cast<int64_t>(id)}) % p);
      ++b.offsets[owner[id] + 1];
    }
    std::partial_sum(b.offsets.begin(), b.offsets.end(), b.offsets.begin());
    std::vector<uint32_t> next(b.offsets.begin(), b.offsets.end() - 1);
    b.ids.resize(n);
    for (size_t id = 0; id < n; ++id) {
      b.ids[next[owner[id]]++] = static_cast<int32_t>(id);
    }
    it = by_parallelism_.emplace(parallelism, std::move(b)).first;
  }
  const Buckets& b = it->second;
  const auto i = static_cast<size_t>(instance);
  return {b.ids.data() + b.offsets[i], b.ids.data() + b.offsets[i + 1]};
}

MatchingBolt::MatchingBolt(RideHailingParams p,
                           std::shared_ptr<DriverOwnership> owners)
    : p_(p),
      owners_(owners ? std::move(owners)
                     : std::make_shared<DriverOwnership>(p.num_drivers)) {
  if (!(p_.radius_km > 0.0)) {
    throw std::invalid_argument("MatchingBolt: radius_km must be > 0, got " +
                                std::to_string(p_.radius_km));
  }
  cols_ = 1 + clamp_floor(std::ceil(p_.city_km / p_.radius_km) - 1.0,
                          kMaxCols - 1);
}

uint64_t MatchingBolt::axis_cell(double v) const {
  return clamp_floor(v / p_.radius_km, cols_ - 1);
}

uint64_t MatchingBolt::cell_of(const Driver& d) const {
  return axis_cell(d.y) * cols_ + axis_cell(d.x);
}

void MatchingBolt::rebuild_index() {
  index_.resize(drivers_.size());
  for (size_t slot = 0; slot < drivers_.size(); ++slot) {
    index_[slot] = CellSlot{cell_of(drivers_[slot]),
                            static_cast<uint32_t>(slot)};
  }
  std::sort(index_.begin(), index_.end());
}

void MatchingBolt::prepare(const dsps::TaskContext& ctx) {
  ctx_ = ctx;
  // The driver stream is fields-grouped on the driver id; this instance
  // owns exactly the ids whose hash lands on it. Positions are derived
  // deterministically from the id so every run sees the same city.
  const auto owned = owners_->owned(ctx.parallelism, ctx.instance_index);
  drivers_.clear();
  drivers_.reserve(owned.size());
  for (const int32_t id : owned) {
    Rng rng(static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ULL + 1);
    const double x = rng.uniform(0.0, p_.city_km);
    const double y = rng.uniform(0.0, p_.city_km);
    drivers_.push_back(Driver{id, x, y});
  }
  rebuild_index();
}

void MatchingBolt::upsert(int64_t id, double x, double y) {
  const auto it = std::lower_bound(
      drivers_.begin(), drivers_.end(), id,
      [](const Driver& d, int64_t key) { return d.id < key; });
  if (it == drivers_.end() || it->id != id) {
    // A new id shifts every later slot.
    drivers_.insert(it, Driver{id, x, y});
    rebuild_index();
    return;
  }
  const uint64_t from = cell_of(*it);
  it->x = x;
  it->y = y;
  const uint64_t to = cell_of(*it);
  if (from == to) return;
  // Move the driver's index entry to its new sorted position.
  const auto slot = static_cast<uint32_t>(it - drivers_.begin());
  const auto old_pos =
      std::lower_bound(index_.begin(), index_.end(), CellSlot{from, slot});
  const auto new_pos =
      std::lower_bound(index_.begin(), index_.end(), CellSlot{to, slot});
  if (new_pos > old_pos) {
    std::rotate(old_pos, old_pos + 1, new_pos);
    (new_pos - 1)->cell = to;
  } else {
    std::rotate(new_pos, old_pos, old_pos + 1);
    new_pos->cell = to;
  }
}

Duration MatchingBolt::execute(const dsps::Tuple& t, dsps::Emitter& out) {
  const auto tag = static_cast<RideTupleTag>(t.as_int(0));
  if (tag == kDriverUpdate) {
    upsert(t.as_int(1), t.as_double(2), t.as_double(3));
    return p_.driver_update_cost;
  }
  // Passenger request: probe the cells within the radius (the real join).
  const int64_t request = t.as_int(1);
  const double rx = t.as_double(2);
  const double ry = t.as_double(3);
  const double r2 = p_.radius_km * p_.radius_km;
  // Cells are radius_km wide, so rx ± radius spans the request's 3x3 cell
  // neighbourhood. The margin (far below a cell) covers the rounding in
  // d2 <= r2 and in the cell division, which could otherwise admit a
  // driver one ulp past the neighbourhood.
  auto cell_range = [this](double v) {
    const double reach =
        p_.radius_km + (p_.radius_km + std::abs(v)) * 0x1p-40;
    return std::pair{axis_cell(v - reach), axis_cell(v + reach)};
  };
  const auto [col_lo, col_hi] = cell_range(rx);
  const auto [row_lo, row_hi] = cell_range(ry);
  hits_.clear();
  for (uint64_t row = row_lo; row <= row_hi; ++row) {
    const uint64_t last = row * cols_ + col_hi;
    for (auto it = std::lower_bound(index_.begin(), index_.end(),
                                    CellSlot{row * cols_ + col_lo, 0});
         it != index_.end() && it->cell <= last; ++it) {
      const Driver& d = drivers_[it->slot];
      const double dx = d.x - rx;
      const double dy = d.y - ry;
      const double d2 = dx * dx + dy * dy;
      if (d2 <= r2) hits_.emplace_back(it->slot, d2);
    }
  }
  std::sort(hits_.begin(), hits_.end());  // slot order is driver-id order
  for (const auto& [slot, d2] : hits_) {
    dsps::Tuple m;
    m.values.reserve(3);
    m.values.emplace_back(request);
    m.values.emplace_back(drivers_[slot].id);
    m.values.emplace_back(d2);
    out.emit(std::move(m));
  }
  // Modeled join time uses the *expected* slice size (num_drivers /
  // parallelism): at the paper's data scale (6M drivers) key grouping
  // balances slices to within <1%, whereas our scaled-down driver count
  // would add ±15% hash noise and make the slowest instance an artificial
  // bottleneck. The join itself still probes the real local slice.
  const Duration slice = static_cast<Duration>(
      std::max(1, p_.num_drivers / std::max(1, ctx_.parallelism)));
  return p_.match_fixed_cost + p_.match_per_driver_cost * slice;
}

void MatchingBolt::register_state(whale::state::StateStore& store) {
  // Keyed cell (elastic/keyed.h wire format): entry key is the driver
  // id's fields-grouping hash — the same hash the driver stream routes by
  // and prepare()'s ownership predicate tests — so an elastic re-split by
  // key % n lands every driver exactly where the routing will send its
  // updates. write_keyed_body orders the entries, so the serialized bytes
  // are a pure function of the slice, independent of insertion history.
  store.register_cell(
      std::string(elastic::kKeyedCellPrefix) + "drivers",
      [this](ByteWriter& w) {
        std::vector<elastic::KeyedEntry> entries;
        entries.reserve(drivers_.size());
        for (const Driver& d : drivers_) {
          ByteWriter pw(24);
          pw.put_i64(d.id);
          pw.put_f64(d.x);
          pw.put_f64(d.y);
          entries.push_back(elastic::KeyedEntry{
              dsps::value_hash(dsps::Value{d.id}), pw.take()});
        }
        elastic::write_keyed_body(w, std::move(entries));
      },
      [this](ByteReader& r) {
        const auto entries = elastic::read_keyed_body(r);
        drivers_.clear();
        drivers_.reserve(entries.size());
        for (const auto& e : entries) {
          ByteReader pr(e.payload);
          const int64_t id = pr.get_i64();
          const double x = pr.get_f64();
          const double y = pr.get_f64();
          drivers_.push_back(Driver{id, x, y});
        }
        // Sort by id; a repeated id keeps its last entry, as an upsert
        // would.
        const auto same_id = [](const Driver& a, const Driver& b) {
          return a.id == b.id;
        };
        std::stable_sort(drivers_.begin(), drivers_.end(),
                         [](const Driver& a, const Driver& b) {
                           return a.id < b.id;
                         });
        drivers_.erase(drivers_.begin(),
                       std::unique(drivers_.rbegin(), drivers_.rend(), same_id)
                           .base());
        rebuild_index();
      });
}

Duration RideAggregationBolt::execute(const dsps::Tuple& t,
                                      dsps::Emitter&) {
  const int64_t request = t.as_int(0);
  const int64_t driver = t.as_int(1);
  const double d2 = t.as_double(2);
  auto [it, fresh] = best_.try_emplace(request, driver, d2);
  if (!fresh && d2 < it->second.second) it->second = {driver, d2};
  // Bound state: forget old requests once the table grows large.
  if (best_.size() > 200000) best_.clear();
  return p_.aggregation_cost;
}

void RideAggregationBolt::register_state(whale::state::StateStore& store) {
  store.register_cell(
      "best",
      [this](ByteWriter& w) {
        std::vector<int64_t> requests;
        requests.reserve(best_.size());
        for (const auto& [req, match] : best_) requests.push_back(req);
        std::sort(requests.begin(), requests.end());
        w.put_varint(requests.size());
        for (int64_t req : requests) {
          const auto& [driver, d2] = best_.at(req);
          w.put_i64(req);
          w.put_i64(driver);
          w.put_f64(d2);
        }
      },
      [this](ByteReader& r) {
        best_.clear();
        const uint64_t n = r.get_varint();
        best_.reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
          const int64_t req = r.get_i64();
          const int64_t driver = r.get_i64();
          const double d2 = r.get_f64();
          best_.try_emplace(req, driver, d2);
        }
      });
}

}  // namespace whale::workloads
