// Synthetic on-demand ride-hailing workload (substitute for the Didi GAIA
// dataset, Sec. 5.1 / Fig. 4).
//
// Two streams over a city grid:
//   - driver locations  {kDriver, driver_id, x, y}   key-grouped by driver
//   - passenger requests {kRequest, request_id, x, y} all-grouped (the
//     one-to-many stream under study)
// The matching operator stores its key-grouped driver slice in a grid index
// and joins each broadcast request against it, emitting qualified matches
// (drivers within `radius_km`); aggregation keeps the best match per
// request.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "dsps/topology.h"

namespace whale::workloads {

// values[0] tags the record type on the shared matching input.
enum RideTupleTag : int64_t { kDriverUpdate = 0, kPassengerRequest = 1 };

struct RideHailingParams {
  int num_drivers = 20000;
  double city_km = 100.0;   // square city side
  double radius_km = 1.0;   // match radius

  // Modeled CPU costs of the user logic. The per-driver cost models the
  // spatial-index probe + distance checks over the locally stored slice
  // (MatchingBolt really probes a grid of `radius_km` cells), so matching
  // gets cheaper as parallelism spreads the drivers out — the mechanism
  // behind Whale's falling latency curve (Fig. 14).
  Duration driver_update_cost = us(2);
  Duration match_fixed_cost = us(40);
  Duration match_per_driver_cost = us(1);
  Duration aggregation_cost = us(3);
};

class DriverLocationSpout : public dsps::Spout {
 public:
  explicit DriverLocationSpout(RideHailingParams p) : p_(p) {}
  dsps::Tuple next(Rng& rng) override;
  Duration emit_cost() const override { return us(2); }

 private:
  RideHailingParams p_;
};

class PassengerRequestSpout : public dsps::Spout {
 public:
  explicit PassengerRequestSpout(RideHailingParams p) : p_(p) {}
  dsps::Tuple next(Rng& rng) override;
  Duration emit_cost() const override { return us(2); }
  // Checkpoints the request counter so replayed runs resume numbering at
  // the committed source offset instead of re-issuing ids from zero.
  void register_state(whale::state::StateStore& store) override;

 private:
  RideHailingParams p_;
  int64_t next_request_ = 0;
};

// Initial ownership of the driver ids [0, num_drivers): instance i of a
// parallelism-p operator owns the ids whose fields-grouping hash lands on
// it, value_hash(id) % p == i — the predicate the driver stream routes by.
// Each parallelism is bucketed in one pass over the ids the first time an
// instance asks for it (an elastic spawn asks for a new one), so the
// instances of one operator share the work through one table. Thread-safe.
class DriverOwnership {
 public:
  explicit DriverOwnership(int num_drivers) : num_drivers_(num_drivers) {}
  // The ids `instance` owns at `parallelism`, ascending. The view lives as
  // long as the table. Throws std::invalid_argument unless
  // 0 <= instance < parallelism.
  std::span<const int32_t> owned(int parallelism, int instance);

 private:
  struct Buckets {
    std::vector<uint32_t> offsets;  // parallelism + 1 offsets into `ids`
    std::vector<int32_t> ids;       // every id, grouped by owner
  };
  const int num_drivers_;
  std::mutex mu_;  // guards by_parallelism_; entries are never modified
  std::map<int, Buckets> by_parallelism_;
};

// Joins the broadcast request stream against the locally stored driver
// slice. Emits {request_id, driver_id, distance_sq} per qualified match, in
// driver-id order.
//
// The slice is one table sorted by driver id plus a (cell, slot) index
// sorted by cell over a grid of `radius_km` cells, so a request visits only
// the drivers in its 3x3 cell neighbourhood; the distance test is exact.
class MatchingBolt : public dsps::Bolt {
 public:
  // `owners` is the operator's shared ownership table (build_ride_hailing
  // passes one to every instance); without one the bolt builds its own.
  // Throws std::invalid_argument unless radius_km > 0.
  explicit MatchingBolt(RideHailingParams p,
                        std::shared_ptr<DriverOwnership> owners = nullptr);
  // Pre-loads the key-grouped driver slice this instance owns, so the join
  // cost reflects the steady state instead of an empty table.
  void prepare(const dsps::TaskContext& ctx) override;
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override;
  // Checkpoints the driver slice as a "__keyed." cell (key = the driver
  // id's fields-grouping hash), which is what makes this operator
  // elastically rescalable: the migration machinery merges the cells of
  // every old instance and re-splits them by key % new_parallelism —
  // exactly the ownership predicate prepare() and the driver stream's
  // fields grouping use.
  void register_state(whale::state::StateStore& store) override;
  // Elastic rescale cutover: the migrated keyed cell is already restored;
  // only the ownership shape (parallelism / instance index) changes.
  void rescaled(const dsps::TaskContext& ctx) override { ctx_ = ctx; }

  size_t stored_drivers() const { return drivers_.size(); }

 private:
  struct Driver {
    int64_t id;
    double x, y;
  };
  struct CellSlot {
    uint64_t cell;  // row * cols_ + column
    uint32_t slot;  // index into drivers_
    auto operator<=>(const CellSlot&) const = default;
  };
  uint64_t axis_cell(double v) const;
  uint64_t cell_of(const Driver& d) const;
  void upsert(int64_t id, double x, double y);
  void rebuild_index();

  RideHailingParams p_;
  std::shared_ptr<DriverOwnership> owners_;
  uint64_t cols_ = 1;  // grid columns (and rows) over [0, city_km]
  dsps::TaskContext ctx_;
  std::vector<Driver> drivers_;   // sorted by id
  std::vector<CellSlot> index_;   // sorted by (cell, slot)
  std::vector<std::pair<uint32_t, double>> hits_;  // reused by execute()
};

// Sink: keeps the best (closest) driver per request.
class RideAggregationBolt : public dsps::Bolt {
 public:
  explicit RideAggregationBolt(RideHailingParams p) : p_(p) {}
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override;
  // Checkpoints the best-match table (request -> {driver, distance_sq}).
  void register_state(whale::state::StateStore& store) override;

  size_t decided() const { return best_.size(); }

 private:
  RideHailingParams p_;
  std::unordered_map<int64_t, std::pair<int64_t, double>> best_;
};

// Square-wave request-rate profile for the elastic benchmarks: starts at
// `lull_tps`, alternates to `burst_tps` and back every `half_period`, for
// `cycles` full cycles. Each burst drives the matching backlog over the
// scale-up threshold; each lull drains it under the scale-down one, so a
// single run exercises both rescale directions repeatedly.
inline dsps::RateProfile bursty_request_profile(double lull_tps,
                                                double burst_tps,
                                                Duration half_period,
                                                int cycles) {
  auto p = dsps::RateProfile::constant(lull_tps);
  for (int c = 0; c < cycles; ++c) {
    p.then_at(half_period * (2 * c + 1), burst_tps);
    p.then_at(half_period * (2 * c + 2), lull_tps);
  }
  return p;
}

}  // namespace whale::workloads
