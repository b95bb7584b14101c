// Workload generator and application-bolt tests: ride-hailing join
// correctness (grid probe vs full scan), ownership and cost scaling, stock
// order-book matching, Zipf skew.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/ride_hailing_app.h"
#include "elastic/keyed.h"
#include "state/state_store.h"
#include "workloads/ridehailing.h"
#include "workloads/stock.h"

namespace whale::workloads {
namespace {

dsps::TaskContext ctx(int instance, int parallelism) {
  dsps::TaskContext c;
  c.instance_index = instance;
  c.parallelism = parallelism;
  return c;
}

// --- ride hailing ------------------------------------------------------------

TEST(RideHailing, SpoutsProduceWellFormedTuples) {
  RideHailingParams p;
  Rng rng(1);
  DriverLocationSpout ds(p);
  const auto d = ds.next(rng);
  ASSERT_EQ(d.values.size(), 4u);
  EXPECT_EQ(d.as_int(0), kDriverUpdate);
  EXPECT_GE(d.as_int(1), 0);
  EXPECT_LT(d.as_int(1), p.num_drivers);
  EXPECT_GE(d.as_double(2), 0.0);
  EXPECT_LT(d.as_double(2), p.city_km);

  PassengerRequestSpout rs(p);
  const auto r1 = rs.next(rng);
  const auto r2 = rs.next(rng);
  EXPECT_EQ(r1.as_int(0), kPassengerRequest);
  EXPECT_EQ(r2.as_int(1), r1.as_int(1) + 1);  // monotone request ids
}

// The serialized "__keyed.drivers" cell of a matching instance.
std::vector<uint8_t> drivers_cell(MatchingBolt& b) {
  state::StateStore store;
  b.register_state(store);
  for (auto& [name, body] : state::parse_snapshot(store.snapshot())) {
    if (name == std::string(elastic::kKeyedCellPrefix) + "drivers") {
      return body;
    }
  }
  ADD_FAILURE() << "no __keyed.drivers cell";
  return {};
}

TEST(RideHailing, PrepareLoadsOwnedSliceOnly) {
  RideHailingParams p;
  p.num_drivers = 1000;
  apps::RideHailingAppParams app;
  app.workload = p;
  app.matching_parallelism = 8;
  const auto built = apps::build_ride_hailing(app);
  const auto& factory =
      built.topology.ops[static_cast<size_t>(built.matching_op)].bolt_factory;
  // Instances from the app's factory share one ownership table; standalone
  // bolts build their own. The second parallelism asks the shared table
  // for a new bucketing, as an elastic spawn does.
  for (const int parallelism : {8, 3}) {
    size_t total = 0;
    for (int i = 0; i < parallelism; ++i) {
      MatchingBolt standalone(p);
      standalone.prepare(ctx(i, parallelism));
      auto bolt = factory();
      auto* shared = dynamic_cast<MatchingBolt*>(bolt.get());
      ASSERT_NE(shared, nullptr);
      shared->prepare(ctx(i, parallelism));

      const size_t n = standalone.stored_drivers();
      total += n;
      // Roughly 1/parallelism of the drivers each.
      EXPECT_GT(n, 500u / static_cast<size_t>(parallelism));
      EXPECT_LT(n, 2000u / static_cast<size_t>(parallelism));
      EXPECT_EQ(shared->stored_drivers(), n);
      const auto cell = drivers_cell(standalone);
      EXPECT_EQ(drivers_cell(*shared), cell);
      // Every stored driver is one this instance owns.
      ByteReader r(cell);
      const auto entries = elastic::read_keyed_body(r);
      EXPECT_EQ(entries.size(), n);
      for (const auto& e : entries) {
        EXPECT_EQ(e.key % static_cast<uint64_t>(parallelism),
                  static_cast<uint64_t>(i));
      }
    }
    EXPECT_EQ(total, 1000u);  // a partition: no overlap, no loss
  }
}

TEST(RideHailing, OwnershipTableBucketsEveryIdOnce) {
  constexpr int kIds = 20000;
  DriverOwnership owners(kIds);
  for (const int parallelism : {1, 7, 300, 480}) {
    std::vector<int> seen(kIds, 0);
    int misplaced = 0;
    for (int i = 0; i < parallelism; ++i) {
      const auto ids = owners.owned(parallelism, i);
      EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end(),
                                   std::greater_equal<>()),
                ids.end())
          << "ids of instance " << i << " not ascending";
      for (const int32_t id : ids) {
        ASSERT_GE(id, 0);
        ASSERT_LT(id, kIds);
        ++seen[static_cast<size_t>(id)];
        const uint64_t owner = dsps::value_hash(dsps::Value{int64_t{id}}) %
                               static_cast<uint64_t>(parallelism);
        if (owner != static_cast<uint64_t>(i)) ++misplaced;
      }
    }
    EXPECT_EQ(misplaced, 0) << "parallelism " << parallelism;
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), kIds)
        << "parallelism " << parallelism;
  }
  EXPECT_THROW(owners.owned(4, 4), std::invalid_argument);
  EXPECT_THROW(owners.owned(4, -1), std::invalid_argument);
  EXPECT_THROW(owners.owned(0, 0), std::invalid_argument);
}

TEST(RideHailing, MatchingRefusesNonPositiveRadiusByName) {
  for (const double radius : {0.0, -1.0, std::nan("")}) {
    RideHailingParams p;
    p.radius_km = radius;
    try {
      MatchingBolt b(p);
      ADD_FAILURE() << "accepted radius_km " << radius;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("radius_km"), std::string::npos)
          << e.what();
    }
  }
}

// (request, driver, bit pattern of distance_sq), compared bit for bit.
using Match = std::tuple<int64_t, int64_t, uint64_t>;

std::vector<Match> emitted_matches(MatchingBolt& b, int64_t request,
                                   double x, double y) {
  dsps::Tuple t;
  t.values = {dsps::Value{int64_t{kPassengerRequest}}, dsps::Value{request},
              dsps::Value{x}, dsps::Value{y}};
  dsps::Emitter e;
  b.execute(t, e);
  std::vector<Match> out;
  for (auto& [idx, m] : e.take()) {
    out.emplace_back(m.as_int(0), m.as_int(1),
                     std::bit_cast<uint64_t>(m.as_double(2)));
  }
  return out;
}

// Reference join: every driver in id order, same distance expression.
std::vector<Match> full_scan(
    const std::map<int64_t, std::pair<double, double>>& drivers,
    int64_t request, double rx, double ry, double radius) {
  const double r2 = radius * radius;
  std::vector<Match> out;
  for (const auto& [id, pos] : drivers) {
    const double dx = pos.first - rx;
    const double dy = pos.second - ry;
    const double d2 = dx * dx + dy * dy;
    if (d2 <= r2) out.emplace_back(request, id, std::bit_cast<uint64_t>(d2));
  }
  return out;
}

// Seeded property: the grid probe emits exactly what a full scan of the
// same slice emits (same drivers, in id order, d2 bit for bit) for radii
// from 50 m to wider than the city, points on and outside the city's
// edges, drivers moving across cells and back, new ids, and after a
// snapshot/restore round trip.
TEST(RideHailing, GridJoinEqualsFullScan) {
  int on_radius = 0;   // reference matches with d2 == r2 exactly
  int cross_cell = 0;  // reference matches outside the request's own cell
  for (const double radius : {0.05, 0.7, 1.0, 3.0, 150.0}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("radius " + std::to_string(radius) + " seed " +
                   std::to_string(seed));
      Rng rng(seed * 7919 + static_cast<uint64_t>(radius * 100));
      RideHailingParams p;
      p.radius_km = radius;
      p.num_drivers = static_cast<int>(rng.uniform_int(0, 2000));
      const double city = p.city_km;
      MatchingBolt b(p);
      b.prepare(ctx(0, 1));  // preloads every id
      std::map<int64_t, std::pair<double, double>> model;
      auto update = [&](int64_t id, double x, double y) {
        dsps::Tuple t;
        t.values = {dsps::Value{int64_t{kDriverUpdate}}, dsps::Value{id},
                    dsps::Value{x}, dsps::Value{y}};
        dsps::Emitter e;
        b.execute(t, e);
        model[id] = {x, y};
      };
      // The city's edges, just and far outside it, and its interior.
      auto coord = [&] {
        switch (rng.uniform_int(0, 9)) {
          case 0: return 0.0;
          case 1: return city;
          case 2: return rng.uniform(-2 * radius - 1, 0.0);
          case 3: return rng.uniform(city, city + 2 * radius + 1);
          case 4: return rng.uniform(-3 * city, 4 * city);
          default: return rng.uniform(0.0, city);
        }
      };
      auto pick = [&] {
        auto it = model.begin();
        std::advance(it, rng.uniform_int(0, static_cast<int64_t>(
                                                model.size()) - 1));
        return it;
      };
      int64_t next_request = 0;
      int mismatches = 0;
      auto check = [&](MatchingBolt& bolt, double x, double y) {
        const int64_t req = next_request++;
        const auto want = full_scan(model, req, x, y, radius);
        const auto got = emitted_matches(bolt, req, x, y);
        if (got != want && mismatches++ == 0) {
          ADD_FAILURE() << "request at (" << x << ", " << y << ")\n  got  "
                        << testing::PrintToString(got) << "\n  want "
                        << testing::PrintToString(want);
        }
        for (const auto& [r, id, bits] : want) {
          on_radius += std::bit_cast<double>(bits) == radius * radius;
          const auto& [dx, dy] = model.at(id);
          cross_cell += std::floor(dx / radius) != std::floor(x / radius) ||
                        std::floor(dy / radius) != std::floor(y / radius);
        }
      };
      std::vector<std::pair<double, double>> requests;
      auto ask = [&](double x, double y) {
        check(b, x, y);
        requests.emplace_back(x, y);
      };
      auto point = [&] {
        const double x = coord();
        return std::pair{x, coord()};
      };
      // Within 1.5 radii of (x, y) on each axis: near a stored driver most
      // requests match, many across a cell edge.
      auto near = [&](double x, double y) {
        const double nx = x + rng.uniform(-1.5 * radius, 1.5 * radius);
        return std::pair{nx, y + rng.uniform(-1.5 * radius, 1.5 * radius)};
      };

      // Overwrite every preloaded driver so the model knows each position,
      // then insert new ids, some exactly one radius from a request.
      for (int64_t id = 0; id < p.num_drivers; ++id) {
        const auto [x, y] = point();
        update(id, x, y);
      }
      for (int k = 0; k < 20; ++k) {
        const int64_t id = p.num_drivers + rng.uniform_int(0, 100);
        const auto [x, y] = point();
        update(id, x, y);
      }
      const int64_t edge = p.num_drivers + 1000;
      update(edge, radius, 0.0);
      update(edge + 1, 0.0, radius);
      update(edge + 2, city, city - radius);
      update(edge + 3, city + radius, city);
      ask(0.0, 0.0);
      ask(city, city);

      for (int k = 0; k < 300; ++k) {
        const auto [x, y] =
            k % 2 == 0 ? point() : std::apply(near, pick()->second);
        ask(x, y);
      }
      // Drivers move across cells and back.
      for (int k = 0; k < 100; ++k) {
        const auto it = pick();
        const int64_t id = it->first;
        const auto home = it->second;
        const auto [mx, my] = std::apply(near, home);
        update(id, mx, my);
        const auto [ax, ay] = std::apply(near, home);
        ask(ax, ay);
        update(id, home.first, home.second);
        const auto [bx, by] = std::apply(near, home);
        ask(bx, by);
      }

      // A restore rebuilds the table and the index from the keyed cell.
      state::StateStore store;
      b.register_state(store);
      const auto snap = store.snapshot();
      MatchingBolt restored(p);
      restored.prepare(ctx(0, 3));
      state::StateStore restored_store;
      restored.register_state(restored_store);
      restored_store.restore(snap);
      EXPECT_EQ(restored.stored_drivers(), model.size());
      EXPECT_EQ(restored_store.snapshot(), snap);
      for (const auto& [x, y] : requests) check(restored, x, y);
      EXPECT_EQ(mismatches, 0);
    }
  }
  EXPECT_GT(on_radius, 0);
  EXPECT_GT(cross_cell, 100);
}

TEST(RideHailing, MatchEmitsOnlyDriversWithinRadius) {
  RideHailingParams p;
  p.num_drivers = 0;  // start empty; insert drivers via the stream
  p.radius_km = 1.0;
  MatchingBolt b(p);
  b.prepare(ctx(0, 1));

  auto driver = [&](int64_t id, double x, double y) {
    dsps::Tuple t;
    t.values = {dsps::Value{int64_t{kDriverUpdate}}, dsps::Value{id},
                dsps::Value{x}, dsps::Value{y}};
    dsps::Emitter e;
    b.execute(t, e);
  };
  driver(1, 10.0, 10.0);  // within 1 km of the request below
  driver(2, 10.5, 10.0);
  driver(3, 20.0, 20.0);  // far away
  EXPECT_EQ(b.stored_drivers(), 3u);

  dsps::Tuple req;
  req.values = {dsps::Value{int64_t{kPassengerRequest}},
                dsps::Value{int64_t{99}}, dsps::Value{10.0},
                dsps::Value{10.1}};
  dsps::Emitter e;
  b.execute(req, e);
  auto& out = e.take();
  ASSERT_EQ(out.size(), 2u);
  for (auto& [idx, m] : out) {
    EXPECT_EQ(m.as_int(0), 99);
    EXPECT_NE(m.as_int(1), 3);
    EXPECT_LE(m.as_double(2), 1.0);  // squared distance <= r^2
  }
}

TEST(RideHailing, MatchCostScalesWithSliceSize) {
  // The modeled join time uses the balanced expected slice
  // num_drivers / parallelism (see MatchingBolt::execute): more
  // parallelism -> smaller slice -> cheaper join, linearly.
  RideHailingParams p;
  p.num_drivers = 8000;
  MatchingBolt small(p), large(p);
  small.prepare(ctx(0, 80));  // expected slice 100
  large.prepare(ctx(0, 8));   // expected slice 1000
  dsps::Tuple req;
  req.values = {dsps::Value{int64_t{kPassengerRequest}},
                dsps::Value{int64_t{1}}, dsps::Value{50.0},
                dsps::Value{50.0}};
  dsps::Emitter e1, e2;
  const Duration c_small = small.execute(req, e1);
  const Duration c_large = large.execute(req, e2);
  EXPECT_GT(c_large, c_small);
  EXPECT_EQ(c_large - c_small, p.match_per_driver_cost * (1000 - 100));
}

TEST(RideHailing, AggregationKeepsBestDriver) {
  RideHailingParams p;
  RideAggregationBolt agg(p);
  auto match = [&](int64_t req, int64_t driver, double d2) {
    dsps::Tuple t;
    t.values = {dsps::Value{req}, dsps::Value{driver}, dsps::Value{d2}};
    dsps::Emitter e;
    agg.execute(t, e);
    EXPECT_TRUE(e.take().empty());  // sink
  };
  match(1, 10, 0.5);
  match(1, 11, 0.2);
  match(1, 12, 0.9);
  match(2, 20, 0.3);
  EXPECT_EQ(agg.decided(), 2u);
}

// --- stock exchange ------------------------------------------------------------

TEST(Stock, SpoutZipfSkew) {
  StockParams p;
  p.num_symbols = 100;
  StockSpout s(p);
  Rng rng(5);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    const auto t = s.next(rng);
    const int64_t sym = t.as_int(0);
    ASSERT_GE(sym, 0);
    ASSERT_LT(sym, 100);
    ++counts[static_cast<size_t>(sym)];
  }
  EXPECT_GT(counts[0], counts[50] * 5);  // heavy head
}

TEST(Stock, SplitFiltersStableFraction) {
  StockParams p;
  SplitBolt split(p, false);
  StockSpout s(p);
  Rng rng(6);
  int forwarded = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    dsps::Emitter e;
    split.execute(s.next(rng), e);
    forwarded += static_cast<int>(e.take().size());
  }
  const double kept = static_cast<double>(forwarded) / n;
  EXPECT_NEAR(kept, 1.0 - p.invalid_fraction, 0.01);
  EXPECT_EQ(split.filtered(), static_cast<uint64_t>(n - forwarded));
}

TEST(Stock, TwoStreamSplitRoutesByType) {
  StockParams p;
  p.invalid_fraction = 0.0;
  SplitBolt split(p, /*two_streams=*/true);
  StockSpout s(p);
  Rng rng(8);
  int buys = 0, sells = 0;
  for (int i = 0; i < 5000; ++i) {
    dsps::Emitter e;
    split.execute(s.next(rng), e);
    for (auto& [stream, t] : e.take()) {
      if (stream == 0) {
        EXPECT_EQ(t.as_int(1), kBuy);
        ++buys;
      } else {
        EXPECT_EQ(stream, 1u);
        EXPECT_EQ(t.as_int(1), kSell);
        ++sells;
      }
    }
  }
  EXPECT_GT(buys, 2000);
  EXPECT_GT(sells, 2000);
}

dsps::Tuple order(int64_t sym, OrderType type, double price, int64_t qty) {
  dsps::Tuple t;
  t.values = {dsps::Value{sym}, dsps::Value{int64_t{type}},
              dsps::Value{price}, dsps::Value{qty}};
  return t;
}

TEST(Stock, MatchingCrossesBuyAndSell) {
  StockParams p;
  StockMatchingBolt b(p);
  b.prepare(ctx(0, 1));  // owns every symbol
  dsps::Emitter e1;
  b.execute(order(7, kSell, 100.0, 10), e1);
  EXPECT_TRUE(e1.take().empty());  // resting sell
  dsps::Emitter e2;
  b.execute(order(7, kBuy, 101.0, 4), e2);  // crosses
  auto& trades = e2.take();
  ASSERT_EQ(trades.size(), 1u);
  EXPECT_EQ(trades[0].second.as_int(0), 7);
  EXPECT_EQ(trades[0].second.as_int(1), 4);
  EXPECT_DOUBLE_EQ(trades[0].second.as_double(2), 100.0);  // resting price
  EXPECT_EQ(b.open_orders(), 1u);  // 6 shares still resting
}

TEST(Stock, NonCrossingPricesRest) {
  StockParams p;
  StockMatchingBolt b(p);
  b.prepare(ctx(0, 1));
  dsps::Emitter e1, e2;
  b.execute(order(7, kSell, 100.0, 10), e1);
  b.execute(order(7, kBuy, 99.0, 10), e2);  // bid below ask
  EXPECT_TRUE(e2.take().empty());
  EXPECT_EQ(b.open_orders(), 2u);
}

TEST(Stock, PartialFillsAcrossMultipleOrders) {
  StockParams p;
  StockMatchingBolt b(p);
  b.prepare(ctx(0, 1));
  dsps::Emitter e;
  b.execute(order(7, kSell, 100.0, 3), e);
  b.execute(order(7, kSell, 100.0, 3), e);
  dsps::Emitter e2;
  b.execute(order(7, kBuy, 100.0, 5), e2);
  auto& trades = e2.take();
  ASSERT_EQ(trades.size(), 2u);  // consumed both resting sells
  EXPECT_EQ(trades[0].second.as_int(1), 3);
  EXPECT_EQ(trades[1].second.as_int(1), 2);
  EXPECT_EQ(b.open_orders(), 1u);  // 1 share left on the second sell
}

TEST(Stock, PerOrderCostsValidationPlusBookForOwner) {
  StockParams p;
  p.num_symbols = 400;
  StockMatchingBolt b(p);
  b.prepare(ctx(0, 4));  // owns symbols where sym % 4 == 0 (100 symbols)
  dsps::Emitter e;
  const Duration owned = b.execute(order(4, kBuy, 50.0, 1), e);
  const Duration foreign = b.execute(order(5, kBuy, 50.0, 1), e);
  const Duration validation =
      p.validation_fixed_cost + p.validation_per_symbol_cost * 100;
  EXPECT_EQ(foreign, validation);
  EXPECT_EQ(owned, validation + p.book_op_cost);
  EXPECT_EQ(b.open_orders(), 1u);  // only the owned order rests
}

TEST(Stock, ValidationCostShrinksWithParallelism) {
  // The per-order validation covers the instance's owned symbol slice, so
  // matching gets cheaper as parallelism spreads the symbols (the stock
  // counterpart of the ride-hailing join slice, Fig. 15's rising curve).
  StockParams p;
  StockMatchingBolt narrow(p), wide(p);
  narrow.prepare(ctx(1, 8));
  wide.prepare(ctx(1, 128));
  dsps::Emitter e;
  const Duration c_narrow = narrow.execute(order(5, kBuy, 10.0, 1), e);
  const Duration c_wide = wide.execute(order(5, kBuy, 10.0, 1), e);
  EXPECT_GT(c_narrow, c_wide);
  EXPECT_EQ(c_narrow - c_wide,
            p.validation_per_symbol_cost *
                (p.num_symbols / 8 - p.num_symbols / 128));
}

TEST(Stock, VolumeAggregationAccumulates) {
  StockParams p;
  VolumeAggregationBolt agg(p);
  auto trade = [&](int64_t sym, int64_t qty, double price) {
    dsps::Tuple t;
    t.values = {dsps::Value{sym}, dsps::Value{qty}, dsps::Value{price}};
    dsps::Emitter e;
    agg.execute(t, e);
  };
  trade(1, 10, 100.0);
  trade(1, 5, 100.0);
  trade(2, 1, 50.0);
  EXPECT_DOUBLE_EQ(agg.total_volume(), 1550.0);
}

// --- state retention bounds --------------------------------------------------
// These pin the workloads' state-size policies so the checkpoint/state-API
// refit cannot silently change what each operator retains.

TEST(RideHailing, DriverTableIsBoundedByIdDomainUpserts) {
  RideHailingParams p;
  p.num_drivers = 0;
  MatchingBolt b(p);
  b.prepare(ctx(0, 1));
  dsps::Emitter e;
  for (int round = 0; round < 5; ++round) {
    for (int64_t id = 0; id < 100; ++id) {
      dsps::Tuple t;
      t.values = {dsps::Value{int64_t{kDriverUpdate}}, dsps::Value{id},
                  dsps::Value{1.0 * round}, dsps::Value{2.0}};
      b.execute(t, e);
    }
  }
  // Updates upsert: the table never exceeds the live driver-id domain.
  EXPECT_EQ(b.stored_drivers(), 100u);
}

TEST(RideHailing, AggregationEvictsAllAboveTwoHundredThousandRequests) {
  RideHailingParams p;
  RideAggregationBolt agg(p);
  dsps::Emitter e;
  auto match = [&](int64_t req) {
    dsps::Tuple t;
    t.values = {dsps::Value{req}, dsps::Value{int64_t{1}},
                dsps::Value{0.5}};
    agg.execute(t, e);
  };
  for (int64_t r = 0; r < 200000; ++r) match(r);
  EXPECT_EQ(agg.decided(), 200000u);  // at the bound: retained
  match(200000);                      // one past: full clear
  EXPECT_EQ(agg.decided(), 0u);
}

TEST(Stock, BookDepthCappedAt1024PerSide) {
  StockParams p;
  StockMatchingBolt b(p);
  b.prepare(ctx(0, 1));
  dsps::Emitter e;
  // Resting sells never cross other sells, so the side only grows until
  // the depth bound starts dropping the oldest order.
  for (int i = 0; i < 1500; ++i) {
    b.execute(order(7, kSell, 100.0, 1), e);
  }
  EXPECT_EQ(b.open_orders(), 1024u);
}

TEST(Stock, VolumeMapEvictsAllAboveOneHundredThousandSymbols) {
  StockParams p;
  VolumeAggregationBolt agg(p);
  dsps::Emitter e;
  auto trade = [&](int64_t sym) {
    dsps::Tuple t;
    t.values = {dsps::Value{sym}, dsps::Value{int64_t{1}},
                dsps::Value{2.0}};
    agg.execute(t, e);
  };
  for (int64_t s = 0; s < 100000; ++s) trade(s);
  EXPECT_EQ(agg.symbols_tracked(), 100000u);  // at the bound: retained
  trade(100000);                              // one past: full clear
  EXPECT_EQ(agg.symbols_tracked(), 0u);
  // The running total survives eviction.
  EXPECT_DOUBLE_EQ(agg.total_volume(), 2.0 * 100001);
}

}  // namespace
}  // namespace whale::workloads
