// DES kernel tests: event ordering, clock semantics, CPU servers with
// category accounting, throughput resources, and bounded queues.
#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/cpu.h"
#include "sim/queue.h"
#include "sim/resource.h"
#include "sim/simulation.h"

namespace whale::sim {
namespace {

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Simulation, TiesBreakFifo) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, RunUntilAdvancesClockPastLastEvent) {
  Simulation s;
  int fired = 0;
  s.schedule_at(100, [&] { ++fired; });
  s.schedule_at(500, [&] { ++fired; });
  s.run_until(200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 200);
  s.run_until(1000);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 1000);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_after(10, recurse);
  };
  s.schedule_at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 40);
  EXPECT_EQ(s.events_processed(), 5u);
}

TEST(Simulation, MaxEventsGuard) {
  Simulation s;
  std::function<void()> forever = [&] { s.schedule_after(1, forever); };
  s.schedule_at(0, forever);
  s.run(/*max_events=*/100);
  EXPECT_EQ(s.events_processed(), 100u);
}

// The order contract written the plain way: one priority queue over
// (time, seq), with the kernel's clock rules for run_until / run_before.
class ReferenceSim {
 public:
  Time now() const { return now_; }
  void schedule_at(Time t, std::function<void()> fn) {
    queue_.push(Event{t, seq_++, std::move(fn)});
  }
  void run_until(Time t) {
    while (!queue_.empty() && queue_.top().time <= t) pop_and_run();
    if (now_ < t) now_ = t;
  }
  void run_before(Time t) {
    while (!queue_.empty() && queue_.top().time < t) pop_and_run();
    if (now_ < t) now_ = t;
  }

 private:
  struct Event {
    Time time;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return std::tie(a.time, a.seq) > std::tie(b.time, b.seq);
    }
  };
  void pop_and_run() {
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ev.fn();
  }

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  Time now_ = 0;
  uint64_t seq_ = 0;
};

// One seeded script: each round schedules 1-30 events from outside at
// now + {0, 10, 20, 30}, then runs up to a horizon that grows by 0-24,
// alternating run_until and run_before. Every event logs (now, id) and
// schedules 0-3 children at delays from {0, 0, 1, 5, 10, 10}, down to
// depth 4, so the scripts make equal-time bursts, zero-delay children of
// a time's last event, and outside schedules at a clock parked on a
// horizon.
template <typename Sim>
std::vector<std::pair<Time, int>> run_script(uint64_t seed) {
  static constexpr Duration kChildDelay[] = {0, 0, 1, 5, 10, 10};
  static constexpr int kRounds = 40;
  Sim s;
  Rng rng(seed);
  std::vector<std::pair<Time, int>> log;
  int next_id = 0;
  std::function<void(Time, int)> add = [&](Time at, int depth) {
    const int id = next_id++;
    s.schedule_at(at, [&, id, depth] {
      log.emplace_back(s.now(), id);
      if (depth == 4) return;
      for (uint64_t n = rng.next_below(4); n > 0; --n) {
        add(s.now() + kChildDelay[rng.next_below(6)], depth + 1);
      }
    });
  };
  Time horizon = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (uint64_t n = 1 + rng.next_below(30); n > 0; --n) {
      add(s.now() + 10 * static_cast<Time>(rng.next_below(4)), 0);
    }
    horizon += static_cast<Time>(rng.next_below(25));
    if (round % 2 == 0) {
      s.run_until(horizon);
    } else {
      s.run_before(horizon);
    }
  }
  s.run_until(horizon + 1000);  // past every event still pending
  return log;
}

TEST(Simulation, MatchesReferenceOrder) {
  size_t entries = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const auto got = run_script<Simulation>(seed);
    const auto want = run_script<ReferenceSim>(seed);
    ASSERT_EQ(got, want) << "seed " << seed;
    entries += got.size();
  }
  EXPECT_GT(entries, 1'000'000u);
}

TEST(Simulation, ThrowingCallbackKeepsOrder) {
  // The throwing event is popped before it runs: the rest of its time
  // fires in order, and a later zero-delay event queues behind them.
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(7, [&, i] {
      order.push_back(i);
      if (i == 2) throw std::runtime_error("callback failed");
    });
  }
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_EQ(s.now(), 7);
  s.schedule_after(0, [&] { order.push_back(100); });
  s.schedule_at(9, [&] { order.push_back(9); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 100, 9}));
}

// --- CpuServer ---------------------------------------------------------------

TEST(CpuServer, FcfsServiceTimes) {
  Simulation s;
  CpuServer cpu(s, "t");
  std::vector<Time> done;
  cpu.execute(us(10), CpuCategory::kAppLogic, [&] { done.push_back(s.now()); });
  cpu.execute(us(5), CpuCategory::kAppLogic, [&] { done.push_back(s.now()); });
  s.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], us(10));
  EXPECT_EQ(done[1], us(15));  // queued behind the first
  EXPECT_EQ(cpu.busy_time(), us(15));
}

TEST(CpuServer, CategoryAccounting) {
  Simulation s;
  CpuServer cpu(s, "t");
  cpu.execute(us(7), CpuCategory::kSerialization);
  cpu.execute(us(3), CpuCategory::kProtocol);
  cpu.execute(us(2), CpuCategory::kSerialization);
  s.run();
  EXPECT_EQ(cpu.busy_time(CpuCategory::kSerialization), us(9));
  EXPECT_EQ(cpu.busy_time(CpuCategory::kProtocol), us(3));
  EXPECT_EQ(cpu.busy_time(CpuCategory::kAppLogic), 0);
}

TEST(CpuServer, UtilizationWindow) {
  Simulation s;
  CpuServer cpu(s, "t");
  cpu.execute(us(50), CpuCategory::kAppLogic);
  s.run_until(us(100));
  cpu.mark_window();  // window starts at t=100 with 50us accumulated
  cpu.execute(us(30), CpuCategory::kAppLogic);
  s.run_until(us(200));
  EXPECT_NEAR(cpu.utilization(us(100)), 0.3, 1e-9);
}

TEST(CpuServer, WorkSubmittedWhileBusyQueues) {
  Simulation s;
  CpuServer cpu(s, "t");
  int completed = 0;
  cpu.execute(us(10), CpuCategory::kOther, [&] {
    ++completed;
    // Submitted mid-run: must run after, not concurrently.
    EXPECT_FALSE(cpu.busy() && completed == 2);
  });
  s.schedule_at(us(2), [&] {
    EXPECT_TRUE(cpu.busy());
    cpu.execute(us(1), CpuCategory::kOther, [&] { ++completed; });
  });
  s.run();
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(s.now(), us(11));
}

// --- CorePool -------------------------------------------------------------------

TEST(CorePool, ParallelUpToCoreCount) {
  Simulation s;
  CorePool pool(s, 2);
  std::vector<Time> done;
  for (int i = 0; i < 4; ++i) {
    pool.acquire(us(10), [&] { done.push_back(s.now()); });
  }
  s.run();
  ASSERT_EQ(done.size(), 4u);
  // Two run immediately, two wait for a core.
  EXPECT_EQ(done[0], us(10));
  EXPECT_EQ(done[1], us(10));
  EXPECT_EQ(done[2], us(20));
  EXPECT_EQ(done[3], us(20));
  EXPECT_EQ(pool.busy_time(), us(40));
}

TEST(CorePool, ThreadsContendWhenOversubscribed) {
  // 3 single-threaded servers sharing 1 core: total completion time is the
  // serialized sum; with 3 cores they overlap fully.
  for (const int cores : {1, 3}) {
    Simulation s;
    CorePool pool(s, cores);
    std::vector<std::unique_ptr<CpuServer>> threads;
    for (int i = 0; i < 3; ++i) {
      threads.push_back(std::make_unique<CpuServer>(
          s, "t" + std::to_string(i), &pool));
      threads.back()->execute(us(10), CpuCategory::kAppLogic);
    }
    s.run();
    EXPECT_EQ(s.now(), cores == 1 ? us(30) : us(10)) << cores << " cores";
  }
}

TEST(CorePool, ServerStaysFifoThroughPool) {
  Simulation s;
  CorePool pool(s, 1);
  CpuServer a(s, "a", &pool);
  std::vector<int> order;
  a.execute(us(5), CpuCategory::kOther, [&] { order.push_back(1); });
  a.execute(us(5), CpuCategory::kOther, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- ThroughputResource ---------------------------------------------------------

TEST(ThroughputResource, TransferTimeMatchesBandwidth) {
  Simulation s;
  ThroughputResource nic(s, "nic", 1e9);  // 1 Gbps
  // 1250 bytes = 10000 bits -> 10 us at 1 Gbps.
  EXPECT_EQ(nic.transfer_time(1250), us(10));
}

TEST(ThroughputResource, SerializesTransfers) {
  Simulation s;
  ThroughputResource nic(s, "nic", 1e9);
  std::vector<Time> done;
  nic.transfer(1250, [&] { done.push_back(s.now()); });
  nic.transfer(1250, [&] { done.push_back(s.now()); });
  s.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], us(10));
  EXPECT_EQ(done[1], us(20));
  EXPECT_EQ(nic.bytes_transferred(), 2500u);
}

TEST(ThroughputResource, FixedOverheadPerTransfer) {
  Simulation s;
  ThroughputResource nic(s, "nic", 1e9);
  Time done = 0;
  nic.transfer(1250, [&] { done = s.now(); }, us(2));
  s.run();
  EXPECT_EQ(done, us(12));
}

// --- BoundedQueue ---------------------------------------------------------------

TEST(BoundedQueue, CapacityEnforced) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.max_occupancy(), 2u);
}

TEST(BoundedQueue, LvaluePushPreservedOnRejection) {
  BoundedQueue<std::unique_ptr<int>> q(1);
  auto a = std::make_unique<int>(1);
  auto b = std::make_unique<int>(2);
  EXPECT_TRUE(q.try_push(a));
  EXPECT_EQ(a, nullptr);  // moved on success
  EXPECT_FALSE(q.try_push(b));
  ASSERT_NE(b, nullptr);  // untouched on failure
  EXPECT_EQ(*b, 2);
}

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) q.try_push(int(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(*q.try_pop(), i);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, OnItemFiresOnEmptyToNonEmpty) {
  BoundedQueue<int> q(10);
  int wakeups = 0;
  q.set_on_item([&] { ++wakeups; });
  q.try_push(1);
  q.try_push(2);  // still non-empty: no second wakeup
  EXPECT_EQ(wakeups, 1);
  q.try_pop();
  q.try_pop();
  q.try_push(3);
  EXPECT_EQ(wakeups, 2);
}

TEST(BoundedQueue, PopReleasesOneSpaceWaiterFifo) {
  BoundedQueue<int> q(1);
  q.try_push(1);
  std::vector<int> released;
  q.wait_for_space([&] { released.push_back(1); });
  q.wait_for_space([&] { released.push_back(2); });
  q.try_pop();
  EXPECT_EQ(released, (std::vector<int>{1}));
  q.try_pop();  // queue empty; second waiter released on this pop? No item.
  EXPECT_EQ(released, (std::vector<int>{1}));
  q.try_push(9);
  q.try_pop();
  EXPECT_EQ(released, (std::vector<int>{1, 2}));
}

TEST(BoundedQueue, CountersConsistent) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 6; ++i) q.try_push(int(i));
  while (q.try_pop()) {
  }
  EXPECT_EQ(q.pushed(), 4u);
  EXPECT_EQ(q.popped(), 4u);
  EXPECT_EQ(q.rejected(), 2u);
}

}  // namespace
}  // namespace whale::sim
