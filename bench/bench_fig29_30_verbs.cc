// Figures 29/30 — raw RDMA verb comparison on a single channel:
// one-sided (READ, WRITE) vs two-sided (SEND/RECV) throughput and average
// latency.
//
// Paper: one-sided beats two-sided; among one-sided, READ has higher
// throughput and lower average latency than WRITE (the ring memory region
// lets the consumer batch sequential READs).
#include <cstdio>

#include "net/fabric.h"
#include "rdma/verbs.h"
#include "sim/cpu.h"
#include "sim/simulation.h"
#include "bench/bench_util.h"

using namespace whale;

namespace {

struct VerbResult {
  double msgs_per_sec;
  double avg_latency_us;
};

VerbResult run_verb(rdma::Verb verb, uint64_t msg_bytes, double rate_tps,
                    Duration duration) {
  sim::Simulation sim;
  net::ClusterSpec spec;
  spec.num_nodes = 2;
  net::Fabric fabric(sim, spec);
  net::CostModel cost;
  sim::CpuServer cpu_a(sim, "a"), cpu_b(sim, "b");
  rdma::QueuePair qp(fabric, cost, verb, rdma::QpConfig{},
                     rdma::QpEndpoint{0, &cpu_a}, rdma::QpEndpoint{1, &cpu_b});

  uint64_t delivered = 0;
  double latency_sum_ns = 0;
  qp.set_recv_handler([&](rdma::Packet p) {
    ++delivered;
    latency_sum_ns += static_cast<double>(sim.now() - p.created);
  });

  Rng rng(1);
  auto payload = std::make_shared<const std::vector<uint8_t>>(msg_bytes, 1);
  std::function<void()> arrive = [&] {
    rdma::Bundle b;
    b.push_back(rdma::Packet{payload, sim.now(), delivered});
    if (!qp.transmit(b)) {
      // READ-mode ring full: retry when space frees (counts as queueing
      // latency because `created` was already stamped).
      auto owned = std::make_shared<rdma::Bundle>(std::move(b));
      auto retry = std::make_shared<std::function<void()>>();
      *retry = [&qp, owned, retry] {
        if (!qp.transmit(*owned)) qp.wait_for_space([retry] { (*retry)(); });
      };
      qp.wait_for_space([retry] { (*retry)(); });
    }
    sim.schedule_after(from_seconds(rng.exponential(rate_tps)), arrive);
  };
  sim.schedule_after(0, arrive);
  sim.run_until(duration);

  VerbResult res;
  res.msgs_per_sec = static_cast<double>(delivered) / to_seconds(duration);
  res.avg_latency_us =
      delivered ? latency_sum_ns / static_cast<double>(delivered) / 1e3 : 0;
  return res;
}

}  // namespace

int main() {
  bench::header("Figs. 29/30 — RDMA verb comparison (single channel)",
                "one-sided > two-sided; READ has the highest throughput "
                "and lowest average latency");

  const uint64_t msg = 1024;
  bench::row({"verb", "offered_msgs_s", "delivered_msgs_s",
              "avg_latency_us"});
  // The verbs separate at high message rates: two-sided saturates the
  // receiver CPU (~500k msg/s at 2us per completion), WRITE saturates the
  // poster (~650k at 1.5us per work request), while READ's ring lets the
  // consumer batch-fetch with no per-message CPU on either side.
  for (double rate : {50000.0, 400000.0, 800000.0, 1500000.0}) {
    for (const auto verb :
         {rdma::Verb::kSendRecv, rdma::Verb::kWrite, rdma::Verb::kRead}) {
      const auto r = run_verb(verb, msg, rate, ms(500));
      bench::row({rdma::to_string(verb), bench::fmt_tps(rate),
                  bench::fmt_tps(r.msgs_per_sec),
                  bench::fmt(r.avg_latency_us, 2)});
    }
  }
  return 0;
}
