#include "apps/ride_hailing_app.h"

#include <memory>

namespace whale::apps {

BuiltApp build_ride_hailing(const RideHailingAppParams& p) {
  dsps::TopologyBuilder b;
  const auto wl = p.workload;
  const int drivers = b.add_spout(
      "driver-locations",
      [wl] { return std::make_unique<workloads::DriverLocationSpout>(wl); },
      p.driver_spout_parallelism, p.driver_rate);
  const int requests = b.add_spout(
      "passenger-requests",
      [wl] { return std::make_unique<workloads::PassengerRequestSpout>(wl); },
      /*parallelism=*/1, p.request_rate);
  // One ownership table for every matching instance, elastic spawns too.
  auto owners = std::make_shared<workloads::DriverOwnership>(wl.num_drivers);
  const int matching = b.add_bolt(
      "matching",
      [wl, owners] {
        return std::make_unique<workloads::MatchingBolt>(wl, owners);
      },
      p.matching_parallelism);
  const int aggregation = b.add_bolt(
      "aggregation",
      [wl] { return std::make_unique<workloads::RideAggregationBolt>(wl); },
      p.aggregation_parallelism);

  // Driver locations are key-grouped by driver id (tuple field 1).
  b.connect(drivers, matching, dsps::Grouping::kFields, /*key_field=*/1);
  // Passenger requests are broadcast to every matching instance.
  const int all_stream = b.connect(requests, matching, dsps::Grouping::kAll);
  // Match results are key-grouped by request id towards the sink.
  b.connect(matching, aggregation, dsps::Grouping::kFields, /*key_field=*/0);

  BuiltApp app;
  app.topology = b.build();
  app.all_grouped_stream = all_stream;
  app.matching_op = matching;
  app.sink_op = aggregation;
  return app;
}

}  // namespace whale::apps
