// Observability-layer tests (src/obs):
//  - MetricsRegistry counter/gauge semantics and snapshot cadence;
//  - metrics + trace JSON well-formedness (parsed back by a real, if
//    minimal, JSON parser — not substring checks);
//  - trace span nesting follows the tuple path (emit -> serialize ->
//    dispatch -> sink) and recovery episodes appear as named spans;
//  - sampling is deterministic in the root id and the configured stride;
//  - LatencyHistogram quantile error stays within the documented bound and
//    merging split streams equals the unsplit histogram.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace whale {
namespace {

// --- minimal JSON parser (enough for our own dumps) -----------------------

struct Json {
  enum Type { kNull, kBool, kNum, kStr, kArr, kObj };
  Type type = kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& key) const {
    auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      Json v;
      v.type = Json::kStr;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      literal("null");
      return Json{};
    }
    return number();
  }

  void literal(const char* lit) {
    for (const char* p = lit; *p; ++p) expect(*p);
  }

  Json boolean() {
    Json v;
    v.type = Json::kBool;
    if (peek() == 't') {
      literal("true");
      v.b = true;
    } else {
      literal("false");
      v.b = false;
    }
    return v;
  }

  Json number() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    Json v;
    v.type = Json::kNum;
    v.num = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) throw std::runtime_error("unterminated string");
      char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) throw std::runtime_error("bad \\u");
            out += s_.substr(pos_, 4);  // keep raw hex; fidelity is not
            pos_ += 4;                  // needed for these tests
            break;
          }
          default:
            throw std::runtime_error("bad escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json array() {
    expect('[');
    Json v;
    v.type = Json::kArr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      break;
    }
    return v;
  }

  Json object() {
    expect('{');
    Json v;
    v.type = Json::kObj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj[key] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      break;
    }
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

Json parse_json(const std::string& s) { return JsonParser(s).parse(); }

// --- shared engine fixtures ----------------------------------------------

class OneFieldSpout : public dsps::Spout {
 public:
  dsps::Tuple next(Rng&) override {
    dsps::Tuple t;
    t.values.emplace_back(std::string(80, 'x'));
    return t;
  }
};

class ForwardBolt : public dsps::Bolt {
 public:
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override {
    out.emit(t);
    return us(2);
  }
};

class SinkBolt : public dsps::Bolt {
 public:
  Duration execute(const dsps::Tuple&, dsps::Emitter&) override {
    return us(2);
  }
};

// spout -> sink over a shuffle stream: with one task per hop-worker some
// deliveries cross the wire (serialize + dispatch spans exist).
dsps::Topology chain_topo(double rate, int sink_parallelism = 2) {
  dsps::TopologyBuilder b;
  const int s = b.add_spout(
      "s", [] { return std::make_unique<OneFieldSpout>(); }, 1,
      dsps::RateProfile::constant(rate));
  const int k = b.add_bolt(
      "k", [] { return std::make_unique<SinkBolt>(); }, sink_parallelism);
  b.connect(s, k, dsps::Grouping::kShuffle);
  return b.build();
}

dsps::Topology broadcast_topo(double rate, int parallelism) {
  dsps::TopologyBuilder b;
  const int s = b.add_spout(
      "s", [] { return std::make_unique<OneFieldSpout>(); }, 1,
      dsps::RateProfile::constant(rate));
  const int m = b.add_bolt(
      "m", [] { return std::make_unique<SinkBolt>(); }, parallelism);
  b.connect(s, m, dsps::Grouping::kAll);
  return b.build();
}

core::EngineConfig obs_cfg(int nodes, core::SystemVariant v) {
  core::EngineConfig c;
  c.cluster.num_nodes = nodes;
  c.variant = v;
  c.seed = 17;
  return c;
}

// --- MetricsRegistry ------------------------------------------------------

TEST(Metrics, CounterFindOrCreateIsStable) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.counter("a");
  obs::Counter* b = reg.counter("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, reg.counter("a"));  // find, not create
  a->inc();
  a->inc(4);
  EXPECT_EQ(a->value(), 5u);
  a->set(2);
  EXPECT_EQ(a->value(), 2u);
  EXPECT_EQ(reg.find_counter("a")->value(), 2u);
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
}

TEST(Metrics, SnapshotSamplesCountersAndGauges) {
  obs::MetricsRegistry reg;
  reg.configure(true, ms(10));
  obs::Counter* c = reg.counter("c");
  double g = 1.5;
  reg.gauge("g", [&g] { return g; });

  reg.snapshot(0);
  c->inc(7);
  g = 3.0;
  reg.snapshot(ms(10));
  c->inc(1);
  reg.snapshot(ms(20));

  ASSERT_EQ(reg.num_snapshots(), 3u);
  EXPECT_EQ(reg.snapshot_time(0), 0);
  EXPECT_EQ(reg.snapshot_time(2), ms(20));

  const auto* cs = reg.series("c");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(*cs, (std::vector<double>{0.0, 7.0, 8.0}));
  const auto* gs = reg.series("g");
  ASSERT_NE(gs, nullptr);
  EXPECT_EQ(*gs, (std::vector<double>{1.5, 3.0, 3.0}));
  EXPECT_EQ(reg.series("missing"), nullptr);
}

TEST(Metrics, JsonParsesBackWithFullSchema) {
  obs::MetricsRegistry reg;
  reg.configure(true, ms(5));
  obs::Counter* c = reg.counter("obs.count \"quoted\"");  // escaping
  reg.gauge("queue.depth", [] { return 2.5; });
  auto* h = reg.histogram("lat");
  h->add(us(10));
  h->add(us(20));
  reg.snapshot(0);
  c->inc(3);
  reg.snapshot(ms(5));

  const Json j = parse_json(reg.to_json());
  ASSERT_EQ(j.type, Json::kObj);
  EXPECT_EQ(j.at("snapshot_interval_ns").num, static_cast<double>(ms(5)));
  const Json& times = j.at("times_ns");
  ASSERT_EQ(times.type, Json::kArr);
  ASSERT_EQ(times.arr.size(), 2u);
  EXPECT_EQ(times.arr[1].num, static_cast<double>(ms(5)));

  const Json& series = j.at("series");
  ASSERT_EQ(series.type, Json::kObj);
  ASSERT_TRUE(series.has("queue.depth"));
  ASSERT_EQ(series.at("queue.depth").arr.size(), 2u);
  EXPECT_EQ(series.at("queue.depth").arr[0].num, 2.5);
  ASSERT_TRUE(series.has("obs.count \"quoted\""));
  EXPECT_EQ(series.at("obs.count \"quoted\"").arr[1].num, 3.0);

  const Json& finals = j.at("counters_final");
  EXPECT_EQ(finals.at("obs.count \"quoted\"").num, 3.0);

  const Json& hists = j.at("histograms");
  ASSERT_EQ(hists.type, Json::kArr);
  ASSERT_EQ(hists.arr.size(), 1u);
  EXPECT_EQ(hists.arr[0].at("name").str, "lat");
  EXPECT_EQ(hists.arr[0].at("count").num, 2.0);
  EXPECT_GT(hists.arr[0].at("p99_ns").num, 0.0);
}

// --- Tracer ---------------------------------------------------------------

TEST(Trace, SamplingIsDeterministicInRootAndStride) {
  obs::Tracer t;
  t.configure(true, 4, 1000);
  EXPECT_FALSE(t.sampled(0));  // control sentinel, never sampled
  EXPECT_TRUE(t.sampled(4));
  EXPECT_TRUE(t.sampled(40));
  EXPECT_FALSE(t.sampled(5));
  EXPECT_FALSE(t.sampled(42));

  obs::Tracer off;
  off.configure(false, 1, 1000);
  EXPECT_FALSE(off.sampled(4));

  obs::Tracer zero_stride;
  zero_stride.configure(true, 0, 1000);  // clamped to 1
  EXPECT_TRUE(zero_stride.sampled(1));
}

TEST(Trace, MaxEventsCapCountsDrops) {
  obs::Tracer t;
  t.configure(true, 1, 10);
  for (int i = 0; i < 15; ++i) {
    t.complete("x", "app", 0, 0, i, 1, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(t.events().size(), 10u);
  EXPECT_EQ(t.dropped(), 5u);
}

TEST(Trace, JsonParsesBackAsChromeTraceEvents) {
  obs::Tracer t;
  t.configure(true, 1, 100);
  t.complete("serialize", "app", 3, obs::kLaneApp, us(1), us(2), 42, "bytes",
             128.0);
  t.instant("fault.crash", "fault", 5, obs::kLaneControl, ms(1));

  const Json j = parse_json(t.to_json());
  const Json& evs = j.at("traceEvents");
  ASSERT_EQ(evs.type, Json::kArr);
  ASSERT_EQ(evs.arr.size(), 2u);

  const Json& sp = evs.arr[0];
  EXPECT_EQ(sp.at("name").str, "serialize");
  EXPECT_EQ(sp.at("cat").str, "app");
  EXPECT_EQ(sp.at("ph").str, "X");
  EXPECT_DOUBLE_EQ(sp.at("ts").num, 1.0);   // us
  EXPECT_DOUBLE_EQ(sp.at("dur").num, 2.0);  // us
  EXPECT_EQ(sp.at("pid").num, 3.0);
  EXPECT_EQ(sp.at("tid").num, static_cast<double>(obs::kLaneApp));
  EXPECT_EQ(sp.at("id").str, "42");
  EXPECT_EQ(sp.at("args").at("root").num, 42.0);
  EXPECT_EQ(sp.at("args").at("bytes").num, 128.0);

  const Json& in = evs.arr[1];
  EXPECT_EQ(in.at("ph").str, "i");
  EXPECT_EQ(in.at("s").str, "t");
  EXPECT_DOUBLE_EQ(in.at("ts").num, 1000.0);
  EXPECT_FALSE(in.has("dur"));
}

// --- engine integration ---------------------------------------------------

TEST(ObsEngine, DisabledByDefaultRecordsNothing) {
  core::EngineConfig c = obs_cfg(2, core::SystemVariant::Whale());
  core::Engine e(c, chain_topo(2000.0));
  e.run(ms(20), ms(80));
  EXPECT_EQ(e.metrics().num_snapshots(), 0u);
  EXPECT_TRUE(e.tracer().events().empty());
}

TEST(ObsEngine, TracingSchedulesZeroExtraEvents) {
  core::EngineConfig c = obs_cfg(2, core::SystemVariant::Whale());
  core::Engine base(c, chain_topo(2000.0));
  const uint64_t base_events = [&] {
    base.run(ms(20), ms(80));
    return base.simulation().events_processed();
  }();

  c.obs.tracing_enabled = true;
  core::Engine traced(c, chain_topo(2000.0));
  traced.run(ms(20), ms(80));
  EXPECT_EQ(traced.simulation().events_processed(), base_events);
  EXPECT_FALSE(traced.tracer().events().empty());
}

TEST(ObsEngine, SnapshotCadenceFollowsSimulatedTime) {
  core::EngineConfig c = obs_cfg(2, core::SystemVariant::Whale());
  c.obs.metrics_enabled = true;
  c.obs.snapshot_interval = ms(10);
  core::Engine e(c, chain_topo(2000.0));
  e.run(ms(40), ms(160));  // window ends at 200ms

  auto& reg = e.metrics();
  ASSERT_GE(reg.num_snapshots(), 20u);
  for (size_t i = 1; i < reg.num_snapshots(); ++i) {
    EXPECT_EQ(reg.snapshot_time(i) - reg.snapshot_time(i - 1), ms(10)) << i;
  }
  // The queue-depth telemetry promised by the design doc exists and has one
  // sample per snapshot.
  for (const char* name : {"src.in_queue", "src.transfer_queue",
                           "worker0.transfer_queue", "task0.in_queue",
                           "acker.pending"}) {
    const auto* s = reg.series(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->size(), reg.num_snapshots()) << name;
  }
  EXPECT_GT(reg.find_counter("obs.roots_emitted")->value(), 0u);
  EXPECT_GT(reg.find_counter("obs.sink_completions")->value(), 0u);
}

TEST(ObsEngine, SpanNestingFollowsTuplePath) {
  core::EngineConfig c = obs_cfg(2, core::SystemVariant::Storm());
  c.obs.tracing_enabled = true;
  core::Engine e(c, chain_topo(1500.0));
  e.run(ms(20), ms(80));

  struct PerRoot {
    const obs::TraceEvent* emit = nullptr;
    const obs::TraceEvent* serialize = nullptr;
    const obs::TraceEvent* dispatch = nullptr;
    const obs::TraceEvent* sink = nullptr;
  };
  std::map<uint64_t, PerRoot> roots;
  for (const auto& ev : e.tracer().events()) {
    if (ev.id == 0) continue;
    auto& r = roots[ev.id];
    const std::string name = ev.name;
    if (name == "spout.emit" && !r.emit) r.emit = &ev;
    if (name == "serialize" && !r.serialize) r.serialize = &ev;
    if (name == "dispatch" && !r.dispatch) r.dispatch = &ev;
    if (name == "sink" && !r.sink) r.sink = &ev;
  }

  // At least one root crossed the wire end to end.
  int complete_chains = 0;
  for (const auto& [id, r] : roots) {
    if (!(r.emit && r.serialize && r.dispatch && r.sink)) continue;
    ++complete_chains;
    // Causal order along the lifecycle: emit precedes serialization on the
    // source, which completes before the receive-side dispatch starts,
    // which completes before the sink's execute span starts.
    EXPECT_LE(r.emit->ts, r.serialize->ts) << id;
    EXPECT_LE(r.serialize->ts + r.serialize->dur, r.dispatch->ts) << id;
    EXPECT_LE(r.dispatch->ts + r.dispatch->dur, r.sink->ts) << id;
    // Lanes and lifecycles: send-side spans carry the source pid, the
    // dispatch span the receiving worker's.
    EXPECT_EQ(r.emit->pid, r.serialize->pid) << id;
    EXPECT_EQ(r.dispatch->pid, r.sink->pid) << id;
    EXPECT_NE(r.serialize->pid, r.dispatch->pid) << id;
  }
  EXPECT_GT(complete_chains, 10);
}

TEST(ObsEngine, StrideSamplesOnlyMatchingRoots) {
  core::EngineConfig c = obs_cfg(2, core::SystemVariant::Storm());
  c.obs.tracing_enabled = true;
  c.obs.trace_sample_stride = 4;
  core::Engine e(c, chain_topo(1500.0));
  e.run(ms(20), ms(80));

  size_t sampled_events = 0;
  for (const auto& ev : e.tracer().events()) {
    if (ev.id == 0) continue;  // control/fault events ride along
    EXPECT_EQ(ev.id % 4, 0u) << ev.name;
    ++sampled_events;
  }
  EXPECT_GT(sampled_events, 0u);
}

TEST(ObsEngine, TraceIsDeterministicAcrossRuns) {
  core::EngineConfig c = obs_cfg(3, core::SystemVariant::Whale());
  c.obs.tracing_enabled = true;
  auto run_once = [&c] {
    core::Engine e(c, broadcast_topo(1000.0, 6));
    e.run(ms(20), ms(80));
    return e.tracer().events();  // copy
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_STREQ(a[i].name, b[i].name) << i;
    EXPECT_EQ(a[i].ts, b[i].ts) << i;
    EXPECT_EQ(a[i].dur, b[i].dur) << i;
    EXPECT_EQ(a[i].pid, b[i].pid) << i;
    EXPECT_EQ(a[i].tid, b[i].tid) << i;
    EXPECT_EQ(a[i].id, b[i].id) << i;
  }
}

TEST(ObsEngine, RecoveryEpisodeAppearsAsNamedSpans) {
  // A crashed relay in a d*=1 chain tree: the fault instant, the structural
  // tree patch, and the repair episode span must all land in the trace.
  core::EngineConfig c = obs_cfg(6, core::SystemVariant::Whale());
  c.initial_dstar = 1;
  c.self_adjust = false;
  c.obs.tracing_enabled = true;
  c.faults.crash(/*node=*/2, /*at=*/ms(300));
  core::Engine e(c, broadcast_topo(500.0, 12));
  e.run(ms(100), ms(700));

  bool saw_crash = false, saw_patch = false, saw_episode = false;
  for (const auto& ev : e.tracer().events()) {
    const std::string name = ev.name;
    if (name == "fault.crash" && ev.ph == 'i') {
      saw_crash = true;
      EXPECT_EQ(ev.pid, 2);
      EXPECT_EQ(ev.ts, ms(300));
    }
    if (name == "repair" && ev.ph == 'i') saw_patch = true;
    if (name == "mcast.repair" && ev.ph == 'X') {
      saw_episode = true;
      EXPECT_GE(ev.dur, c.switch_connection_setup);
      EXPECT_EQ(ev.tid, obs::kLaneControl);
    }
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_patch);
  EXPECT_TRUE(saw_episode);
}

// --- LatencyHistogram accuracy (documented in common/stats.h) -------------

TEST(Histogram, QuantileErrorWithinDocumentedBound) {
  Rng rng(0xBadCafe);
  std::vector<Duration> samples;
  LatencyHistogram h;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform across ~9 octaves: exercises sub-bucket resolution at
    // every scale, not just one octave.
    const double e = rng.uniform(4.0, 31.0);
    const Duration d = static_cast<Duration>(std::pow(2.0, e));
    samples.push_back(d);
    h.add(d);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    const auto target = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const Duration exact = samples[target - 1];  // rank-target sample
    const Duration est = h.quantile(q);
    // quantile() reports the enclosing bucket's upper bound: never an
    // underestimate, and at most ~9% over (1/16-octave buckets -> 6.25%
    // worst-case width; the doc's ~9% leaves headroom).
    EXPECT_GE(est, exact) << "q=" << q;
    EXPECT_LE(static_cast<double>(est), static_cast<double>(exact) * 1.09)
        << "q=" << q;
  }
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.max(), samples.back());
}

TEST(Histogram, MergeOfSplitStreamsEqualsUnsplit) {
  Rng rng(0x5eed);
  LatencyHistogram whole, parts[3];
  for (int i = 0; i < 5000; ++i) {
    const Duration d = static_cast<Duration>(rng.next_below(1u << 28));
    whole.add(d);
    parts[i % 3].add(d);
  }
  LatencyHistogram merged;
  for (auto& p : parts) merged.merge(p);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.max(), whole.max());
  EXPECT_DOUBLE_EQ(merged.mean_ns(), whole.mean_ns());
  for (const double q : {0.01, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0}) {
    EXPECT_EQ(merged.quantile(q), whole.quantile(q)) << q;
  }
}

}  // namespace
}  // namespace whale
