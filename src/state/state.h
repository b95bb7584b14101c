// Checkpointing & state management configuration (DESIGN.md §10).
//
// Mirrors the obs layer's zero-overhead contract: the subsystem is disabled
// by default, and with checkpointing off the engine schedules zero extra
// events and counts nothing, so the behavioural fingerprints stay
// bit-identical to the committed baseline.
#pragma once

#include "common/time.h"

namespace whale::state {

// Knobs for the checkpoint protocol and the simulated persistent store.
// Lives here (header-only) so core/config.h can embed it without a link
// dependency on whale_state.
struct StateConfig {
  // Master switch. Off = no barriers, no snapshots, no recovery changes.
  // On, a node restart restores the last committed epoch and rewinds the
  // spouts to its source offsets; the acker's timeout replay is off.
  bool enabled = false;

  // Interval between epoch barrier injections at the spouts. Also the
  // alignment-stall bound: an epoch that has not committed by the next
  // tick is aborted, so alignment can never wedge the pipeline for more
  // than one interval.
  Duration checkpoint_interval = ms(100);

  // Fixed latency of a snapshot write to the local persistent store
  // (think NVMe + fsync; bandwidths are CheckpointStore constants).
  // Writes are charged asynchronously — the executor only pays
  // serialization CPU.
  Duration store_write_latency = us(200);

  // --- remote checkpoint-store medium (DESIGN.md §12) ----------------------
  // When true, snapshots go to RDMA-registered memory on a dedicated
  // state-host node appended to the fabric, via one-sided WRITEs (zero
  // receiver CPU); recovery reads the committed images back with
  // one-sided READs. The local persistent-store timing above is bypassed.
  bool remote = false;
  // Incremental/differential snapshots: only pages of dirty cells cross
  // the wire (StateStore::snapshot_delta). Requires `remote` — the local
  // store path always writes full images.
  bool incremental = false;
  // Flink-style unaligned barriers: snapshot at the FIRST barrier of an
  // epoch and keep processing; tuples arriving on not-yet-fenced channels
  // are captured as channel state (and re-injected at recovery) instead
  // of stalling the executor for alignment.
  bool unaligned = false;
};

// Modeled time to push `bytes` through the store at `gbps` plus fixed
// latency. Used for both snapshot writes and recovery reads.
inline Duration store_transfer_time(uint64_t bytes, double gbps,
                                    Duration latency) {
  const double secs =
      gbps > 0 ? static_cast<double>(bytes) / (gbps * 1e9) : 0.0;
  return latency + from_seconds(secs);
}

}  // namespace whale::state
