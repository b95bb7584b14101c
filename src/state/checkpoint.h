// Epoch barriers (DESIGN.md §10): in-band sentinel Tuples (root_id 0 —
// never acked, never tracked — plus a magic first value carrying {epoch,
// src_task}), so they ride every existing transport path unchanged: framed
// once per destination worker, fanned out by the dispatcher, forwarded by
// relays in tree order, kept FIFO with data by the per-channel slicer. No
// new wire message kind exists. The protocol they drive lives in
// core/checkpoints.h.
#pragma once

#include <cstdint>

#include "dsps/tuple.h"

namespace whale::state {

// "WBARRIER" — collides with data only if a tuple's first value is this
// exact int64 AND its root id is 0; engine root ids start at 1.
inline constexpr int64_t kBarrierMagic = 0x5742415252494552LL;

dsps::Tuple make_barrier(uint64_t epoch, int src_task);
bool is_barrier(const dsps::Tuple& t);
uint64_t barrier_epoch(const dsps::Tuple& t);
int barrier_src_task(const dsps::Tuple& t);

}  // namespace whale::state
