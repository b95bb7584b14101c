#include "state/checkpoint.h"

namespace whale::state {

dsps::Tuple make_barrier(uint64_t epoch, int src_task) {
  dsps::Tuple t;
  t.values.reserve(3);
  t.values.emplace_back(kBarrierMagic);
  t.values.emplace_back(static_cast<int64_t>(epoch));
  t.values.emplace_back(static_cast<int64_t>(src_task));
  t.root_id = 0;  // the acker never tracks root 0
  return t;
}

bool is_barrier(const dsps::Tuple& t) {
  if (t.root_id != 0 || t.values.size() != 3) return false;
  const auto* tag = std::get_if<int64_t>(&t.values[0]);
  return tag != nullptr && *tag == kBarrierMagic;
}

uint64_t barrier_epoch(const dsps::Tuple& t) {
  return static_cast<uint64_t>(t.as_int(1));
}

int barrier_src_task(const dsps::Tuple& t) {
  return static_cast<int>(t.as_int(2));
}

}  // namespace whale::state
