#include "runtime/batch.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/metrics.hpp"

namespace ccvc::runtime {

BatchAssembler::BatchAssembler(std::size_t max_batch)
    : max_batch_(max_batch), frame_(max_batch, 0) {}

bool BatchAssembler::add(const engine::CenterMsgEncoder& msg,
                         const engine::Stamp& stamp, engine::StampMode mode) {
  frame_.add(msg, stamp, mode);
  return frame_.size() == max_batch_;
}

net::Payload BatchAssembler::flush() {
  const std::size_t n = frame_.size();
  CCVC_CHECK_MSG(n > 0, "nothing to flush");
  // The next frame is sized like this one: a steady stream of
  // broadcasts fills each frame without regrowing it.
  const std::size_t reserve = frame_.bytes();
  net::Payload frame = std::move(frame_).close();
  frame_ = engine::BatchFrame(max_batch_, reserve);
  CCVC_METRIC_COUNT("engine.batch.flushes", 1);
  CCVC_METRIC_COUNT("engine.batch.msgs", n);
  CCVC_METRIC_HIST("engine.batch.occupancy", n);
  CCVC_METRIC_HIST("engine.batch.bytes", frame.size());
  return frame;
}

}  // namespace ccvc::runtime
