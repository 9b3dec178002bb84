// Per-destination egress batch assembly (docs/PROTOCOL.md §2.8).
//
// The transform stage writes every broadcast straight into the
// destination's assembler instead of handing the channel a message: the
// assembler holds one open 0xC5 EgressBatch frame (engine::BatchFrame)
// and appends each stamped message to it in place, in order, so a
// message is never a buffer of its own and its bytes are copied once.
// Flush triggers (docs/THREADING.md):
//  * the max-batch bound — add() reports when the batch is full;
//  * a tick boundary / drain — the pipeline calls flush() explicitly.
//
// Single-writer: only the pipeline's transform stage touches an
// assembler, so there is no locking here.
#pragma once

#include <cstddef>

#include "engine/message.hpp"
#include "net/channel.hpp"

namespace ccvc::runtime {

class BatchAssembler {
 public:
  /// `max_batch` must be in [1, wire::kMaxBatchMsgs] (engine::BatchFrame
  /// throws ContractViolation otherwise).
  explicit BatchAssembler(std::size_t max_batch);

  /// Appends `msg` stamped with `stamp` to the open frame; true when the
  /// batch just reached the max-batch bound (the caller must flush
  /// before adding more).
  bool add(const engine::CenterMsgEncoder& msg, const engine::Stamp& stamp,
           engine::StampMode mode);

  bool empty() const { return frame_.size() == 0; }
  std::size_t size() const { return frame_.size(); }

  /// Closes the open frame, records the engine.batch.* instruments, and
  /// opens the next one.  Never called empty.
  net::Payload flush();

 private:
  std::size_t max_batch_;
  engine::BatchFrame frame_;
};

}  // namespace ccvc::runtime
