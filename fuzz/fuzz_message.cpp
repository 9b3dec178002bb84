// Fuzz target: engine::Message decode — the full star-protocol wire
// surface (client, center and leave messages, in both stamp modes).
//
// Malformed input must be rejected by DecodeError or ContractViolation;
// accepted input must re-encode deterministically: one decode→encode
// pass normalizes the op list (coalesce/decompose), after which
// decode→encode is a byte-identical fixed point.  An accepted center
// message written straight into a 0xC5 frame (CenterMsgEncoder +
// BatchFrame, the notifier pipeline's path) must equal the reference
// encode_batch over its encoded bytes, with the header written into
// its room directly and after the count-varint shift alike.
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/message.hpp"
#include "fuzz_common.hpp"
#include "util/check.hpp"
#include "util/varint.hpp"
#include "wire/schema.hpp"

using ccvc::ContractViolation;
using ccvc::engine::CenterMsg;
using ccvc::engine::ClientMsg;
using ccvc::engine::StampMode;
using ccvc::util::DecodeError;

namespace {

const StampMode kModes[] = {StampMode::kCompressed, StampMode::kFullVector};

void fuzz_client(const ccvc::net::Payload& bytes) {
  for (const StampMode mode : kModes) {
    ClientMsg msg;
    try {
      msg = ccvc::engine::decode_client_msg(bytes, mode);
    } catch (const DecodeError&) {
      continue;
    } catch (const ContractViolation&) {
      continue;
    }
    // encode normalizes the op list (coalesce on the way out, decompose
    // on the way in), so one round trip reaches a byte-identical fixed
    // point; identity and document effect survive the normalization.
    const ccvc::net::Payload pass1 = ccvc::engine::encode(msg, mode);
    const ClientMsg msg2 = ccvc::engine::decode_client_msg(pass1, mode);
    const ccvc::net::Payload pass2 = ccvc::engine::encode(msg2, mode);
    CCVC_FUZZ_REQUIRE(pass1 == pass2);
    CCVC_FUZZ_REQUIRE(msg2.id == msg.id);
    CCVC_FUZZ_REQUIRE(ccvc::ot::size_delta(msg2.ops) ==
                      ccvc::ot::size_delta(msg.ops));
    CCVC_FUZZ_REQUIRE(ccvc::engine::stamp_wire_size(msg2.stamp, mode) ==
                      ccvc::engine::stamp_wire_size(msg.stamp, mode));
  }
}

void fuzz_center(const ccvc::net::Payload& bytes) {
  for (const StampMode mode : kModes) {
    CenterMsg msg;
    try {
      msg = ccvc::engine::decode_center_msg(bytes, mode);
    } catch (const DecodeError&) {
      continue;
    } catch (const ContractViolation&) {
      continue;
    }
    const ccvc::net::Payload pass1 = ccvc::engine::encode(msg, mode);
    const CenterMsg msg2 = ccvc::engine::decode_center_msg(pass1, mode);
    const ccvc::net::Payload pass2 = ccvc::engine::encode(msg2, mode);
    CCVC_FUZZ_REQUIRE(pass1 == pass2);
    CCVC_FUZZ_REQUIRE(msg2.id == msg.id);
    CCVC_FUZZ_REQUIRE(ccvc::ot::size_delta(msg2.ops) ==
                      ccvc::ot::size_delta(msg.ops));

    const ccvc::net::Payload reference = ccvc::engine::encode_batch({pass1});
    const ccvc::engine::CenterMsgEncoder encoder(msg.id, msg.ops);
    for (const std::size_t max_msgs : {std::size_t{1},
                                       ccvc::wire::kMaxBatchMsgs}) {
      ccvc::engine::BatchFrame frame(max_msgs, 0);
      frame.add(encoder, msg.stamp, mode);
      CCVC_FUZZ_REQUIRE(std::move(frame).close() == reference);
    }
  }
}

void fuzz_leave(const ccvc::net::Payload& bytes) {
  if (!ccvc::engine::is_leave_msg(bytes)) return;
  try {
    const ccvc::SiteId site = ccvc::engine::decode_leave(bytes);
    const ccvc::net::Payload re = ccvc::engine::encode_leave(site);
    CCVC_FUZZ_REQUIRE(ccvc::engine::decode_leave(re) == site);
  } catch (const DecodeError&) {
  } catch (const ContractViolation&) {
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const ccvc::net::Payload bytes(data, data + size);
  fuzz_client(bytes);
  fuzz_center(bytes);
  fuzz_leave(bytes);
  return 0;
}
