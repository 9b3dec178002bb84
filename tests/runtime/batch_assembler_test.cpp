// The pipeline's 0xC5 frame writer against the reference encoder: every
// frame a BatchAssembler writes in place must equal encode_batch over the
// same messages, each stamped into its own buffer, byte for byte.  The
// max_batch values straddle the count varint's 1-/2-byte boundary
// (127/128), so a residue below 128 in a frame opened for 128 or more
// takes the one-byte header shift; the other cases write the header
// straight into its room.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/message.hpp"
#include "ot/text_op.hpp"
#include "runtime/batch.hpp"
#include "util/check.hpp"
#include "wire/schema.hpp"

namespace ccvc {
namespace {

using engine::CenterMsgEncoder;
using engine::Stamp;
using engine::StampMode;

/// Message i of a stream: one of three O' shapes (an insert, a
/// multi-primitive delete run that coalesces, a long insert whose entry
/// length takes a 2-byte varint) with a stamp whose varints grow from 1
/// to several bytes as i grows.
struct Stream {
  std::vector<CenterMsgEncoder> encoders;
  StampMode mode;

  explicit Stream(StampMode m) : mode(m) {
    encoders.emplace_back(OpId{1, 1}, ot::make_insert(0, "ab", 1));
    encoders.emplace_back(OpId{2, 300}, ot::make_delete(3, 4, 2));
    encoders.emplace_back(OpId{70000, 9},
                          ot::make_insert(5, std::string(200, 'q'), 70000));
  }

  const CenterMsgEncoder& msg(std::size_t i) const {
    return encoders[i % encoders.size()];
  }

  Stamp stamp(std::size_t i) const {
    Stamp s;
    s.csv = clocks::CompressedSv{i * 97, i * i * 131};
    if (mode == StampMode::kFullVector) {
      std::vector<std::uint64_t> v;
      for (std::uint64_t k = 0; k < 5; ++k) v.push_back(i * (k + 1) * 41);
      s.full = clocks::VersionVector(std::move(v));
    }
    return s;
  }
};

constexpr std::size_t kMaxBatches[] = {1, 16, 127, 128, 256};
constexpr std::size_t kResidues[] = {1, 127, 128, 256};

void expect_frames_match(StampMode mode) {
  const Stream stream(mode);
  for (const std::size_t max_batch : kMaxBatches) {
    runtime::BatchAssembler assembler(max_batch);
    for (const std::size_t residue : kResidues) {
      if (residue > max_batch) continue;
      SCOPED_TRACE("max_batch " + std::to_string(max_batch) + ", residue " +
                   std::to_string(residue));
      // Two frames in a row: the second is written into the frame the
      // first flush reopened, sized from the first.
      for (int round = 0; round < 2; ++round) {
        std::vector<net::Payload> reference;
        for (std::size_t i = 0; i < residue; ++i) {
          const std::size_t k = i + static_cast<std::size_t>(round) * 1000;
          const bool full = assembler.add(stream.msg(k), stream.stamp(k), mode);
          EXPECT_EQ(full, i + 1 == max_batch);
          reference.push_back(stream.msg(k).stamped(stream.stamp(k), mode));
        }
        ASSERT_EQ(assembler.size(), residue);
        EXPECT_EQ(assembler.flush(), engine::encode_batch(reference));
        EXPECT_TRUE(assembler.empty());
      }
    }
  }
}

TEST(BatchFrame, AssemblerMatchesEncodeBatchCompressed) {
  expect_frames_match(StampMode::kCompressed);
}

TEST(BatchFrame, AssemblerMatchesEncodeBatchFullVector) {
  expect_frames_match(StampMode::kFullVector);
}

TEST(BatchFrame, FullAssemblerRejectsAnotherMessage) {
  const Stream stream(StampMode::kCompressed);
  runtime::BatchAssembler assembler(2);
  EXPECT_FALSE(assembler.add(stream.msg(0), stream.stamp(0),
                             StampMode::kCompressed));
  EXPECT_TRUE(assembler.add(stream.msg(1), stream.stamp(1),
                            StampMode::kCompressed));
  EXPECT_THROW(assembler.add(stream.msg(2), stream.stamp(2),
                             StampMode::kCompressed),
               ContractViolation);
  EXPECT_THROW(runtime::BatchAssembler(0), ContractViolation);
  EXPECT_THROW(runtime::BatchAssembler(wire::kMaxBatchMsgs + 1),
               ContractViolation);
}

}  // namespace
}  // namespace ccvc
