// Bad-tree fixture, wire-facing half: one unguarded decoded count
// (wire-taint) and one decode-path ContractViolation
// (exception-discipline).
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace fx {

struct ByteSource {
  std::uint64_t get_uvarint();
};

struct ContractViolation : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void decode_unguarded(ByteSource& src, std::vector<int>& out) {
  const std::uint64_t n = src.get_uvarint();
  out.reserve(n);
}

std::uint64_t decode_wrong_throw(ByteSource& src) {
  const std::uint64_t tag = src.get_uvarint();
  if (tag > 7) throw ContractViolation("bad tag");
  return tag;
}

}  // namespace fx
