// Differential test of the in-place transform kernel.
//
// transform_in_place rewrites both sides in place through one IT rule
// table; include_prim, include_list and transform are copying wrappers
// over the same kernel.  The oracle below is a frozen copy of the
// earlier pair-returning implementation (one-directional include_prim,
// grid walk over a copied B), kept verbatim so any drift in the rule
// table — the II tie-break, the ID/DI boundaries, the DD → Identity
// collapse — shows up as an inequality here:
//   * every primitive pair on documents of length ≤ 4, both origin
//     orders and the same-origin tie;
//   * seeded random user-op lists of up to 8 primitives a side.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ot/transform.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ccvc::ot {
namespace {

namespace oracle {

PrimOp make_nop(const PrimOp& from) {
  PrimOp nop;
  nop.kind = OpKind::kIdentity;
  nop.pos = from.pos;
  nop.origin = from.origin;
  return nop;
}

PrimOp include_prim(const PrimOp& op, const PrimOp& against) {
  CCVC_CHECK(op.kind != OpKind::kDelete || op.count == 1);
  CCVC_CHECK(against.kind != OpKind::kDelete || against.count == 1);
  if (op.kind == OpKind::kIdentity || against.kind == OpKind::kIdentity) {
    return op;
  }

  PrimOp out = op;
  const std::size_t blen = (against.kind == OpKind::kInsert)
                               ? against.text.size()
                               : against.count;

  if (op.kind == OpKind::kInsert && against.kind == OpKind::kInsert) {
    if (against.pos < op.pos ||
        (against.pos == op.pos && insert_wins_left(against, op))) {
      out.pos += blen;
    }
    return out;
  }

  if (op.kind == OpKind::kInsert && against.kind == OpKind::kDelete) {
    if (against.pos < op.pos) out.pos -= blen;
    return out;
  }

  if (op.kind == OpKind::kDelete && against.kind == OpKind::kInsert) {
    if (against.pos <= op.pos) out.pos += blen;
    return out;
  }

  CCVC_CHECK(op.kind == OpKind::kDelete && against.kind == OpKind::kDelete);
  if (against.pos < op.pos) {
    out.pos -= 1;
  } else if (against.pos == op.pos) {
    out = make_nop(op);
  }
  return out;
}

std::pair<OpList, OpList> transform(const OpList& a, const OpList& b) {
  OpList b_cur = b;
  OpList a_out;
  a_out.reserve(a.size());
  for (const PrimOp& pa_in : a) {
    PrimOp pa = pa_in;
    for (PrimOp& pb : b_cur) {
      const PrimOp pa_next = oracle::include_prim(pa, pb);
      pb = oracle::include_prim(pb, pa);
      pa = pa_next;
    }
    a_out.push_back(std::move(pa));
  }
  return {std::move(a_out), std::move(b_cur)};
}

}  // namespace oracle

PrimOp ins(std::size_t pos, std::string text, SiteId origin) {
  PrimOp p;
  p.kind = OpKind::kInsert;
  p.pos = pos;
  p.text = std::move(text);
  p.origin = origin;
  return p;
}

PrimOp del(std::size_t pos, SiteId origin, std::string captured = "") {
  PrimOp p;
  p.kind = OpKind::kDelete;
  p.pos = pos;
  p.count = 1;
  p.text = std::move(captured);
  p.origin = origin;
  return p;
}

PrimOp nop(std::size_t pos, SiteId origin) {
  PrimOp p;
  p.pos = pos;
  p.origin = origin;
  return p;
}

/// Every primitive valid on a document of length `len`, from `origin`.
/// Under equal origins the insert texts meet themselves (the identical-
/// insert tie); deletes come with and without captured text.
std::vector<PrimOp> all_prims(std::size_t len, SiteId origin) {
  std::vector<PrimOp> out;
  for (std::size_t p = 0; p <= len; ++p) {
    for (const char* t : {"x", "y", "xy"}) out.push_back(ins(p, t, origin));
    out.push_back(nop(p, origin));
  }
  for (std::size_t p = 0; p < len; ++p) {
    out.push_back(del(p, origin));
    out.push_back(del(p, origin, "c"));
  }
  return out;
}

/// One pair step through the in-place kernel: {a after b, b after a}.
std::pair<PrimOp, PrimOp> step(const PrimOp& a, const PrimOp& b) {
  OpList la{a};
  OpList lb{b};
  transform_in_place(la, lb);
  return {la.at(0), lb.at(0)};
}

/// Asserts every kernel entry point agrees with the oracle on (a, b).
void expect_matches_oracle(const OpList& a, const OpList& b) {
  const auto want = oracle::transform(a, b);

  OpList a_io = a;
  OpList b_io = b;
  transform_in_place(a_io, b_io);
  EXPECT_EQ(a_io, want.first);
  EXPECT_EQ(b_io, want.second);

  EXPECT_EQ(transform(a, b), want);
  EXPECT_EQ(include_list(a, b), want.first);
  EXPECT_EQ(include_list(b, a), oracle::transform(b, a).first);
}

TEST(TransformInPlace, EveryPrimitivePairOnShortDocuments) {
  std::size_t pairs = 0;
  for (std::size_t len = 0; len <= 4; ++len) {
    const std::pair<SiteId, SiteId> origin_orders[] = {{1, 2}, {2, 1}, {1, 1}};
    for (const auto& [oa, ob] : origin_orders) {
      for (const PrimOp& a : all_prims(len, oa)) {
        for (const PrimOp& b : all_prims(len, ob)) {
          const auto [pa, pb] = step(a, b);
          ASSERT_EQ(pa, oracle::include_prim(a, b))
              << a.str() << " vs " << b.str() << " on len " << len;
          ASSERT_EQ(pb, oracle::include_prim(b, a))
              << a.str() << " vs " << b.str() << " on len " << len;
          ASSERT_EQ(include_prim(a, b), oracle::include_prim(a, b));
          expect_matches_oracle({a}, {b});
          ++pairs;
        }
      }
    }
  }
  EXPECT_GT(pairs, 1000u);
}

TEST(TransformInPlace, SameOriginIdenticalInsertTieShiftsBothSides) {
  // The degenerate tie: insert_wins_left is true both ways, so each
  // side shifts past the other (both documents end "..xx..").
  const auto [a, b] = step(ins(2, "x", 1), ins(2, "x", 1));
  EXPECT_EQ(a.pos, 3u);
  EXPECT_EQ(b.pos, 3u);
  EXPECT_EQ(a, oracle::include_prim(ins(2, "x", 1), ins(2, "x", 1)));
}

TEST(TransformInPlace, IdentityPassesThroughUnchanged) {
  for (const PrimOp& other : {ins(0, "ab", 2), del(0, 2, "z"), nop(3, 2)}) {
    EXPECT_EQ(step(nop(1, 1), other), std::pair(nop(1, 1), other));
    EXPECT_EQ(step(other, nop(1, 1)), std::pair(other, nop(1, 1)));
  }
}

TEST(TransformInPlace, DoubleDeleteCollapsesToIdentityKeepingPosAndOrigin) {
  const auto [a, b] = step(del(1, 1, "c"), del(1, 2));
  const std::pair<PrimOp, SiteId> results[] = {{a, 1}, {b, 2}};
  for (const auto& [p, origin] : results) {
    EXPECT_EQ(p.kind, OpKind::kIdentity);
    EXPECT_EQ(p.count, 0u);
    EXPECT_TRUE(p.text.empty());
    EXPECT_EQ(p.pos, 1u);
    EXPECT_EQ(p.origin, origin);
  }
  EXPECT_EQ(a, oracle::include_prim(del(1, 1, "c"), del(1, 2)));
}

/// A random sequence of user ops of at most `max_prims` primitives in
/// all, the first defined on a document of `size` characters and each
/// later one on the result of those before it.
OpList random_list(util::Rng& rng, std::size_t size, SiteId origin,
                   std::size_t max_prims) {
  OpList out;
  while (out.size() < max_prims) {
    OpList op;
    if (size == 0 || rng.chance(0.6)) {
      std::string text;
      const std::size_t n = 1 + rng.index(3);
      for (std::size_t i = 0; i < n; ++i) {
        text.push_back(static_cast<char>('A' + rng.index(3)));
      }
      op = make_insert(rng.index(size + 1), std::move(text), origin);
    } else {
      const std::size_t n = 1 + rng.index(std::min<std::size_t>(size, 3));
      op = make_delete(rng.index(size - n + 1), n, origin);
    }
    if (out.size() + op.size() > max_prims) break;
    for (const PrimOp& p : op) {
      size = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(size) +
                                      p.size_delta());
    }
    out.insert(out.end(), op.begin(), op.end());
    if (rng.chance(0.3)) break;
  }
  return out;
}

TEST(TransformInPlace, RandomUserOpListsMatchOracle) {
  util::Rng rng(1501);
  for (int iter = 0; iter < 3000; ++iter) {
    const std::size_t len = rng.index(9);
    const SiteId oa = 1 + static_cast<SiteId>(rng.index(3));
    const SiteId ob = 1 + static_cast<SiteId>(rng.index(3));
    const OpList a = random_list(rng, len, oa, 8);
    const OpList b = random_list(rng, len, ob, 8);
    expect_matches_oracle(a, b);
    if (HasFailure()) {
      ADD_FAILURE() << "iteration " << iter << ", document length " << len;
      return;
    }
  }
}

TEST(TransformInPlace, CopiedOwnNeverAliasesTheSharedList) {
  // The bridge-queue pattern: a broadcast's O' is shared; one queue
  // copies it out and rewrites its copy in place.  The shared list the
  // other queues read must not move.
  const OpList original = {ins(1, "AB", 1), del(3, 1), ins(0, "C", 1)};
  const auto shared = std::make_shared<const OpList>(original);
  OpList own = *shared;
  OpList incoming = {ins(0, "zz", 2), del(2, 2)};
  transform_in_place(incoming, own);
  EXPECT_NE(own, original);
  EXPECT_EQ(*shared, original);
  EXPECT_EQ(own, oracle::transform({ins(0, "zz", 2), del(2, 2)}, original)
                     .second);
}

}  // namespace
}  // namespace ccvc::ot
