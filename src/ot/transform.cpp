#include "ot/transform.hpp"

#include "util/check.hpp"

namespace ccvc::ot {

namespace {

void require_decomposed(const PrimOp& op) {
  CCVC_CHECK_MSG(op.kind != OpKind::kDelete || op.count == 1,
                 "transformation requires deletes decomposed to 1 char");
}

// Whether the insert `against` moves `op` (an insert or a 1-char delete
// defined on the same state) right.  Reads only pre-step values, so
// include_pair evaluates both directions before rewriting either side.
bool shifted_right_by(const PrimOp& op, const PrimOp& against) {
  if (op.kind == OpKind::kInsert) {
    // II: shift right iff `against` lands strictly left, or ties and
    // wins the left slot.
    return against.pos < op.pos ||
           (against.pos == op.pos && insert_wins_left(against, op));
  }
  // DI: an insert at or left of the doomed character shifts it right.
  // (Equal position: the insert goes *before* the character at `pos`.)
  return against.pos <= op.pos;
}

void set_nop(PrimOp& op) {
  // pos and origin are kept for trace readability; they have no effect.
  op.kind = OpKind::kIdentity;
  op.text.clear();
  op.count = 0;
}

// The one IT rule table: rewrites, in place, `a` into the form that
// applies after `b` and `b` into the form that applies after `a` (both
// defined on the same state).  Allocates nothing.
void include_pair(PrimOp& a, PrimOp& b) {
  require_decomposed(a);
  require_decomposed(b);
  if (a.kind == OpKind::kIdentity || b.kind == OpKind::kIdentity) return;

  const bool a_ins = a.kind == OpKind::kInsert;
  const bool b_ins = b.kind == OpKind::kInsert;
  if (a_ins && b_ins) {
    // II both ways.  Both predicates read the pre-step positions; in the
    // degenerate identical-insert tie both are true and both sides shift.
    const bool a_shift = shifted_right_by(a, b);
    const bool b_shift = shifted_right_by(b, a);
    if (a_shift) a.pos += b.text.size();
    if (b_shift) b.pos += a.text.size();
    return;
  }
  if (a_ins != b_ins) {
    // ID/DI: the insert `ins` moves one left iff the deleted character
    // lies strictly left of it; the delete `del` moves right by the
    // insert's length iff the insert lands at or left of it.
    PrimOp& ins = a_ins ? a : b;
    PrimOp& del = a_ins ? b : a;
    const bool ins_shift = del.pos < ins.pos;
    const bool del_shift = shifted_right_by(del, ins);
    if (ins_shift) {
      CCVC_DCHECK(ins.pos >= del.count);  // del.pos < ins.pos ⇒ no underflow
      ins.pos -= del.count;
    }
    if (del_shift) del.pos += ins.text.size();
    return;
  }

  // DD: both delete one character.
  CCVC_CHECK(a.kind == OpKind::kDelete && b.kind == OpKind::kDelete);
  if (a.pos == b.pos) {
    // The same character was deleted concurrently — neither op has
    // anything left to do.  Becoming Identity (rather than deleting a
    // neighbour) is what preserves both users' intentions.
    set_nop(a);
    set_nop(b);
  } else {
    PrimOp& right = (a.pos > b.pos) ? a : b;
    CCVC_DCHECK(right.pos >= 1);
    right.pos -= 1;
  }
}

}  // namespace

bool insert_wins_left(const PrimOp& a, const PrimOp& b) {
  // Total priority for concurrent inserts at the same position.  Distinct
  // origins in the protocol make this a strict order; the (origin, text)
  // tie degenerates only for identical inserts, where both application
  // orders produce the same document anyway.
  if (a.origin != b.origin) return a.origin < b.origin;
  return a.text <= b.text;
}

PrimOp include_prim(const PrimOp& op, const PrimOp& against) {
  PrimOp out = op;
  PrimOp other = against;
  include_pair(out, other);
  return out;
}

void transform_in_place(OpList& a, OpList& b) {
  // The classic grid walk: fold each primitive of A through the evolving
  // B list, rewriting both sides.  Invariant at inner step i: `pa` and
  // `b[i]` are defined on the same document state (A-prefix already
  // included into b[0..i), B-prefix already included into pa).
  for (PrimOp& pa : a) {
    for (PrimOp& pb : b) {
      include_pair(pa, pb);
      // Hot-path contract (live in Debug/sanitizer presets only): the
      // grid walk must preserve decomposition, or the next include_pair
      // silently computes with a multi-char delete.
      CCVC_DCHECK(pa.kind != OpKind::kDelete || pa.count == 1);
      CCVC_DCHECK(pb.kind != OpKind::kDelete || pb.count == 1);
    }
  }
}

std::pair<OpList, OpList> transform(const OpList& a, const OpList& b) {
  std::pair<OpList, OpList> out{a, b};
  transform_in_place(out.first, out.second);
  return out;
}

OpList include_list(const OpList& op, const OpList& against) {
  return transform(op, against).first;
}

PrimOp exclude_prim(const PrimOp& op, const PrimOp& against) {
  require_decomposed(op);
  require_decomposed(against);
  if (against.kind == OpKind::kIdentity) return op;

  PrimOp out = op;
  const std::size_t blen = (against.kind == OpKind::kInsert)
                               ? against.text.size()
                               : against.count;

  if (against.kind == OpKind::kInsert) {
    // Undo the right-shift include_prim applied for positions at or
    // right of the insertion.  A position strictly inside the inserted
    // text cannot predate it.
    if (op.kind == OpKind::kIdentity) return op;
    const std::size_t q = against.pos;
    if (op.pos <= q) return out;
    CCVC_CHECK_MSG(op.pos >= q + blen,
                   "cannot exclude an insert the operation lands inside "
                   "of — it causally depends on it");
    out.pos -= blen;
    return out;
  }

  // against is a 1-char delete at q.
  const std::size_t q = against.pos;
  if (op.kind == OpKind::kIdentity) {
    // A double-delete collapse (include_prim preserved the position):
    // excluding the other delete resurrects this one, and the captured
    // text of `against` is by definition the very character it deleted.
    if (op.pos == q) {
      PrimOp restored;
      restored.kind = OpKind::kDelete;
      restored.pos = q;
      restored.count = 1;
      restored.text = against.text;
      restored.origin = op.origin;
      return restored;
    }
    return op;
  }
  if (op.kind == OpKind::kDelete) {
    // Deletes address existing characters: everything at or right of q
    // sat one position further right before `against` removed its char.
    if (op.pos >= q) out.pos += 1;
    return out;
  }
  // op is an insert.  Strictly right of q shifts back; exactly at q is
  // the information-losing boundary — the original could have been q or
  // q + 1 (both include to q); by convention it resolves to q (stay).
  if (op.pos > q) out.pos += 1;
  return out;
}

OpList exclude_list(const OpList& op, const OpList& against) {
  OpList cur = op;
  for (auto it = against.rbegin(); it != against.rend(); ++it) {
    for (auto& p : cur) p = exclude_prim(p, *it);
  }
  return cur;
}

}  // namespace ccvc::ot
