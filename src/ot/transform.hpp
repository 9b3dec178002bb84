// Inclusion transformation (IT) for text primitives and op sequences —
// the "operational transformation" substrate of §2.3.
//
// include_prim(a, b) rewrites `a` so it applies to a document on which
// `b` (defined on the same document state as `a`) has already been
// executed, preserving `a`'s intention.  Because user deletes are
// decomposed into single-character primitives (see text_op.hpp) the
// result is always exactly one primitive — no splitting — and inclusion
// only ever moves `pos` or turns a primitive into Identity.  One pair
// kernel (transform.cpp) holds the rule table and rewrites both
// primitives of a pair in place; every entry point below runs it.
//
// transform_in_place(A, B) lifts IT to sequences symmetrically: given op
// lists A and B defined on the same state, it rewrites them into
// (A', B') with
//     apply(S, A) ∘ B'  ==  apply(S, B) ∘ A'      (the TP1 diamond)
// for every document S on which A and B are defined.  This one property
// is all the star-topology control algorithm needs for convergence; it
// is exhaustively property-tested in tests/ot.  transform, include_list
// and include_prim are the copying forms, for callers that must keep
// their inputs.
//
// Insert–insert ties (equal position) break on (origin site, text)
// order: concurrent operations always have distinct origin sites in the
// protocol, so the priority is total and identical at every site.
#pragma once

#include <utility>

#include "ot/text_op.hpp"

namespace ccvc::ot {

/// IT of one primitive against another (both defined on the same state).
/// Requires decomposed deletes (count ≤ 1).
PrimOp include_prim(const PrimOp& op, const PrimOp& against);

/// Symmetric sequence transform, in place: rewrites A into A' (applies
/// after B) and B into B' (applies after A).  A and B must be defined on
/// the same state.  Allocation-free.
void transform_in_place(OpList& a, OpList& b);

/// The copying form of transform_in_place: returns {A', B'}.
std::pair<OpList, OpList> transform(const OpList& a, const OpList& b);

/// Convenience when only the transformed `op` is needed.
OpList include_list(const OpList& op, const OpList& against);

/// Exclusion transformation (ET) — the inverse direction used by the
/// GOT control algorithm of the paper's REDUCE lineage [14]: rewrites
/// `op` (defined on a state where `against` HAS executed) into the form
/// it takes on the state WITHOUT `against`.
///
/// ET is famously partial.  For this primitive set:
///  * exclude_prim(include_prim(a, b), b) == a exactly, EXCEPT the one
///    genuinely information-losing case: an insert at b.pos + 1 excluded
///    against a 1-char delete b collapses onto b.pos, indistinguishable
///    from an insert at b.pos (both included forms are b.pos).  The
///    convention here resolves to b.pos.  (Double-delete Identity forms
///    are recovered exactly from the preserved position.)
///  * positions strictly inside text inserted by `against` mean `op`
///    causally depends on it — excluding is a contract violation.
PrimOp exclude_prim(const PrimOp& op, const PrimOp& against);

/// ET lifted to sequences: excludes the effect of `against` (applied
/// list) from `op`; folds right-to-left since the last op of `against`
/// is the closest context layer.
OpList exclude_list(const OpList& op, const OpList& against);

/// True if `a` takes the left side of an equal-position insert conflict.
/// Exposed for tests; symmetric and total for distinct (origin, text).
bool insert_wins_left(const PrimOp& a, const PrimOp& b);

}  // namespace ccvc::ot
