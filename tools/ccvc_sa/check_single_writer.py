"""single-writer — per-thread ownership of every piece of mutable state
the threaded runtime or the per-op delivery path can write.

The pipeline's safety story (docs/THREADING.md §2) is a discipline, not
a lock table: state is either confined to exactly one thread, published
through a ring, a lock-free atomic, or behind a mutex.  TSan can only
witness the interleavings the tests happen to drive; this checker
proves the discipline over *all* paths the static model sees.

The entry points come from ONE table, read by this checker,
hot-path-budget and blocking-graph alike: THREAD_CLOSURES (the
pipeline's four thread closures) plus DELIVERY_ROOTS (the simulator's
per-op receive sides).  Closures are expanded with the type-refined
call graph (Model.reachable_typed).  Three rules:

1. Members of classes in the scope files (src/runtime/ +
   src/util/metrics) must satisfy one of:

  atomic         declared std::atomic — ordering is the atomics-order
                 checker's problem, ownership is solved;
  sync-primitive std::mutex / std::condition_variable — the mechanism,
                 not the protected state;
  ring           declared in bounded_ring.hpp or of a ring type — the
                 Vyukov seq protocol (release-publish / acquire-claim)
                 is the transfer, proven by design + TSan (CI step 13);
  mutex-guarded  every writing function locks (lock_guard/unique_lock/
                 scoped_lock appears in its body);
  single-closure all writers (constructors/destructor excluded — they
                 happen-before thread start / after join) fall inside
                 at most ONE thread closure, and that closure is not a
                 concurrent one (multiple threads execute `submit`, so
                 a plain write reachable from it alone is already a
                 race).

2. A mutable global or function-local static anywhere under src/ that a
   function in a hot-path closure (the four thread closures or the
   delivery closure) writes must be atomic, a sync primitive,
   ring-owned or mutex-guarded.  One instance serves every thread and
   every pipeline, so single-closure confinement never applies; a
   global written only outside every closure (a test or CLI knob read
   on the hot path) passes.

3. The transform stage's exclusivity over the engine state is pinned:
   `NotifierSite::apply_uplink` (GOT queues, SV clocks, document) must
   be reachable from NO closure but the transform thread's — the
   paper's center-serializes argument carried into the implementation.
"""

from __future__ import annotations

from sa_engine import Context, Finding, checker
from sa_model import Func, Model, Var

# Scope of the member audit: the threaded runtime and the thread-shared
# metrics registry.
SCOPE_PREFIXES = ("src/runtime/", "src/util/metrics")

# Files whose state is the ring implementation itself: ownership is the
# per-cell seq protocol, argued in the header comment and raced under
# TSan in CI step 13 — not expressible as a per-member writer set.
RING_FILES = ("src/runtime/bounded_ring.hpp",)

# closure name -> (entry points, concurrent).  `concurrent` marks
# closures executed by several threads at once: a plain write reachable
# from such a closure is a race even with no second closure involved.
# Entry points are seeded explicitly where std::function/std::thread
# boundaries break the static call graph; `batch_broadcast` runs on the
# transform thread inside apply_uplink's broadcast callback
# (docs/THREADING.md §2).  A new stage registers here and nowhere else.
THREAD_CLOSURES: dict[str, tuple[list[str], bool]] = {
    "producer": (["NotifierPipeline::submit"], True),
    "transform": (["NotifierPipeline::transform_loop",
                   "NotifierPipeline::batch_broadcast"], False),
    "egress": (["NotifierPipeline::egress_loop"], False),
    # The external controlling thread: construction, drain, shutdown,
    # and the closed-loop harness.  drain()/shutdown() document that no
    # submit() runs concurrently with them.
    "control": (["NotifierPipeline::drain", "NotifierPipeline::shutdown",
                 "run_threaded_star"], False),
}

# The simulator's per-op entry points: send_ is a std::function at every
# hop, so each hop's receive side is seeded explicitly.
DELIVERY_ROOTS = [
    "NotifierSite::on_client_message",
    "ClientSite::on_center_message",
    "ReliableLink::send",
    "ReliableLink::on_frame",
    "Channel::send",
]


def hot_path_roots() -> list[str]:
    """Per-op entry points: the delivery roots plus every thread
    closure's but the control plane's (drain/shutdown run per session,
    not per op)."""
    return DELIVERY_ROOTS + [r for name, (roots, _) in THREAD_CLOSURES.items()
                             if name != "control" for r in roots]


# Engine state that must stay exclusive to the transform closure.
TRANSFORM_ONLY = ["NotifierSite::apply_uplink"]

LOCK_TOKENS = {"lock_guard", "unique_lock", "scoped_lock"}
SYNC_TYPES = ("mutex", "condition_variable", "thread")

# Method names that mutate their receiver.
MUTATORS = {
    "push_back", "emplace_back", "pop_back", "push_front", "pop_front",
    "clear", "insert", "erase", "emplace", "resize", "reserve", "assign",
    "swap", "push", "pop", "store", "exchange", "fetch_add", "fetch_sub",
    "fetch_or", "fetch_and", "compare_exchange_weak",
    "compare_exchange_strong", "record", "inc", "set", "add", "reset",
}
ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "<<=", ">>="}
# Tokens before `name =` that mark a declaration-with-initializer (or a
# member access on something else), not a write to `name` itself.
DECL_PREV = {"&", "*", ">", ".", "->", "::"}


def writes_in(fn: Func) -> set[str]:
    """Names the function body writes: `x = / x += / ++x / x++`,
    `x.mutator(...)`, `x[...].mutator(...)`, `x->mutator(...)`."""
    body = fn.body
    out: set[str] = set()
    n = len(body)
    for k, t in enumerate(body):
        if t.kind != "id":
            continue
        prev = body[k - 1] if k > 0 else None
        nxt = body[k + 1].text if k + 1 < n else ""
        prev_text = prev.text if prev is not None else ""
        if nxt in ASSIGN_OPS:
            # Skip declarations (`Type name = ...`) and accesses through
            # another object (`a.b = ...` writes b's owner, handled when
            # the receiver itself is scanned).
            if prev is None or (prev.kind != "id"
                                and prev_text not in DECL_PREV):
                out.add(t.text)
            continue
        if prev_text in ("++", "--") or nxt in ("++", "--"):
            out.add(t.text)
            continue
        # Receiver of a mutating method: x.m( / x->m( / x[i].m( / x[i]->m(
        if nxt in (".", "->", "["):
            j = k + 1
            depth = 0
            while j < n:
                tj = body[j].text
                if tj == "[":
                    depth += 1
                elif tj == "]":
                    depth -= 1
                elif depth == 0:
                    if tj in (".", "->"):
                        if j + 2 < n and body[j + 1].kind == "id" \
                                and body[j + 1].text in MUTATORS \
                                and body[j + 2].text == "(":
                            out.add(t.text)
                        break
                    if tj not in (".", "->"):
                        break
                j += 1
    return out


def in_scope(file: str) -> bool:
    return file.startswith(SCOPE_PREFIXES)


def classify_decl(v: Var) -> str | None:
    """Discipline decidable from the declaration alone, else None."""
    if "atomic" in v.decl:
        return "atomic"
    if any(s in v.decl for s in SYNC_TYPES):
        return "sync-primitive"
    if v.file in RING_FILES or "BoundedRing" in v.decl:
        return "ring"
    return None


def closure_map(model: Model) -> dict[str, set[str]]:
    return {name: model.reachable_typed(roots)
            for name, (roots, _) in THREAD_CLOSURES.items()}


def _locks(fn: Func) -> bool:
    return any(t.kind == "id" and t.text in LOCK_TOKENS for t in fn.body)


@checker("single-writer")
def check_single_writer(model: Model, ctx: Context) -> list[Finding]:
    del ctx
    findings: list[Finding] = []
    closures = closure_map(model)
    writes_cache = {fn.qual: writes_in(fn) for fn in model.funcs}

    def writer_closures(writers: list[Func]) -> tuple[set[str], set[str]]:
        """(closure names covering the writers, writers outside all)."""
        names: set[str] = set()
        stray: set[str] = set()
        for fn in writers:
            hit = {c for c, qs in closures.items() if fn.qual in qs}
            if hit:
                names |= hit
            else:
                stray.add(fn.qual)
        return names, stray

    def audit_member(v: Var, cls: str) -> None:
        if classify_decl(v) is not None:
            return
        writers = [fn for fn in model.funcs
                   if in_scope(fn.file) and fn.cls == cls
                   # ctor/dtor: happens-before start / after join
                   and fn.name != fn.cls and not fn.name.startswith("~")
                   and v.name in writes_cache[fn.qual]]
        if not writers:
            return  # init-only (constructor / aggregate init)
        if all(_locks(fn) for fn in writers):
            return  # mutex-guarded
        names, stray = writer_closures(writers)
        what = f"{v.owner}::{v.name}"
        if stray and names:
            findings.append(Finding(
                "single-writer", v.file, v.line,
                f"unassigned:{what}",
                f"`{what}` is written both inside thread closures "
                f"({', '.join(sorted(names))}) and by functions outside "
                f"every closure ({', '.join(sorted(stray))}) — no single "
                f"owner"))
            return
        if len(names) > 1:
            findings.append(Finding(
                "single-writer", v.file, v.line,
                f"multi-closure:{what}",
                f"`{what}` is mutable, non-atomic, unlocked, and written "
                f"from {len(names)} thread closures "
                f"({', '.join(sorted(names))}) — needs an owner"))
            return
        concurrent = {c for c in names if THREAD_CLOSURES[c][1]}
        if concurrent:
            findings.append(Finding(
                "single-writer", v.file, v.line,
                f"concurrent-write:{what}",
                f"`{what}` is written from the `{next(iter(concurrent))}` "
                f"closure, which multiple threads execute at once — a "
                f"plain write there is already a race"))

    for ci in model.classes.values():
        if in_scope(ci.file):
            for m in ci.members:
                if m.kind == "member" and not m.is_const:
                    audit_member(m, ci.name)

    # Globals and function-local statics: one instance per process, so
    # any hot-path writer needs a mechanism, not a closure argument.
    hot = dict(closures, delivery=model.reachable_typed(DELIVERY_ROOTS))
    for v in model.globals + model.local_statics:
        if v.is_const or classify_decl(v) is not None:
            continue
        # A local static is only nameable inside its owning function.
        writers = [fn for fn in model.funcs
                   if (v.kind == "global" or fn.qual == v.owner)
                   and v.name in writes_cache[fn.qual]]
        hot_writers = sorted({fn.qual for fn in writers
                              for qs in hot.values() if fn.qual in qs})
        if not hot_writers or all(_locks(fn) for fn in writers):
            continue
        what = f"{v.owner + '::' if v.owner else ''}{v.name}"
        names = sorted(c for c, qs in hot.items()
                       if any(q in qs for q in hot_writers))
        findings.append(Finding(
            "single-writer", v.file, v.line,
            f"hot-global:{what}",
            f"`{what}` is a mutable {v.kind.replace('-', ' ')} written "
            f"on the hot path by {', '.join(hot_writers)} "
            f"({', '.join(names)}) — one instance serves every thread; "
            f"make it atomic, lock every writer, or give it an owner"))

    # Transform exclusivity: the engine's stateful entry must be
    # invisible to every other pipeline closure.
    for name, qs in closures.items():
        if name == "control":
            continue  # drain path touches site() only at quiescence
        for root in TRANSFORM_ONLY:
            if name == "transform":
                continue
            hit = [q for q in qs if q == root or q.endswith("::" + root)]
            for q in hit:
                fn = next(f for f in model.funcs if f.qual == q)
                findings.append(Finding(
                    "single-writer", fn.file, fn.line,
                    f"transform-escape:{root}:{name}",
                    f"{q}() (GOT/SV-mutating transform state) is "
                    f"reachable from the `{name}` closure — transform "
                    f"state must be transform-thread-only"))
    return findings
