"""blocking-graph + liveness-discipline — deadlock-freedom and progress
gates for the threaded runtime (src/runtime/ + src/util/).

docs/THREADING.md §5 argues deadlock-freedom in prose: the only cycle
through the pipeline's blocking edges (client → central ring → egress
ring → inbox → client) stays open because client inboxes
are unbounded and the egress edge never waits for space.  These two
checkers turn that argument into a machine-checked gate.

**blocking-graph** classifies every blocking operation in scope —
BoundedRing push/pop backoff spins, mutex acquisitions, predicate
condition_variable waits, thread joins, flag spins, bounded-container
waits — and attributes each to the per-thread stage closures seeded in
check_single_writer (call-summary propagation: a closure blocks on R
iff any function it transitively reaches does).  It then builds the
static wait-for graph over (closure × resource) edges and proves it
acyclic.  Edges that can carry a deadlock:

  capacity-wait   waiter needs a *consumer* of the full ring/container
                  to make progress — edge waiter → every consumer;
  cv-wait         waiter needs a notifier — edge waiter → every closure
                  that (transitively) notifies the cv;
  hold-and-wait   a mutex held across another blocking operation —
                  edge holder → every other acquirer of that mutex.

Empty-ring spins, flag spins, and joins are deliberately *not* edges:
each must instead satisfy liveness-discipline's termination rules, and
the teardown order (drain → done → join(clients) → stop →
join(threads_)) writes every such flag strictly before the wait that
consults it.  Leaf mutexes (acquired, never held across a wait)
contribute rows but no edges.

The documented unbounded-inbox rule is a checked *edge-absence
assertion*, not a baseline: any capacity-wait attributed to the egress
closure is a finding on its own, before it even closes the cycle.  The
full inventory is emitted as docs/BLOCKING.md behind a byte-identical
drift gate (ATOMICS.md/HOTPATH.md idiom).

**liveness-discipline** checks progress locally: every cv wait is
predicate-form; every writer of a wait's predicate variables
transitively reaches a notify on the same cv; every blocking spin loop
consults a termination flag that some *other* context writes (the
shutdown()/drain() teardown contract); join only from control closures.

std::function / std::thread boundaries the static graph cannot cross
are seeded explicitly (LAMBDA_CONTEXTS below), the THREAD_CLOSURES
idiom: the client-thread and egress-delivery lambdas inside
run_threaded_star are carved out of their lexical host and attributed
to the closures whose threads execute them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from sa_engine import Context, Finding, checker, drift_gate
from sa_model import Func, Model
from check_single_writer import THREAD_CLOSURES, LOCK_TOKENS

SCOPE_PREFIXES = ("src/runtime/", "src/util/")

DOC_REL = "docs/BLOCKING.md"

# The blocking graph renames `producer` to `client`: the closed-loop
# client threads are the only executors of submit(), and the documented
# 4-edge cycle names that node "client".
NODE_RENAME = {"producer": "client"}

# (host function, closure, anchor token sequence): the first lambda body
# following the anchor runs on the named closure's thread, not on the
# host's.  '*' matches any one token.
LAMBDA_CONTEXTS = [
    ("run_threaded_star", "client", ("clients", ".", "emplace_back")),
    ("run_threaded_star", "egress", ("NotifierPipeline", "*", "(")),
]

# Closures that must never wait for capacity — the egress edge toward
# clients must stay non-blocking or the §5 cycle closes.
NEVER_CAPACITY_WAIT = ("egress",)

WRITE_OPS = {"store", "exchange", "fetch_add", "fetch_sub", "fetch_or",
             "fetch_and", "fetch_xor", "compare_exchange_weak",
             "compare_exchange_strong"}
CONSUME_OPS = {"try_pop", "pop_front", "pop_back"}
NOTIFY_OPS = {"notify_all", "notify_one"}

# Identifiers that are method/utility names, never a waited-on resource.
NOT_A_RESOURCE = {"std", "size", "empty", "load", "move", "front", "back",
                  "count", "chrono", "memory_order_acquire",
                  "memory_order_relaxed", "memory_order_release"}

HEADER = """\
# BLOCKING.md — blocking-operation inventory & wait-for graph (generated)

Generated by `python3 tools/ccvc_sa --emit-blocking`.  **Do not edit by
hand** — `ccvc_sa --check` (CI step 11, ctest label `sa`) fails on
any byte difference (`blocking-graph` checker), so every new blocking
operation or wait-for edge is forced through this inventory and its
review.

Scope: `src/runtime/` + `src/util/`.  Operations are attributed to the
per-thread stage closures of `check_single_writer` (with `producer`
folded into `client`, and the client/egress lambdas inside
`run_threaded_star` carved out to the threads that execute them).
Kinds: `capacity-wait` (spin until a full ring/container has space),
`empty-wait` (spin until a ring has an item), `flag-wait` (spin on an
atomic flag), `cv-wait` (condition variable; consults lists the
predicate's variables), `lock` (mutex acquisition), `join`.
"""

OPS_HEADER = """\
## Blocking operations by thread closure

| closure | file | function | kind | resource | consults |
|---|---|---|---|---|---|
"""

EDGES_HEADER = """\
## Wait-for edges

Only edges that can carry a deadlock appear here: capacity waits point
at the resource's consumers, cv waits at the cv's notifiers, and a
mutex held across another blocking operation (hold-and-wait) points at
the mutex's other acquirers.  Empty-ring spins, flag spins, and joins
are governed by liveness-discipline's termination rules instead (the
teardown order drain → done → join(clients) → stop → join(threads_)
writes each flag strictly before the wait that consults it), and leaf
mutexes — never held across a wait — contribute no edges.

| waiter | resource | waits for |
|---|---|---|
"""


@dataclass
class Op:
    kind: str        # capacity-wait | empty-wait | flag-wait | cv-wait
                     # | lock | join
    resource: str    # canonical resource name
    consults: tuple  # termination flags (spins) / predicate vars (cv)
    line: int
    idx: int         # token index in the owning body
    predicate: bool = False   # cv-wait: predicate-form?
    hold: bool = False        # lock: held across another blocking op?


@dataclass
class Unit:
    """One attribution unit: a scoped function, or one carved lambda
    context inside a host function (ctx names the executing closure)."""
    qual: str
    cls: str | None
    file: str
    line: int
    ctx: str | None
    ops: list[Op] = field(default_factory=list)
    writes: list[tuple[str, int]] = field(default_factory=list)  # var,line
    consumes: set[str] = field(default_factory=set)
    notifies: set[str] = field(default_factory=set)
    calls: set[str] = field(default_factory=set)
    closures: set[str] = field(default_factory=set)

    @property
    def key(self) -> tuple[str, str | None]:
        return (self.qual, self.ctx)

    @property
    def label(self) -> str:
        return self.qual if self.ctx is None else \
            f"{self.qual} [{self.ctx} lambda]"


def in_scope(file: str) -> bool:
    return file.startswith(SCOPE_PREFIXES)


def _match_paren(toks: list, i: int, open_c: str, close_c: str) -> int:
    depth = 0
    while i < len(toks):
        t = toks[i].text
        if t == open_c:
            depth += 1
        elif t == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(toks)


def _receiver(body: list, dot_idx: int) -> str:
    """Identifier owning the `.`/`->` at dot_idx (bracket-matching
    backwards over `name[...]`-style accesses)."""
    j = dot_idx - 1
    depth = 0
    while j >= 0:
        t = body[j].text
        if t in ("]", ")"):
            depth += 1
        elif t in ("[", "("):
            depth -= 1
            if depth < 0:
                return "<expr>"
        elif depth == 0:
            if body[j].kind == "id":
                return body[j].text
            return "<expr>"
        j -= 1
    return "<expr>"


def _aliases(body: list) -> dict[str, str]:
    """Local reference aliases: `T& name = ...member...` and range-for
    `T& name : target` — maps name -> the first meaningful identifier of
    its initializer, so `ring.try_push` resolves to the ring member."""
    out: dict[str, str] = {}
    n = len(body)
    for k, t in enumerate(body):
        if t.text != "&" or k + 2 >= n or body[k + 1].kind != "id":
            continue
        name = body[k + 1].text
        sep = body[k + 2].text
        if sep not in ("=", ":"):
            continue
        j = k + 3
        while j < n and body[j].text not in (";", ")"):
            tj = body[j]
            if tj.kind == "id" and tj.text not in (
                    "std", "move", "const", "engine", "util", "net"):
                out[name] = tj.text
                break
            j += 1
    return out


def _resolve(aliases: dict[str, str], name: str) -> str:
    seen = set()
    while name in aliases and name not in seen:
        seen.add(name)
        name = aliases[name]
    return name


def _loops(body: list) -> list[tuple[str, tuple[int, int],
                                     tuple[int, int], int]]:
    """Every while/for loop: (keyword, header range, extent range, line).
    Ranges are [start, end) token indices; a brace-less loop's extent is
    its single statement."""
    out = []
    n = len(body)
    for i, t in enumerate(body):
        if t.kind != "id" or t.text not in ("while", "for"):
            continue
        if i + 1 >= n or body[i + 1].text != "(":
            continue
        he = _match_paren(body, i + 1, "(", ")")
        header = (i + 2, he - 1)
        if he < n and body[he].text == "{":
            be = _match_paren(body, he, "{", "}")
            extent = (he + 1, be - 1)
        else:
            j = he
            depth = 0
            while j < n:
                tx = body[j].text
                if tx in "([{":
                    depth += 1
                elif tx in ")]}":
                    depth -= 1
                elif tx == ";" and depth == 0:
                    break
                j += 1
            extent = (he, j)
        out.append((t.text, header, extent, t.line))
    return out


def _ids_in(body: list, rng: tuple[int, int]) -> list[tuple[int, object]]:
    return [(k, body[k]) for k in range(rng[0], min(rng[1], len(body)))
            if body[k].kind == "id"]


def _method_sites(body: list, rng: tuple[int, int],
                  names: set[str]) -> list[tuple[int, str, str]]:
    """(idx, method, receiver) for every `recv.m(` / `recv->m(` with m in
    `names` inside the range."""
    out = []
    for k in range(rng[0], min(rng[1], len(body))):
        t = body[k]
        if t.kind != "id" or t.text not in names:
            continue
        if k == 0 or body[k - 1].text not in (".", "->"):
            continue
        if k + 1 >= len(body) or body[k + 1].text != "(":
            continue
        out.append((k, t.text, _receiver(body, k - 1)))
    return out


def _loads_in(body: list, rng: tuple[int, int]) -> list[str]:
    return [recv for _, _, recv in _method_sites(body, rng, {"load"})]


def _brace_depths(body: list) -> list[int]:
    depths = []
    d = 0
    for t in body:
        if t.text == "}":
            d -= 1
        depths.append(d)
        if t.text == "{":
            d += 1
    return depths


class _Canon:
    """Canonical resource names: `Class::member` when the owner class is
    unambiguous, else `<file-stem>::name` (locals, collisions)."""

    def __init__(self, model: Model):
        self.owners: dict[str, set[str]] = {}
        for ci in model.classes.values():
            if not in_scope(ci.file):
                continue
            for m in ci.members:
                self.owners.setdefault(m.name, set()).add(ci.name)
        self.decls: dict[str, list[str]] = {}
        for ci in model.classes.values():
            for m in ci.members:
                self.decls.setdefault(m.name, []).append(m.decl)
        for v in model.globals:
            self.decls.setdefault(v.name, []).append(v.decl)

    def name(self, cls: str | None, file: str, raw: str) -> str:
        if cls and cls in self.owners.get(raw, ()):
            return f"{cls}::{raw}"
        cands = self.owners.get(raw, ())
        if len(cands) == 1:
            return f"{next(iter(cands))}::{raw}"
        stem = file.rsplit("/", 1)[-1].split(".", 1)[0]
        return f"{stem}::{raw}"

    def declared(self, raw: str, needle: str) -> bool:
        return any(needle in d for d in self.decls.get(raw, ()))


def _scan_unit(body: list, unit: Unit, canon: _Canon, model: Model) -> None:
    """Populate ops/writes/consumes/notifies for one token body."""
    aliases = _aliases(body)
    full = (0, len(body))

    def cname(raw: str) -> str:
        return canon.name(unit.cls, unit.file, _resolve(aliases, raw))

    # --- spins -------------------------------------------------------
    for kw, header, extent, line in _loops(body):
        pushes = _method_sites(body, header, {"try_push"})
        header_loads = _loads_in(body, header)
        pops = _method_sites(body, extent, CONSUME_OPS - {"pop_back"})
        pops = [p for p in pops if p[1] == "try_pop"]
        pause_here = any(t.text == "pause" for _, t in _ids_in(body, extent)) \
            or any(t.text == "pause" for _, t in _ids_in(body, header))
        infinite = header[1] - header[0] <= 1  # `for (;;)` / empty header
        if pushes:
            idx, _, recv = pushes[0]
            unit.ops.append(Op("capacity-wait", cname(recv),
                               tuple(sorted(cname(f)
                                            for f in _loads_in(body, extent))),
                               body[idx].line, idx))
        elif kw == "while" and header_loads:
            flag = cname(header_loads[0])
            if pops:
                idx, _, recv = pops[0]
                unit.ops.append(Op("empty-wait", cname(recv), (flag,),
                                   body[idx].line, idx))
            else:
                unit.ops.append(Op("flag-wait", flag, (flag,),
                                   line, header[0]))
        elif kw == "for" and pops and (pause_here or infinite):
            idx, _, recv = pops[0]
            consults = tuple(sorted({cname(f)
                                     for f in _loads_in(body, extent)}))
            unit.ops.append(Op("empty-wait", cname(recv), consults,
                               body[idx].line, idx))
        elif pause_here:
            res = next((t.text for _, t in _ids_in(body, header)
                        if t.text not in NOT_A_RESOURCE), "<expr>")
            unit.ops.append(Op("capacity-wait", cname(res), (),
                               line, header[0]))

    # --- cv waits ----------------------------------------------------
    for idx, _, recv in _method_sites(body, full, {"wait"}):
        raw = _resolve(aliases, recv)
        if not canon.declared(raw, "condition_variable"):
            continue
        args_end = _match_paren(body, idx + 1, "(", ")")
        args = body[idx + 2:args_end - 1]
        depth = 0
        comma = -1
        for k, t in enumerate(args):
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                depth -= 1
            elif t.text == "," and depth == 0:
                comma = k
                break
        pred_vars: set[str] = set()
        if comma >= 0:
            pred = args[comma + 1:]
            pred_ids = [t.text for t in pred if t.kind == "id"]
            for pid in pred_ids:
                if canon.declared(pid, "atomic"):
                    pred_vars.add(canon.name(unit.cls, unit.file, pid))
                for g in model.by_name.get(pid, ()):
                    if g.cls and g.cls == unit.cls:
                        for t in g.body:
                            if t.kind == "id" and canon.declared(t.text,
                                                                 "atomic"):
                                pred_vars.add(canon.name(g.cls, g.file,
                                                         t.text))
        unit.ops.append(Op("cv-wait", cname(recv),
                           tuple(sorted(pred_vars)), body[idx].line, idx,
                           predicate=comma >= 0))

    # --- locks -------------------------------------------------------
    for k, t in enumerate(body):
        if t.kind != "id" or t.text not in LOCK_TOKENS:
            continue
        j = k + 1
        while j < len(body) and body[j].text != "(":
            if body[j].text in (";", "{", "}"):
                j = -1
                break
            j += 1
        if j < 0 or j >= len(body):
            continue
        args = body[j + 1:_match_paren(body, j, "(", ")") - 1]
        mtx = next((a.text for a in reversed(args) if a.kind == "id"), None)
        if mtx is None:
            continue
        unit.ops.append(Op("lock", cname(mtx), (), t.line, k))

    # --- joins -------------------------------------------------------
    for idx, _, recv in _method_sites(body, full, {"join"}):
        unit.ops.append(Op("join", cname(recv), (), body[idx].line, idx))

    # --- hold-and-wait: a lock held across a later blocking op -------
    depths = _brace_depths(body)
    blocking = [o for o in unit.ops if o.kind != "lock"]
    for lock in (o for o in unit.ops if o.kind == "lock"):
        d = depths[lock.idx]
        scope_end = len(body)
        for j in range(lock.idx + 1, len(body)):
            if depths[j] < d:
                scope_end = j
                break
        for o in blocking:
            if o.kind == "cv-wait":
                continue  # wait(lock, pred) releases the mutex
            if lock.idx < o.idx < scope_end:
                lock.hold = True
                break

    # --- writes / consumes / notifies --------------------------------
    for idx, op, recv in _method_sites(body, full, WRITE_OPS):
        unit.writes.append((cname(recv), body[idx].line))
    for _, op, recv in _method_sites(body, full, CONSUME_OPS):
        unit.consumes.add(cname(recv))
    for _, op, recv in _method_sites(body, full, NOTIFY_OPS):
        raw = _resolve(aliases, recv)
        if canon.declared(raw, "condition_variable"):
            unit.notifies.add(cname(recv))


def _find_anchor(body: list, seq: tuple[str, ...]) -> int:
    n = len(body)
    for i in range(n - len(seq) + 1):
        if all(want == "*" or body[i + k].text == want
               for k, want in enumerate(seq)):
            return i + len(seq) - 1
    return -1


def _carveouts(model: Model) -> dict[str, list[tuple[str, int, int]]]:
    """host qual -> [(closure, start, end)] lambda token ranges."""
    out: dict[str, list[tuple[str, int, int]]] = {}
    for host, closure, seq in LAMBDA_CONTEXTS:
        for fn in model.by_name.get(host, ()):
            body = fn.body
            at = _find_anchor(body, seq)
            if at < 0:
                continue
            # The anchor ends at/just before the call's `(`; find the
            # first lambda `{...}` inside that parenthesized group.
            paren = at if body[at].text == "(" else at + 1
            if paren >= len(body) or body[paren].text != "(":
                continue
            pend = _match_paren(body, paren, "(", ")")
            lb = next((k for k in range(paren, pend)
                       if body[k].text == "{"), -1)
            if lb < 0:
                continue
            rb = _match_paren(body, lb, "{", "}")
            out.setdefault(fn.qual, []).append((closure, lb + 1, rb - 1))
    return out


@dataclass
class Analysis:
    units: list[Unit]
    nodes: dict[str, set[str]]                 # closure -> reachable quals
    node_ops: dict[str, dict[tuple, Op]]       # closure -> dedup ops
    edges: list[tuple[str, str, str, Op]]      # waiter, resource, target
    sccs: list[list[str]]
    topo: list[str]
    notify_summary: dict[tuple, set[str]]      # unit key -> cvs notified


_CACHE: list[tuple[int, object, Analysis]] = []


def analyze(model: Model) -> Analysis:
    for mid, ref, res in _CACHE:
        if mid == id(model) and ref is model:
            return res

    canon = _Canon(model)
    carve = _carveouts(model)

    # --- units: scoped functions, with lambda contexts carved out ----
    units: list[Unit] = []
    for fn in model.funcs:
        if not in_scope(fn.file):
            continue
        ranges = carve.get(fn.qual, [])
        host = Unit(fn.qual, fn.cls, fn.file, fn.line, None)
        _scan_unit(fn.body, host, canon, model)
        if ranges:
            def outside(idx: int) -> bool:
                return not any(s <= idx < e for _, s, e in ranges)
            ctx_units = []
            for closure, s, e in ranges:
                cu = Unit(fn.qual, fn.cls, fn.file, fn.line, closure)
                cu.ops = [o for o in host.ops if s <= o.idx < e]
                cu.writes = [w for w in host.writes
                             if any(s <= o.idx < e for o in host.ops
                                    if o.line == w[1])]
                ctx_units.append((cu, s, e))
            # Re-partition writes/consumes/notifies by re-scanning the
            # slices — cheaper than threading indices through every scan.
            for cu, s, e in ctx_units:
                fresh = Unit(fn.qual, fn.cls, fn.file, fn.line, cu.ctx)
                _scan_unit(fn.body[s:e], fresh, canon, model)
                fresh.calls = model.calls_in(fn.body[s:e])
                units.append(fresh)
            masked = [t for k, t in enumerate(fn.body)
                      if outside(k)]
            mhost = Unit(fn.qual, fn.cls, fn.file, fn.line, None)
            _scan_unit(masked, mhost, canon, model)
            mhost.calls = model.calls_in(masked)
            units.append(mhost)
        else:
            host.calls = set(fn.calls)
            units.append(host)

    # --- closures (nodes), with masked hosts and context reach -------
    overrides = {}
    for u in units:
        if u.ctx is None and u.qual in carve:
            overrides[u.qual] = u.calls
    nodes: dict[str, set[str]] = {}
    for cname_, (roots, _) in THREAD_CLOSURES.items():
        node = NODE_RENAME.get(cname_, cname_)
        nodes.setdefault(node, set()).update(
            _typed_reach(model, roots, overrides))
    for u in units:
        if u.ctx is None:
            continue
        host_fn = next(f for f in model.by_name.get(u.qual.split("::")[-1],
                                                    ())
                       if f.qual == u.qual)
        nodes.setdefault(u.ctx, set()).update(
            _typed_reach_calls(model, u.calls, host_fn, overrides))

    def unit_closures(u: Unit) -> set[str]:
        if u.ctx is not None:
            return {u.ctx}
        return {n for n, qs in nodes.items() if u.qual in qs}

    for u in units:
        u.closures = unit_closures(u)

    # --- per-node op inventory (call-summary attribution) ------------
    by_qual: dict[str, list[Unit]] = {}
    for u in units:
        by_qual.setdefault(u.qual, []).append(u)
    node_ops: dict[str, dict[tuple, Op]] = {n: {} for n in nodes}
    for n, quals in nodes.items():
        for q in sorted(quals):
            for u in by_qual.get(q, ()):
                if u.ctx is not None and u.ctx != n:
                    continue
                if u.ctx is None and n not in u.closures:
                    continue
                for o in u.ops:
                    k = (q, o.kind, o.resource)
                    cur = node_ops[n].get(k)
                    if cur is None or o.line < cur.line:
                        merged = tuple(sorted(set(o.consults) |
                                              set(cur.consults if cur
                                                  else ())))
                        o2 = Op(o.kind, o.resource, merged, o.line, o.idx,
                                o.predicate, o.hold or (cur.hold if cur
                                                        else False))
                        node_ops[n][k] = o2
    for u in units:
        if u.ctx is None:
            continue
        for o in u.ops:
            k = (u.qual, o.kind, o.resource)
            if k not in node_ops.setdefault(u.ctx, {}):
                node_ops[u.ctx][k] = o

    # --- consumers / notifiers per resource --------------------------
    consumers: dict[str, set[str]] = {}
    notifier_nodes: dict[str, set[str]] = {}
    for u in units:
        for c in u.consumes:
            for n in u.closures:
                consumers.setdefault(c, set()).add(n)
        for o in u.ops:
            if o.kind == "empty-wait":
                for n in u.closures:
                    consumers.setdefault(o.resource, set()).add(n)
        for cv in u.notifies:
            for n in u.closures:
                notifier_nodes.setdefault(cv, set()).add(n)
    # Transitive notifiers: a closure notifies the cv if any function it
    # reaches does.
    direct_notify = {q: frozenset().union(*(u.notifies
                                            for u in us)) or frozenset()
                     for q, us in by_qual.items()}
    notify_summary_fn = model.propagate_summaries(
        {q: frozenset(v) for q, v in direct_notify.items()})
    for n, quals in nodes.items():
        for q in quals:
            for cv in notify_summary_fn.get(q, ()):
                notifier_nodes.setdefault(cv, set()).add(n)

    notify_summary: dict[tuple, set[str]] = {}
    for u in units:
        s = set(u.notifies)
        if u.ctx is None and u.qual not in carve:
            s |= notify_summary_fn.get(u.qual, set())
        else:
            host_fn = next(f for f in model.funcs if f.qual == u.qual)
            for cq in model.typed_callees(host_fn, u.calls):
                s |= notify_summary_fn.get(cq, set())
        notify_summary[u.key] = s

    # --- mutex acquirer map (for hold-and-wait edges) ----------------
    acquirers: dict[str, set[str]] = {}
    for n, ops in node_ops.items():
        for o in ops.values():
            if o.kind == "lock":
                acquirers.setdefault(o.resource, set()).add(n)

    # --- edges -------------------------------------------------------
    edges: list[tuple[str, str, str, Op]] = []
    for n in sorted(node_ops):
        for o in sorted(node_ops[n].values(),
                        key=lambda o: (o.kind, o.resource)):
            if o.kind == "capacity-wait":
                for d in sorted(consumers.get(o.resource, ())):
                    if d != n:
                        edges.append((n, o.resource, d, o))
            elif o.kind == "cv-wait":
                for d in sorted(notifier_nodes.get(o.resource, ())):
                    if d != n:
                        edges.append((n, o.resource, d, o))
            elif o.kind == "lock" and o.hold:
                for d in sorted(acquirers.get(o.resource, ())):
                    if d != n:
                        edges.append((n, o.resource, d, o))

    # --- SCCs + topological order ------------------------------------
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for a, _, b, _ in edges:
        adj[a].add(b)
    sccs = _sccs(adj)
    topo = _topo(adj) if not sccs else []

    res = Analysis(units=units, nodes=nodes, node_ops=node_ops,
                   edges=edges, sccs=sccs, topo=topo,
                   notify_summary=notify_summary)
    _CACHE.append((id(model), model, res))
    return res


def _typed_reach(model: Model, roots: list[str],
                 overrides: dict[str, set[str]]) -> set[str]:
    root_funcs = [f for f in model.funcs
                  if any(f.qual == r or f.qual.endswith("::" + r)
                         or f.name == r for r in roots)]
    seen: set[str] = set()
    work = list(root_funcs)
    while work:
        fn = work.pop()
        if fn.qual in seen:
            continue
        seen.add(fn.qual)
        for gq in model.typed_callees(fn, overrides.get(fn.qual)):
            if gq not in seen:
                work.extend(g for g in model.funcs if g.qual == gq)
    return seen


def _typed_reach_calls(model: Model, calls: set[str], host: Func,
                       overrides: dict[str, set[str]]) -> set[str]:
    seen: set[str] = set()
    work = []
    for gq in model.typed_callees(host, calls):
        work.extend(g for g in model.funcs if g.qual == gq)
    while work:
        fn = work.pop()
        if fn.qual in seen:
            continue
        seen.add(fn.qual)
        for gq in model.typed_callees(fn, overrides.get(fn.qual)):
            if gq not in seen:
                work.extend(g for g in model.funcs if g.qual == gq)
    return seen


def _sccs(adj: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components that represent cycles: size > 1,
    or a self-loop.  Tarjan, iterative, deterministic order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    counter = [0]

    def strong(v: str) -> None:
        work = [(v, iter(sorted(adj[v])))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on.add(w)
                    work.append((w, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if w in on:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1 or node in adj[node]:
                    out.append(sorted(comp))

    for v in sorted(adj):
        if v not in index:
            strong(v)
    return sorted(out)


def _topo(adj: dict[str, set[str]]) -> list[str]:
    indeg = {n: 0 for n in adj}
    for n, outs in adj.items():
        for d in outs:
            indeg[d] += 1
    order: list[str] = []
    ready = sorted(n for n, d in indeg.items() if d == 0)
    while ready:
        n = ready.pop(0)
        order.append(n)
        for d in sorted(adj[n]):
            indeg[d] -= 1
            if indeg[d] == 0:
                ready.append(d)
        ready.sort()
    return order


def emit_blocking(model: Model) -> str:
    a = analyze(model)
    lines = [HEADER, OPS_HEADER.rstrip("\n")]
    for n in sorted(a.node_ops):
        for (q, kind, res), o in sorted(a.node_ops[n].items()):
            u = next((u for u in a.units if u.qual == q), None)
            file = u.file if u else "?"
            consults = ", ".join(f"`{c}`" for c in o.consults) or "—"
            lines.append(f"| {n} | {file} | `{q}` | {kind} | `{res}` | "
                         f"{consults} |")
    lines.append("")
    lines.append(EDGES_HEADER.rstrip("\n"))
    seen = set()
    for w, r, d, _ in a.edges:
        if (w, r, d) in seen:
            continue
        seen.add((w, r, d))
        lines.append(f"| {w} | `{r}` | {d} |")
    lines.append("")
    lines.append("## Why acyclic")
    lines.append("")
    ncap = sum(1 for o in a.node_ops.get("egress", {}).values()
               if o.kind == "capacity-wait")
    if ncap == 0:
        lines.append("- `egress` capacity-waits: none — the edge-absence "
                     "assertion holds.  Client inboxes are unbounded "
                     "deques, so the delivery edge egress → client never "
                     "waits for space and the §5 cycle stays open "
                     "(docs/THREADING.md §5).")
    else:
        lines.append(f"- `egress` capacity-waits: {ncap} — the "
                     f"edge-absence assertion is VIOLATED.")
    if a.sccs:
        for comp in a.sccs:
            lines.append(f"- CYCLE among {{{', '.join(comp)}}} — the "
                         f"wait-for graph is NOT acyclic.")
    else:
        lines.append("- Every capacity edge points strictly downstream "
                     "and the only cv edges leave `control`, which no "
                     "closure waits on.")
        lines.append(f"- Topological order: "
                     f"{' → '.join(a.topo) if a.topo else '(empty)'}.")
    lines.append("- Empty-ring spins, flag spins, and joins are excluded "
                 "from the graph by the termination rules "
                 "(liveness-discipline checker) and the teardown order "
                 "drain → done → join(clients) → stop → join(threads_).")
    return "\n".join(lines) + "\n"


@checker("blocking-graph")
def check_blocking_graph(model: Model, ctx: Context) -> list[Finding]:
    """Static wait-for graph over (thread closure × resource) must stay
    acyclic; the egress closure must never wait for capacity; the
    generated docs/BLOCKING.md inventory must byte-match the code."""
    a = analyze(model)
    findings: list[Finding] = []

    for n in NEVER_CAPACITY_WAIT:
        for (q, kind, res), o in sorted(a.node_ops.get(n, {}).items()):
            if kind != "capacity-wait":
                continue
            u = next((u for u in a.units if u.qual == q), None)
            findings.append(Finding(
                "blocking-graph", u.file if u else DOC_REL, o.line,
                f"egress-blocks:{q}:{res}",
                f"`{q}` gives the `{n}` closure a capacity wait on "
                f"`{res}` — the egress edge must never block "
                f"(unbounded-inbox rule, docs/THREADING.md §5): a full "
                f"wait here closes the client → rings → egress → inbox "
                f"cycle"))

    for comp in a.sccs:
        cycle_edges = [(w, r, d, o) for w, r, d, o in a.edges
                       if w in comp and d in comp]
        anchor = min(cycle_edges, key=lambda e: (e[3].line, e[0]))[3] \
            if cycle_edges else None
        u = None
        if cycle_edges:
            q = min(q2 for n2 in comp
                    for (q2, _, _) in a.node_ops.get(n2, {}))
            u = next((x for x in a.units if x.qual == q), None)
        via = ", ".join(f"{w}→{d} on `{r}`"
                        for w, r, d, _ in cycle_edges[:6])
        findings.append(Finding(
            "blocking-graph",
            u.file if u else DOC_REL,
            anchor.line if anchor else 1,
            f"cycle:{'->'.join(comp)}",
            f"blocking cycle among thread closures "
            f"{{{', '.join(comp)}}} ({via}) — every closure in the "
            f"cycle can be waiting for another's progress; the "
            f"wait-for graph must stay acyclic"))

    return findings + drift_gate("blocking-graph", ctx, DOC_REL,
                                 emit_blocking(model), "--emit-blocking")


@checker("liveness-discipline")
def check_liveness(model: Model, ctx: Context) -> list[Finding]:
    """Progress rules: predicate-form cv waits whose predicate writers
    all reach a notify on the same cv; every blocking spin consults a
    termination flag some other context writes; join only from control."""
    del ctx
    a = analyze(model)
    findings: list[Finding] = []

    # Who writes which flag, by unit (context granularity matters: the
    # client lambda and its host are different threads).
    writers: dict[str, set[tuple]] = {}
    for u in a.units:
        for var, _line in u.writes:
            writers.setdefault(var, set()).add(u.key)

    for u in a.units:
        for o in u.ops:
            if o.kind == "cv-wait":
                if not o.predicate:
                    findings.append(Finding(
                        "liveness-discipline", u.file, o.line,
                        f"bare-wait:{u.qual}:{o.resource}",
                        f"`{o.resource}.wait(...)` in {u.label} has no "
                        f"predicate — spurious wakeups make a bare wait "
                        f"a liveness bug; use wait(lock, pred)"))
                    continue
                for var in o.consults:
                    for wkey in sorted(writers.get(var, ())):
                        if o.resource in a.notify_summary.get(wkey, ()):
                            continue
                        wu = next(x for x in a.units if x.key == wkey)
                        wline = next((ln for v, ln in wu.writes
                                      if v == var), wu.line)
                        findings.append(Finding(
                            "liveness-discipline", wu.file, wline,
                            f"no-notify:{wu.qual}:{var.split('::')[-1]}",
                            f"{wu.label} writes `{var}` — a predicate "
                            f"variable of the `{o.resource}` wait — but "
                            f"never reaches a notify on that cv: a "
                            f"waiter can sleep through the state change"))
            elif o.kind in ("capacity-wait", "empty-wait", "flag-wait"):
                flags = o.consults
                ok = any(any(wkey != u.key
                             for wkey in writers.get(f, ()))
                         for f in flags)
                if not ok:
                    findings.append(Finding(
                        "liveness-discipline", u.file, o.line,
                        f"spin-no-stop:{u.qual}:"
                        f"{o.resource.split('::')[-1]}",
                        f"{o.kind} spin on `{o.resource}` in {u.label} "
                        f"consults no termination flag that another "
                        f"context writes — unreachable from "
                        f"shutdown()/drain(), the spin cannot be "
                        f"cancelled"))
            elif o.kind == "join":
                outside = sorted(u.closures - {"control"})
                if outside:
                    findings.append(Finding(
                        "liveness-discipline", u.file, o.line,
                        f"join-outside-control:{u.qual}",
                        f"`{o.resource}.join()` in {u.label} is "
                        f"reachable from non-control closure(s) "
                        f"({', '.join(outside)}) — join only from the "
                        f"control closure, which owns teardown order"))
    return findings
