"""hot-path-budget — allocation and complexity budget for the delivery
hot path, gated as a generated document.

The ROADMAP's million-site scale driver wants a zero-allocation hot
path.  This checker makes the current distance from that goal a
first-class, reviewed artifact instead of folklore: it walks the
type-refined closure from check_single_writer.hot_path_roots() — the
simulator's delivery roots plus the roots of every pipeline thread
closure except the control plane (drain/shutdown run per session, not
per op) — and flags, per reachable function body:

  * heap allocation — `new` expressions, `make_unique`/`make_shared`,
    growth calls on containers (`push_back`, `emplace_back`, `resize`,
    `reserve`, `insert`, `emplace`, ...), and `std::string`/`to_string`
    temporaries;
  * unbounded work — loops whose control expression mentions a
    site-count-sized container (SITE_SIZED below), i.e. O(sites) work
    per delivered operation.

Every hit is both a finding (fix it, pragma it with a one-line why, or
baseline it with rationale) and a row in the generated docs/HOTPATH.md
(`--emit-hotpath`), which is byte-identical drift-gated: the budget
cannot grow silently, and every burn-down shows up as deleted rows in
the PR diff.  The closure uses Model.reachable_typed, not the
name-merged graph — a budget that flagged functions the hot path
cannot actually call would train people to ignore it.
"""

from __future__ import annotations

from sa_engine import Context, Finding, checker, drift_gate
from sa_model import Func, Model
from check_single_writer import hot_path_roots

DOC_REL = "docs/HOTPATH.md"

# Container-growth / allocating calls when invoked as `recv.op(...)`.
GROWTH_CALLS = {
    "push_back", "emplace_back", "push_front", "emplace_front",
    "resize", "reserve", "insert", "emplace", "append", "assign",
}
ALLOC_FUNCS = {"make_unique", "make_shared"}
STRING_TEMPS = {"to_string", "string"}

# Identifiers that size with the number of client sites.  A loop whose
# header mentions one of these does O(sites) work per delivered op —
# exactly what the million-site driver cannot afford on the hot path.
SITE_SIZED = {
    "num_sites", "num_sites_", "sites", "sites_", "clients", "clients_",
    "assemblers_", "outgoing_", "links_", "inboxes",
}

HEADER = """\
# HOTPATH.md — allocation & complexity budget (generated)

Generated by `python3 tools/ccvc_sa --emit-hotpath`.  **Do not edit by
hand** — `ccvc_sa --check` (CI step 11, ctest label `sa`) fails on
any byte difference (`hot-path-budget` checker), so the budget can only
change in a PR that shows the diff.

Each row is one allocation site or site-count-sized loop inside the
type-refined call closure of the delivery hot path: the simulator's
delivery roots plus the pipeline's per-op thread closures, both listed
once in tools/ccvc_sa/check_single_writer.py.  The ROADMAP's
million-site scale driver wants this table empty of `alloc` rows on
the per-op path; rows that are deliberate (amortized growth into
reserved capacity, O(sites) fan-out that *is* the broadcast's job)
carry an inline `ccvc-sa: allow` pragma or a baseline entry with
rationale — see tools/ccvc_sa/baseline.txt.

| file | function | kind | what |
|---|---|---|---|
"""


def _receiver(body: list, dot_idx: int) -> str:
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


def _paren_slice(body: list, open_idx: int) -> list:
    depth = 0
    for j in range(open_idx, len(body)):
        t = body[j].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return body[open_idx + 1:j]
    return body[open_idx + 1:]


def scan_func(fn: Func) -> list[tuple[str, str, int]]:
    """(kind, what, line) per budget hit in fn's body.
    kind in {"alloc", "loop"}."""
    hits: list[tuple[str, str, int]] = []
    body = fn.body
    n = len(body)
    for k, t in enumerate(body):
        if t.kind != "id":
            continue
        nxt = body[k + 1].text if k + 1 < n else ""
        prev = body[k - 1].text if k > 0 else ""
        if t.text == "new" and k + 1 < n and body[k + 1].kind == "id":
            hits.append(("alloc", f"new {body[k + 1].text}", t.line))
        elif t.text in ALLOC_FUNCS and nxt in ("(", "<"):
            hits.append(("alloc", f"{t.text}(...)", t.line))
        elif t.text in STRING_TEMPS and nxt == "(" and (
                t.text != "string" or prev == "::"):
            hits.append(("alloc", f"{t.text}(...) temporary", t.line))
        elif t.text in GROWTH_CALLS and prev in (".", "->") and nxt == "(":
            recv = _receiver(body, k - 1)
            hits.append(("alloc", f"{recv}.{t.text}(...)", t.line))
        elif t.text == "for" and nxt == "(":
            header_ids = {h.text for h in _paren_slice(body, k + 1)
                          if h.kind == "id"}
            sized = sorted(header_ids & SITE_SIZED)
            if sized:
                hits.append(("loop", f"over {', '.join(sized)}", t.line))
    return hits


def collect(model: Model) -> list[tuple[Func, str, str, int]]:
    closure = model.reachable_typed(hot_path_roots())
    rows: list[tuple[Func, str, str, int]] = []
    for fn in model.funcs:
        if fn.qual not in closure:
            continue
        for kind, what, line in scan_func(fn):
            rows.append((fn, kind, what, line))
    rows.sort(key=lambda r: (r[0].file, r[0].qual, r[3], r[1], r[2]))
    return rows


def emit_hotpath(model: Model) -> str:
    lines = [HEADER.rstrip("\n")]
    seen = set()
    for fn, kind, what, _line in collect(model):
        key = (fn.file, fn.qual, kind, what)
        if key in seen:
            continue
        seen.add(key)
        lines.append(f"| {fn.file} | `{fn.qual}` | {kind} | `{what}` |")
    return "\n".join(lines) + "\n"


@checker("hot-path-budget")
def check_hot_path(model: Model, ctx: Context) -> list[Finding]:
    findings: list[Finding] = []
    for fn, kind, what, line in collect(model):
        findings.append(Finding(
            "hot-path-budget", fn.file, line,
            f"{kind}:{fn.qual}:{what}",
            f"hot-path {('allocation' if kind == 'alloc' else 'O(sites) loop')}"
            f" in {fn.qual}(): {what} — fix, pragma with a why, or baseline "
            f"with rationale (budget tracked in docs/HOTPATH.md)"))
    return findings + drift_gate("hot-path-budget", ctx, DOC_REL,
                                 emit_hotpath(model), "--emit-hotpath")
