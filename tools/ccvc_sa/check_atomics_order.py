"""atomics-order — explicit, documented memory orders on every atomic op.

Two rules, same spirit as the wire-schema drift gate: the code is the
source of truth, the doc is generated from it, and CI fails when they
disagree.

  1. Every atomic member operation (`.load/.store/.exchange/fetch_*/
     compare_exchange_*`) anywhere under src/ must pass an explicit
     `std::memory_order_*` argument.  A defaulted op silently means
     seq_cst — usually stronger than the protocol needs, and worse,
     it means nobody wrote down *why* the op needs what it needs.
  2. The full (function, variable, op, orders) table must byte-match
     docs/ATOMICS.md (regenerate with `--emit-atomics`).  Changing an
     order without touching the doc — or vice versa — is a drift
     finding, which forces every ordering decision through review.

The scan walks function bodies in the cross-TU model, so the table
also names the function each op lives in — the unit a reviewer reasons
about when auditing an acquire/release pairing.
"""

from __future__ import annotations

from sa_engine import Context, Finding, checker, drift_gate
from sa_model import Func, Model

ATOMIC_OPS = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_or",
    "fetch_and", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong",
}

DOC_REL = "docs/ATOMICS.md"

HEADER = """\
# ATOMICS.md — memory-order inventory (generated)

Generated by `python3 tools/ccvc_sa --emit-atomics`.  **Do not edit by
hand** — `ccvc_sa --check` (CI step 11, ctest label `sa`) fails on
any byte difference (`atomics-order` checker), so every ordering change
is forced through this table and its review.

One row per atomic operation under `src/`: the function it lives in,
the atomic variable, the operation, and the explicit memory order(s)
passed (`compare_exchange_*` lists success, failure).  Operations with
a defaulted order never reach this table — they are findings.  The
pairing rationale lives next to each variable's declaration and in
docs/THREADING.md §2; this table is the cross-TU index that none of
those comments can provide.

| file | function | variable | op | order(s) |
|---|---|---|---|---|
"""


def _receiver(body: list, dot_idx: int) -> str:
    """Identifier owning the `.`/`->` at dot_idx, bracket-matching
    backwards over `name[...]` / `(*p)` style accesses."""
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


def _call_args(body: list, open_idx: int) -> tuple[list, int]:
    """Tokens inside the paren opened at open_idx, and the close idx."""
    depth = 0
    for j in range(open_idx, len(body)):
        t = body[j].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return body[open_idx + 1:j], j
    return body[open_idx + 1:], len(body)


def scan_func(fn: Func) -> list[tuple[str, str, str, list[str]]]:
    """(var, op, orders-joined, order list) per atomic op in fn's body;
    empty order list == defaulted."""
    out: list[tuple[str, str, str, list[str]]] = []
    body = fn.body
    n = len(body)
    for k, t in enumerate(body):
        if t.kind != "id" or t.text not in ATOMIC_OPS:
            continue
        if k == 0 or body[k - 1].text not in (".", "->"):
            continue
        if k + 1 >= n or body[k + 1].text != "(":
            continue
        var = _receiver(body, k - 1)
        args, _ = _call_args(body, k + 1)
        orders = [a.text for a in args
                  if a.kind == "id" and a.text.startswith("memory_order")]
        out.append((var, t.text, str(body[k].line), orders))
    return out


def collect(model: Model) -> list[tuple[str, str, str, str, list[str]]]:
    """Sorted (file, qual, var, op, orders) rows for every atomic op."""
    rows = []
    for fn in model.funcs:
        for var, op, _line, orders in scan_func(fn):
            rows.append((fn.file, fn.qual, var, op, orders))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4]))
    return rows


def emit_atomics(model: Model) -> str:
    lines = [HEADER.rstrip("\n")]
    seen = set()
    for file, qual, var, op, orders in collect(model):
        if not orders:
            continue  # defaulted ops are findings, never table rows
        key = (file, qual, var, op, tuple(orders))
        if key in seen:
            continue  # one row per distinct op site shape, not per call
        seen.add(key)
        shown = ", ".join(o.removeprefix("memory_order_") for o in orders)
        lines.append(f"| {file} | `{qual}` | `{var}` | {op} | {shown} |")
    return "\n".join(lines) + "\n"


@checker("atomics-order")
def check_atomics_order(model: Model, ctx: Context) -> list[Finding]:
    findings: list[Finding] = []
    for fn in model.funcs:
        for var, op, line, orders in scan_func(fn):
            if not orders:
                findings.append(Finding(
                    "atomics-order", fn.file, int(line),
                    f"defaulted-order:{fn.qual}:{var}:{op}",
                    f"`{var}.{op}(...)` in {fn.qual}() has no explicit "
                    f"memory_order — defaulted seq_cst hides the protocol; "
                    f"pick an order and record it in docs/ATOMICS.md"))

    return findings + drift_gate("atomics-order", ctx, DOC_REL,
                                 emit_atomics(model), "--emit-atomics")
