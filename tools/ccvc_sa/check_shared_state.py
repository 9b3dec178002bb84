"""shared-state — inventory of mutable state reachable from the
notifier hot path, gated as a generated document.

The ROADMAP's threaded-notifier-pipeline item needs to know exactly
which mutable state the hot path (decode → concurrency check →
transform → stamp → broadcast) can touch before any thread exists.
This checker walks the call graph from the hot-path roots (listed
below — the std::function send_ callbacks break the static graph, so
the delivery entry points are seeded explicitly) and inventories:

  * namespace-scope mutable globals referenced by a reachable body;
  * function-local statics inside reachable functions;
  * non-const data members of every class with a reachable method.

The inventory is emitted as docs/CONCURRENCY.md (`--emit-concurrency`)
and `--check` requires the committed file to be byte-identical — new
shared mutable state cannot appear without the diff showing up in the
concurrency document, reviewed in the same PR that introduces it.
"""

from __future__ import annotations

from sa_engine import Context, Finding, checker
from sa_model import Model, Var

# Delivery entry points of the star topology hot path.  send_ is a
# std::function at every hop, so each hop's receive side is a root.
# NotifierPipeline::submit is the threaded runtime's ingress edge
# (docs/THREADING.md §2): everything the transform/egress threads touch
# hangs off it.
HOT_PATH_ROOTS = [
    "NotifierSite::on_client_message",
    "ClientSite::on_center_message",
    "ReliableLink::send",
    "ReliableLink::on_frame",
    "Channel::send",
    "NotifierPipeline::submit",
]

DOC_PATH = ("docs", "CONCURRENCY.md")


def _inventory(model: Model):
    reachable = model.reachable(HOT_PATH_ROOTS)
    reachable_funcs = [f for f in model.funcs if f.qual in reachable]

    names_in_bodies: set[str] = set()
    for fn in reachable_funcs:
        names_in_bodies.update(t.text for t in fn.body if t.kind == "id")

    globs = sorted((g for g in model.globals
                    if not g.is_const and g.name in names_in_bodies),
                   key=lambda v: (v.file, v.name))
    statics = sorted((s for s in model.local_statics
                      if not s.is_const and s.owner in reachable),
                     key=lambda v: (v.file, v.owner, v.name))
    hot_classes: dict[str, list[Var]] = {}
    class_files: dict[str, str] = {}
    touched = {f.cls for f in reachable_funcs if f.cls}
    for ci in model.classes.values():
        if ci.name not in touched:
            continue
        members = [m for m in ci.members
                   if m.kind == "member" and not m.is_const]
        if members:
            hot_classes[ci.qual] = sorted(members, key=lambda v: v.name)
            class_files[ci.qual] = ci.file
    return reachable, globs, statics, hot_classes, class_files


def emit_concurrency(model: Model) -> str:
    reachable, globs, statics, hot_classes, class_files = _inventory(model)
    out: list[str] = []
    w = out.append
    w("# Concurrency readiness: shared mutable state inventory")
    w("")
    w("Generated by `python3 tools/ccvc_sa --emit-concurrency`."
      "  Do not edit by hand;")
    w("`ccvc_sa --check` (CI step 11, ctest label `sa`) fails if this file")
    w("drifts from the analyzer's output, so every new piece of mutable"
      " state")
    w("reachable from the hot path surfaces here in the PR that adds it.")
    w("")
    w("This is the precondition artifact for the threaded notifier"
      " pipeline")
    w("([ROADMAP.md](../ROADMAP.md)): before any thread is spawned,"
      " every row")
    w("below must have an owner — confined to one thread, made"
      " immutable, or")
    w("put behind a lock. See [docs/ANALYSIS.md](ANALYSIS.md) for the")
    w("analyzer itself.")
    w("")
    w("## Hot-path roots")
    w("")
    w("The star topology's delivery entry points (the `send_`"
      " `std::function`")
    w("callbacks break the static call graph, so each hop's receive side"
      " is")
    w("seeded explicitly):")
    w("")
    for r in HOT_PATH_ROOTS:
        w(f"- `{r}`")
    w("")
    w(f"Reachable functions (over-approximate, name-merged call graph): "
      f"**{len(reachable)}**.")
    w("")
    w("## Mutable namespace-scope globals referenced by the hot path")
    w("")
    if globs:
        w("| File | Name | Declaration |")
        w("|---|---|---|")
        for g in globs:
            w(f"| `{g.file}` | `{g.name}` | `{g.decl}` |")
    else:
        w("None.")
    w("")
    w("## Function-local statics inside reachable functions")
    w("")
    if statics:
        w("| File | Owning function | Declaration |")
        w("|---|---|---|")
        for s in statics:
            w(f"| `{s.file}` | `{s.owner}` | `{s.decl}` |")
    else:
        w("None.")
    w("")
    w("## Mutable data members of classes with reachable methods")
    w("")
    w("Per-instance state: safe under one-instance-per-thread"
      " confinement,")
    w("shared the moment two threads touch one instance.")
    w("")
    for qual in sorted(hot_classes):
        w(f"### `{qual}` — `{class_files[qual]}`")
        w("")
        w("| Member | Declaration |")
        w("|---|---|")
        for m in hot_classes[qual]:
            w(f"| `{m.name}` | `{m.decl}` |")
        w("")
    return "\n".join(out).rstrip() + "\n"


@checker("shared-state")
def check_shared_state(model: Model, ctx: Context) -> list[Finding]:
    expected = emit_concurrency(model)
    path = ctx.root.joinpath(*DOC_PATH)
    rel = "/".join(DOC_PATH)
    if not path.is_file():
        return [Finding("shared-state", rel, 1, "missing",
                        f"{rel} is missing — generate it with "
                        f"`python3 tools/ccvc_sa --emit-concurrency > {rel}`")]
    actual = path.read_text(encoding="utf-8")
    if actual != expected:
        # Point at the first differing line for a usable message.
        exp_lines = expected.splitlines()
        act_lines = actual.splitlines()
        line = 1
        for i, (a, b) in enumerate(zip(act_lines, exp_lines), 1):
            if a != b:
                line = i
                break
        else:
            line = min(len(act_lines), len(exp_lines)) + 1
        return [Finding(
            "shared-state", rel, line, "drift",
            f"{rel} drifted from the analyzer inventory (first "
            f"difference at line {line}) — regenerate with "
            f"`python3 tools/ccvc_sa --emit-concurrency > {rel}`")]
    return []
