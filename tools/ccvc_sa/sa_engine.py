"""sa_engine — checker registry, finding model, and suppression logic.

Suppression has two layers, both *live-checked* (an entry that matches
nothing is itself an error, so the baseline can only shrink):

  * inline pragma — `// ccvc-sa: allow(<checker>)` on the offending
    line (collected by the lexer);
  * baseline file — `tools/ccvc_sa/baseline.txt` lines of the form
    `checker|file-glob|key-glob`, for deliberate patterns that are part
    of the design (e.g. the corruption-drop catch in ReliableLink).

Checkers are callables `(model, ctx) -> list[Finding]` registered via
@checker; Finding.key is the stable identity used by baseline globs
(function qualname + detail, never a line number, so line churn does
not invalidate suppressions).
"""

from __future__ import annotations

import fnmatch
import pathlib
from dataclasses import dataclass, field


@dataclass
class Finding:
    checker: str
    file: str
    line: int
    key: str      # stable identity for baseline matching
    msg: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.checker}] {self.msg}"


@dataclass
class Context:
    root: pathlib.Path
    xref: object            # sa_schema.SchemaXref
    extras: dict = field(default_factory=dict)


CHECKERS: list[tuple[str, object]] = []


def drift_gate(checker_name: str, ctx: Context, rel: str, expected: str,
               emit_flag: str) -> list[Finding]:
    """The byte-identical gate every generated doc sits behind: a
    `missing` finding if `rel` is absent, a `drift` finding at the first
    differing line if it does not match `expected`."""
    regen = f"`python3 tools/ccvc_sa {emit_flag} > {rel}`"
    path = ctx.root / rel
    if not path.is_file():
        return [Finding(checker_name, rel, 1, "missing",
                        f"{rel} not found — generate it with {regen}")]
    actual = path.read_text(encoding="utf-8")
    if actual == expected:
        return []
    act, exp = actual.splitlines(), expected.splitlines()
    line = next((i for i, (a, b) in enumerate(zip(act, exp), 1) if a != b),
                min(len(act), len(exp)) + 1)
    return [Finding(checker_name, rel, line, "drift",
                    f"{rel} does not match the code (byte-identical "
                    f"check, first difference at line {line}) — "
                    f"regenerate with {regen}")]


def checker(name: str):
    def deco(fn):
        CHECKERS.append((name, fn))
        return fn
    return deco


@dataclass
class BaselineEntry:
    checker: str
    file_glob: str
    key_glob: str
    lineno: int
    hits: int = 0

    def matches(self, f: Finding) -> bool:
        return (self.checker == f.checker
                and fnmatch.fnmatchcase(f.file, self.file_glob)
                and fnmatch.fnmatchcase(f.key, self.key_glob))


def load_baseline(path: pathlib.Path) -> tuple[list[BaselineEntry], list[str]]:
    entries: list[BaselineEntry] = []
    errors: list[str] = []
    if not path.is_file():
        return entries, errors
    for i, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            errors.append(f"{path.name}:{i}: malformed entry (want "
                          f"checker|file-glob|key-glob): {line!r}")
            continue
        entries.append(BaselineEntry(parts[0].strip(), parts[1].strip(),
                                     parts[2].strip(), i))
    return entries, errors


@dataclass
class RunResult:
    findings: list[Finding]          # unsuppressed
    suppressed: list[Finding]
    errors: list[str]                # dead suppressions, config problems

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors


def run(model, ctx: Context, baseline_path: pathlib.Path,
        only: str | None = None) -> RunResult:
    # `only` is a comma-separated subset of checker names; an unknown
    # name is a configuration error, not a silent no-op run.
    wanted: set[str] | None = None
    if only:
        wanted = {s.strip() for s in only.split(",") if s.strip()}
        known = {name for name, _ in CHECKERS}
        unknown = sorted(wanted - known)
        if unknown:
            return RunResult(findings=[], suppressed=[],
                             errors=[f"unknown checker(s): "
                                     f"{', '.join(unknown)}"])
    raw: list[Finding] = []
    for name, fn in CHECKERS:
        if wanted is not None and name not in wanted:
            continue
        raw.extend(fn(model, ctx))
    raw.sort(key=lambda f: (f.file, f.line, f.checker, f.key))

    entries, errors = load_baseline(baseline_path)
    errors.extend(getattr(ctx.xref, "errors", []))

    # Track which inline allows fired so dead pragmas are flagged too.
    used_allows: set[tuple[str, int, str]] = set()
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for f in raw:
        allow_here = model.allows.get(f.file, {}).get(f.line, set())
        if f.checker in allow_here:
            used_allows.add((f.file, f.line, f.checker))
            suppressed.append(f)
            continue
        hit = next((e for e in entries if e.matches(f)), None)
        if hit is not None:
            hit.hits += 1
            suppressed.append(f)
            continue
        findings.append(f)

    active = {name for name, _ in CHECKERS}
    if only is None:
        for e in entries:
            if e.hits == 0:
                errors.append(
                    f"dead suppression: {baseline_path.name}:{e.lineno} "
                    f"`{e.checker}|{e.file_glob}|{e.key_glob}` matched "
                    f"no finding — delete it")
        for file, per_line in model.allows.items():
            for line, names in per_line.items():
                for name in names:
                    if name not in active:
                        errors.append(f"{file}:{line}: allow({name}) names "
                                      f"an unknown checker")
                    elif (file, line, name) not in used_allows:
                        errors.append(f"{file}:{line}: dead allow({name}) "
                                      f"pragma suppresses nothing — delete it")
    return RunResult(findings=findings, suppressed=suppressed, errors=errors)
