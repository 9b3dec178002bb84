#!/usr/bin/env python3
"""Per-checker regression tests for tools/ccvc_sa.

Two fixture trees under tests/sa/fixtures/ are staged into temporary
roots — real analyzer code, empty baseline, generated docs — and run
through `ccvc_sa --check`:

  bad/   seeds violations for every checker and must produce exactly
         the expected per-checker finding counts, nothing more,
         nothing less.
  good/  near-miss patterns the checkers must NOT flag: a transform-
         confined plain write, a mutex-guarded two-closure write, an
         atomic global written on the hot path, a plain global written
         only outside every closure, an allocation outside the hot-path
         closure, a live allow() pragma on a deliberate budget hit,
         explicit-order atomics.  Must run clean (exit 0).

Coverage is enforced structurally: EXPECTED_BAD below is compared
against the checker registry (`ccvc_sa --list`), so adding a checker
without a fixture — or retiring one without pruning its row — fails
this test.

Staging generates ATOMICS.md / HOTPATH.md / BLOCKING.md from the
fixture tree itself, so the three drift gates see a consistent world
and only the seeded violations fire.

Exit status: 0 all cases pass, 1 any mismatch, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

FINDING_RE = re.compile(
    r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<checker>[a-z\-]+)\] ")

# checker -> finding count the bad/ tree must yield.
EXPECTED_BAD = {
    "wire-taint": 1,
    "exception-discipline": 1,
    "single-writer": 2,        # two-closure member + hot-path global
    "atomics-order": 1,
    "hot-path-budget": 1,
    "blocking-graph": 1,       # capacity wait on the egress closure
    "liveness-discipline": 2,  # spin w/o stop flag ×2 (egress + go_)
}

EMIT_DOCS = {
    "--emit-atomics": "ATOMICS.md",
    "--emit-hotpath": "HOTPATH.md",
    "--emit-blocking": "BLOCKING.md",
}


def run_sa(sa_dir: pathlib.Path, root: pathlib.Path,
           *flags: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(sa_dir), "--root", str(root), *flags],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def stage(repo: pathlib.Path, fixture: pathlib.Path,
          dest: pathlib.Path) -> pathlib.Path:
    """Fixture src + real analyzer + empty baseline + generated docs."""
    shutil.copytree(fixture / "src", dest / "src")
    shutil.copytree(repo / "tools" / "ccvc_sa", dest / "tools" / "ccvc_sa")
    (dest / "tools" / "ccvc_sa" / "baseline.txt").write_text("")
    docs = dest / "docs"
    docs.mkdir()
    (docs / "schema.json").write_text('{"messages": []}\n')
    sa_dir = dest / "tools" / "ccvc_sa"
    for flag, name in EMIT_DOCS.items():
        code, out = run_sa(sa_dir, dest, flag)
        if code != 0:
            raise RuntimeError(f"{flag} failed on staged fixture:\n{out}")
        (docs / name).write_text(out)
    return sa_dir


def count_checkers(output: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for line in output.splitlines():
        m = FINDING_RE.match(line)
        if m:
            c = m.group("checker")
            counts[c] = counts.get(c, 0) + 1
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=pathlib.Path, required=True,
                    help="repo root (location of tools/ccvc_sa)")
    args = ap.parse_args()
    repo = args.root.resolve()
    fixtures = repo / "tests" / "sa" / "fixtures"
    if not (repo / "tools" / "ccvc_sa").is_dir() or not fixtures.is_dir():
        print(f"sa_selftest: missing tools/ccvc_sa or {fixtures}",
              file=sys.stderr)
        return 2

    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="ccvc_sa_selftest_") as td:
        tmp = pathlib.Path(td)

        # --- registry coverage: every checker has a bad-tree row -----
        good_root = tmp / "good"
        sa_dir = stage(repo, fixtures / "good", good_root)
        code, out = run_sa(sa_dir, good_root, "--list")
        if code != 0:
            print(f"sa_selftest: --list failed:\n{out}", file=sys.stderr)
            return 2
        registered = {line.split(":", 1)[0] for line in out.splitlines()
                      if ":" in line}
        if registered != set(EXPECTED_BAD):
            uncovered = registered - set(EXPECTED_BAD)
            stale = set(EXPECTED_BAD) - registered
            failures.append(
                f"fixture coverage drifted from the checker registry: "
                f"uncovered={sorted(uncovered)} stale={sorted(stale)}")

        # --- good tree: near-misses stay clean -----------------------
        code, out = run_sa(sa_dir, good_root, "--check")
        if code != 0 or count_checkers(out):
            failures.append(f"good tree: want exit 0 with no findings, "
                            f"got exit {code}\n{out}")

        # --- bad tree: exactly the expected finding multiset ---------
        bad_root = tmp / "bad"
        sa_dir = stage(repo, fixtures / "bad", bad_root)
        code, out = run_sa(sa_dir, bad_root, "--check")
        got = count_checkers(out)
        if code != 1:
            failures.append(f"bad tree: want exit 1, got {code}\n{out}")
        for checker in sorted(set(EXPECTED_BAD) | set(got)):
            want, have = EXPECTED_BAD.get(checker, 0), got.get(checker, 0)
            if want != have:
                failures.append(
                    f"bad tree: checker '{checker}' want {want} "
                    f"finding(s), got {have}")
        if any(f.startswith("bad tree:") for f in failures):
            failures.append(f"bad tree output was:\n{out}")

    if failures:
        for f in failures:
            print(f"sa_selftest: FAIL: {f}")
        return 1
    print(f"sa_selftest: OK ({len(EXPECTED_BAD)} checkers, "
          f"{sum(EXPECTED_BAD.values())} seeded findings rejected, "
          "good tree clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
