#!/usr/bin/env python3
"""Fixture self-tests for tools/wsqcheck.py.

Each fixture under fixtures/wsqcheck/ starts with a marker comment:

    // wsqcheck-fixture: dest=src/async/foo.cc expect=lock-order:1

The driver builds a throwaway repo root per fixture: the fixture at
`dest`, the real common/thread_annotations.h beside it (fixtures use
the repo's own Mutex/MutexLock/CondVar vocabulary), and a synthetic
compile_commands.json so the libclang frontend has a build to read.
It then runs wsqcheck and asserts the expected findings fire exactly
that many times. `expect=clean` asserts silence. Every check that
`wsqcheck --list-checks` prints must be expected by at least one
bad_* fixture, so a new check cannot land untested.

The frontend defaults to `internal` (self-contained, runs anywhere).
Set WSQCHECK_FRONTEND=clang to exercise the libclang frontend — the
driver exits 3 (ctest SKIP_RETURN_CODE) if wsqcheck reports libclang
unavailable, so a skip never reads as a pass.

Exit status: 0 all fixtures behave, 1 mismatch, 2 setup error,
3 skipped (requested frontend unavailable).
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
TOOL = REPO / "tools" / "wsqcheck.py"
ANNOTATIONS = REPO / "src" / "common" / "thread_annotations.h"
FIXTURES = HERE / "fixtures" / "wsqcheck"
MARKER = re.compile(r"wsqcheck-fixture:\s*dest=(\S+)\s+expect=(\S+)")
FINDING = re.compile(r"^(\S+?):(\d+): \[([a-z-]+)\]")


def parse_expect(spec):
    if spec == "clean":
        return {}
    out = {}
    for part in spec.split(","):
        check, _, count = part.partition(":")
        out[check] = int(count) if count else 1
    return out


def make_root(tmp, fixture, dest):
    root = pathlib.Path(tmp)
    target = root / dest
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(fixture, target)
    common = root / "src" / "common"
    common.mkdir(parents=True, exist_ok=True)
    shutil.copy(ANNOTATIONS, common / "thread_annotations.h")
    build = root / "build"
    build.mkdir()
    # A header fixture has no .cc to include it, so it is parsed as
    # its own translation unit.
    tus = sorted(root.rglob("*.cc")) or [target]
    entries = [{
        "directory": str(root),
        "command": f"clang++ -x c++ -std=c++20 -I{root}/src -c {p}",
        "file": str(p),
    } for p in tus]
    (build / "compile_commands.json").write_text(
        json.dumps(entries, indent=1), encoding="utf-8")
    return root


def read_marker(fixture):
    first = fixture.read_text(encoding="utf-8").splitlines()[0]
    m = MARKER.search(first)
    return (m.group(1), parse_expect(m.group(2))) if m else (None, None)


def run_fixture(fixture, frontend):
    dest, expect = read_marker(fixture)
    if dest is None:
        return [f"{fixture.name}: missing wsqcheck-fixture marker"], False
    with tempfile.TemporaryDirectory(prefix="wsqcheck-fx-") as tmp:
        root = make_root(tmp, fixture, dest)
        proc = subprocess.run(
            [sys.executable, str(TOOL), "--root", str(root),
             "--compile-commands",
             str(root / "build" / "compile_commands.json"),
             "--frontend", frontend],
            capture_output=True, text=True)
        if proc.returncode == 3:
            return [], True   # frontend unavailable: skip, loudly
        if proc.returncode not in (0, 1):
            return [f"{fixture.name}: wsqcheck exited "
                    f"{proc.returncode}: {proc.stderr.strip()}"], False
        got = {}
        for line in proc.stdout.splitlines():
            fm = FINDING.match(line)
            if fm:
                got[fm.group(3)] = got.get(fm.group(3), 0) + 1
        if got != expect:
            return [f"{fixture.name}: expected {expect or 'clean'}, "
                    f"got {got or 'clean'}\n"
                    + "\n".join("  " + l
                                for l in proc.stdout.splitlines())], \
                False
    return [], False


def main():
    frontend = os.environ.get("WSQCHECK_FRONTEND", "internal")
    if frontend not in ("internal", "clang", "auto"):
        print(f"wsqcheck_selftest: bad WSQCHECK_FRONTEND={frontend}",
              file=sys.stderr)
        return 2
    if not TOOL.is_file() or not ANNOTATIONS.is_file():
        print("wsqcheck_selftest: tool or annotations header missing",
              file=sys.stderr)
        return 2
    fixtures = sorted(FIXTURES.glob("*.h")) + \
        sorted(FIXTURES.glob("*.cc"))
    if not fixtures:
        print(f"wsqcheck_selftest: no fixtures in {FIXTURES}",
              file=sys.stderr)
        return 2
    checks = subprocess.run(
        [sys.executable, str(TOOL), "--list-checks"],
        capture_output=True, text=True, check=True).stdout.split()
    covered = set()
    for fixture in fixtures:
        if fixture.name.startswith("bad_"):
            covered.update(read_marker(fixture)[1] or ())
    uncovered = [c for c in checks if c not in covered]
    failures = []
    for fixture in fixtures:
        errs, skipped = run_fixture(fixture, frontend)
        if skipped:
            print(f"wsqcheck_selftest: SKIPPED — frontend "
                  f"'{frontend}' unavailable (libclang missing); "
                  "this is not a pass", file=sys.stderr)
            return 3
        failures.extend(errs)
    for f in failures:
        print(f"FAIL {f}")
    for c in uncovered:
        print(f"FAIL check '{c}' has no bad_* fixture that expects it")
    print(f"wsqcheck_selftest: {len(fixtures) - len(failures)}/"
          f"{len(fixtures)} fixtures OK [{frontend} frontend]",
          file=sys.stderr)
    return 1 if failures or uncovered else 0


if __name__ == "__main__":
    sys.exit(main())
