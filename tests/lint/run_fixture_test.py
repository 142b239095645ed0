#!/usr/bin/env python3
"""Fixture self-test for tools/lint/ringclu_lint.py.

Runs the linter in --strict mode over every .cc file in
tests/lint/fixtures/ and compares its findings byte-for-byte against the
expected_findings.txt golden, pinning rule behavior, messages, line
attribution, and suppression semantics the same way the simulator's
goldens pin counters.  Also asserts that every rule family appears at
least once, so deleting a rule (or a fixture) cannot pass silently.

Regenerate the golden after an intentional rule change with:

    RINGCLU_REGEN_GOLDEN=1 python3 tests/lint/run_fixture_test.py
"""

import difflib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(ROOT, "tools", "lint", "ringclu_lint.py")
GOLDEN = os.path.join(HERE, "expected_findings.txt")

# Every rule the seeded fixtures must trip at least once.
EXPECTED_RULES = (
    "det-unordered-decl",
    "det-unordered-iter",
    "det-ptr-key",
    "det-nondet-source",
    "env-getenv",
    "contract-side-effect",
    "strict-suppression",
)


def main() -> int:
    fixtures = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(HERE,
                                                              "fixtures")):
        for name in filenames:
            if name.endswith(".cc"):
                fixtures.append(os.path.join(dirpath, name))
    fixtures.sort()
    if not fixtures:
        print("no fixtures found under tests/lint/fixtures/",
              file=sys.stderr)
        return 2

    proc = subprocess.run(
        [sys.executable, LINT, "--strict", "--root", ROOT,
         "--files", *fixtures],
        capture_output=True,
        text=True,
    )
    got = proc.stdout
    if proc.returncode != 1:
        print(f"expected exit status 1 (findings), got {proc.returncode}",
              file=sys.stderr)
        sys.stderr.write(proc.stderr)
        return 1

    missing = [rule for rule in EXPECTED_RULES if f"[{rule}]" not in got]
    if missing:
        print(f"rules never triggered by the fixtures: {missing}",
              file=sys.stderr)
        return 1

    if os.environ.get("RINGCLU_REGEN_GOLDEN"):
        with open(GOLDEN, "w", encoding="utf-8") as f:
            f.write(got)
        print(f"regenerated {GOLDEN} ({len(got.splitlines())} findings)")
        return 0

    with open(GOLDEN, "r", encoding="utf-8") as f:
        want = f.read()
    if got != want:
        sys.stdout.writelines(difflib.unified_diff(
            want.splitlines(keepends=True),
            got.splitlines(keepends=True),
            fromfile="expected_findings.txt",
            tofile="ringclu_lint output",
        ))
        return 1
    print(f"fixture findings match golden "
          f"({len(got.splitlines())} findings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
