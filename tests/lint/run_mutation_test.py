#!/usr/bin/env python3
"""Checkpoint-coverage mutation tests over real simulator code.

The property the ckpt-coverage rule exists for: deleting the line that
transfers a member from a real checkpoint hook must turn the lint red.
Each mutation below first asserts the pristine file lints clean, then
removes one field's line and asserts ringclu_lint reports exactly that
member:
  - 'out.i64(rotate_);' from RingSteering::save_state, one of the
    virtual save_state/restore_state pairs the steering policies keep;
  - 'io.u64(tick_);' from SetAssocCache::transfer, a one-list transfer();
  - 'io.items(values_, ...);' from ValueMap::transfer, whose member still
    appears in the body's bounds and checks: only a transfer counts.
"""

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(ROOT, "tools", "lint", "ringclu_lint.py")

# (file, line to delete, member the lint must name, files linted with it:
# the class declaration when the hook body is out of line)
MUTATIONS = (
    ("src/steer/ring_steering.h", "    out.i64(rotate_);\n", "rotate_", ()),
    ("src/mem/cache.h", "    io.u64(tick_);\n", "tick_", ()),
    ("src/cluster/value_map.cpp",
     "  io.items(values_, 1u << 24, ValueInfo::kCheckpointBytes);\n",
     "values_", ("src/cluster/value_map.h",)),
)


def run_lint(files):
    return subprocess.run(
        [sys.executable, LINT, "--root", ROOT, "--files", *files],
        capture_output=True,
        text=True,
    )


def check(relpath: str, mutation: str, member: str, companions) -> int:
    target = os.path.join(ROOT, relpath)
    with open(target, "r", encoding="utf-8") as f:
        original = f.read()
    if original.count(mutation) != 1:
        print(f"mutation anchor {mutation!r} not found exactly once in "
              f"{target}; update this test", file=sys.stderr)
        return 2

    others = [os.path.join(ROOT, path) for path in companions]
    clean = run_lint([target, *others])
    if clean.returncode != 0:
        print(f"lint is not clean on the pristine {relpath}:",
              file=sys.stderr)
        sys.stderr.write(clean.stdout)
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        mutated_path = os.path.join(tmp, os.path.basename(target))
        with open(mutated_path, "w", encoding="utf-8") as f:
            f.write(original.replace(mutation, ""))
        mutated = run_lint([mutated_path, *others])

    if mutated.returncode != 1:
        print(f"mutated {relpath}: expected exit 1, got "
              f"{mutated.returncode}", file=sys.stderr)
        sys.stderr.write(mutated.stdout)
        return 1
    if "ckpt-coverage" not in mutated.stdout or member not in mutated.stdout:
        print(f"mutated {relpath}: missing ckpt-coverage finding for "
              f"{member}:", file=sys.stderr)
        sys.stderr.write(mutated.stdout)
        return 1
    print(f"mutation detected: dropping {mutation.strip()!r} from {relpath} "
          "fails the lint")
    return 0


def main() -> int:
    status = 0
    for relpath, mutation, member, companions in MUTATIONS:
        status = max(status, check(relpath, mutation, member, companions))
    return status


if __name__ == "__main__":
    sys.exit(main())
