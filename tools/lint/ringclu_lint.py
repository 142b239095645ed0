#!/usr/bin/env python3
"""ringclu-lint: project-specific static analysis for the ringclu simulator.

Every guarantee this reproduction stands on -- byte-identical goldens,
bit-identical checkpoint restore, byte-identical serial result stores --
is a *determinism* invariant.  Runtime tests can only observe the
configurations they happen to run; this tool checks the classes of bugs
that break those invariants statically, for every translation unit in the
CMake-exported compile_commands.json.  (Checkpoint completeness is not a
lint rule: the CheckpointEquality tests compare a loaded Processor with
the one that saved it through defaulted operator==.)

Rule families (see DESIGN.md section 12 for the full catalog):

  determinism
    det-unordered-decl   unordered_map/unordered_set declared in simulator
                         code must carry an order-insensitivity annotation.
    det-unordered-iter   iterating an unordered container (range-for or
                         begin()/end()) injects address-dependent ordering.
    det-ptr-key          std::map/std::set keyed by a pointer orders by
                         address: ASLR-dependent iteration order.
    det-nondet-source    rand/time/std::random_device/std::chrono inside a
                         sim-state module feeds wall-clock or entropy into
                         simulated state.  Wall-clock *timing* sites carry
                         an explicit allow(wallclock) suppression.

  env/config hygiene
    env-getenv           direct getenv() bypasses the strict parse_uint /
                         parse_int/parse_bool helpers (util/env.h is the
                         only sanctioned caller).

  contracts
    contract-side-effect a mutating or blocking member call (wait, pop[_*],
                         push[_*], insert, erase, submit[_*], next, release,
                         allocate, step, run) inside RINGCLU_EXPECTS /
                         RINGCLU_ENSURES / RINGCLU_ASSERT: with
                         -DRINGCLU_CONTRACTS=OFF the condition is an
                         unevaluated sizeof operand, so the call vanishes.

Suppression syntax (same line as the finding, or an immediately preceding
comment-only line):

    // ringclu-lint: allow(<rule>)
    // ringclu-lint: allow(<rule>: <reason>)

"wallclock" is accepted as an alias for det-nondet-source, matching the
vocabulary of the determinism threat model.

--strict additionally rejects suppressions that name an unknown rule and
suppressions that suppress nothing (so stale annotations rot loudly).

The analyzer is self-contained (no libclang requirement: the build
container has no clang toolchain) -- it ships a comment/string-aware lexer
and consumes compile_commands.json for the translation-unit list.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import re
import sys
from dataclasses import dataclass

RULES = {
    "det-unordered-decl": (
        "unordered containers in simulator code need an "
        "order-insensitivity annotation"
    ),
    "det-unordered-iter": (
        "iteration over an unordered container is address-ordered"
    ),
    "det-ptr-key": "pointer-keyed ordered container iterates in ASLR order",
    "det-nondet-source": (
        "wall-clock/entropy source inside a sim-state module"
    ),
    "env-getenv": (
        "direct getenv() bypasses the strict util/env.h parse helpers"
    ),
    "contract-side-effect": (
        "mutating/blocking call inside a contract macro vanishes when "
        "contracts are compiled out"
    ),
}

# Alias accepted in allow(...) for det-nondet-source; the explicit
# vocabulary the determinism threat model uses for timing sites.
SUPPRESSION_ALIASES = {"wallclock": "det-nondet-source"}

# Modules whose state is (or feeds) simulated state: everything here must
# be bit-reproducible across processes, hosts and ASLR seeds.  The server
# module is held to the same bar because its results must be
# byte-identical to offline runs; its few bounded drain waits carry
# explicit allow(wallclock) annotations.
SIM_STATE_MODULES = {
    "core",
    "cluster",
    "steer",
    "mem",
    "interconnect",
    "bpred",
    "trace",
    "stats",
    "server",
}

# The only files allowed to call getenv() directly: the strict typed
# helpers themselves, and Config::import_env (which walks environ and
# funnels every value through the strict parsers).
GETENV_ALLOWLIST = {"src/util/env.cpp", "src/util/config.cpp"}

SCANNED_PREFIXES = ("src/", "tools/", "bench/", "examples/")

IDENT_RE = re.compile(r"[A-Za-z_]\w*")

CXX_KEYWORDS = {
    "alignas", "alignof", "auto", "bool", "break", "case", "catch", "char",
    "class", "const", "consteval", "constexpr", "constinit", "continue",
    "decltype", "default", "delete", "do", "double", "else", "enum",
    "explicit", "extern", "false", "final", "float", "for", "friend", "goto",
    "if", "inline", "int", "long", "mutable", "namespace", "new", "noexcept",
    "nullptr", "operator", "override", "private", "protected", "public",
    "register", "requires", "return", "short", "signed", "sizeof", "static",
    "struct", "switch", "template", "this", "throw", "true", "try", "typedef",
    "typename", "union", "unsigned", "using", "virtual", "void", "volatile",
    "while",
}


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: error: [{self.rule}] {self.message}"


@dataclass
class Suppression:
    path: str
    line: int
    rule: str  # canonical rule id (aliases resolved); "" if unknown
    spelled: str  # as written in the comment
    used: bool = False


@dataclass
class SourceFile:
    path: str  # repo-relative, '/'-separated
    text: str
    blanked: str  # comments + string/char literal contents spaced out
    line_starts: list
    comment_only_lines: set
    suppressions: dict  # line -> list[Suppression]

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.line_starts, offset) + 1


ALLOW_RE = re.compile(r"ringclu-lint:\s*allow\(\s*([A-Za-z0-9_-]+)\s*(?::[^)]*)?\)")


def blank_sources(text: str):
    """Returns (blanked_code, comments) where comments maps a 0-based char
    offset of each comment start to its text.  Comment bodies and string /
    char literal contents are replaced by spaces (newlines kept), so the
    remaining text is safe for token and brace scanning."""
    out = list(text)
    comments = []  # (start_offset, text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            start = i
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
            comments.append((start, text[start:i]))
        elif c == "/" and nxt == "*":
            start = i
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                i += 1
            i = min(i + 2, n)
            for j in range(start, i):
                if out[j] != "\n":
                    out[j] = " "
            comments.append((start, text[start:i]))
        elif c == '"':
            # Raw string?
            if i >= 1 and text[i - 1] == "R" and (i < 2 or not text[i - 2].isalnum()):
                m = re.match(r'R"([^()\\ ]{0,16})\(', text[i - 1 : i + 20])
                if m:
                    delim = m.group(1)
                    close = text.find(')' + delim + '"', i)
                    end = n if close < 0 else close + len(delim) + 2
                    for j in range(i + 1, end - 1):
                        if out[j] != "\n":
                            out[j] = " "
                    i = end
                    continue
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n:
                        out[i] = " "
                        i += 1
                    continue
                if out[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        elif c == "'":
            i += 1
            while i < n and text[i] != "'":
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n:
                        out[i] = " "
                        i += 1
                    continue
                out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out), comments


def load_source(abs_path: str, rel_path: str) -> SourceFile:
    with open(abs_path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    blanked, comments = blank_sources(text)
    line_starts = [0]
    for m in re.finditer(r"\n", text):
        line_starts.append(m.end())
    # line_starts[k] = offset of line k+1; line_of uses bisect on starts[1:].
    starts = line_starts[1:]

    sf = SourceFile(
        path=rel_path,
        text=text,
        blanked=blanked,
        line_starts=starts,
        comment_only_lines=set(),
        suppressions={},
    )
    for offset, ctext in comments:
        line = sf.line_of(offset)
        # A comment line is "comment only" when the blanked code on that
        # line is whitespace.
        line_start = starts[line - 2] if line >= 2 else 0
        line_end = starts[line - 1] if line - 1 < len(starts) else len(text)
        if blanked[line_start:line_end].strip() == "":
            sf.comment_only_lines.add(line)
        for m in ALLOW_RE.finditer(ctext):
            spelled = m.group(1)
            rule = SUPPRESSION_ALIASES.get(spelled, spelled)
            supp = Suppression(
                path=rel_path,
                line=line,
                rule=rule if rule in RULES else "",
                spelled=spelled,
            )
            sf.suppressions.setdefault(line, []).append(supp)
    return sf


def active_suppressions(sf: SourceFile, line: int):
    """Suppressions covering \\p line: same line, or a comment-only line
    immediately above (stacked comment lines extend upward)."""
    found = list(sf.suppressions.get(line, []))
    above = line - 1
    while above in sf.comment_only_lines:
        found.extend(sf.suppressions.get(above, []))
        above -= 1
    return found


def is_suppressed(sf: SourceFile, line: int, rule: str) -> bool:
    hit = False
    for supp in active_suppressions(sf, line):
        if supp.rule == rule:
            supp.used = True
            hit = True
    return hit


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------


def module_of(path: str) -> str:
    """Module classification: the path segment after 'src' (or after
    'fixtures', so the self-test corpus can impersonate any module)."""
    parts = path.split("/")
    for anchor in ("src", "fixtures"):
        if anchor in parts:
            idx = parts.index(anchor)
            if idx + 1 < len(parts) - 0:
                nxt = parts[idx + 1]
                return nxt if "." not in nxt else ""
    return ""


def in_container_scope(path: str) -> bool:
    return path.startswith("src/") or "/fixtures/" in path or path.startswith(
        "tests/lint/fixtures/"
    ) or path.startswith("fixtures/")


UNORDERED_RE = re.compile(r"\bunordered_(map|set|multimap|multiset)\b")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^();]*?):([^();]*)\)")
# Only begin() starts an iteration; a bare .end() is the find()-comparison
# idiom (it == map_.end()) and is order-insensitive.
BEGIN_END_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?r?begin\s*\(")
PTR_KEY_RE = re.compile(r"\bstd\s*::\s*(?:multi)?(?:map|set)\s*<")
NONDET_TOKEN_RE = re.compile(
    r"\b(rand|srand|random_device|gettimeofday|clock_gettime|chrono|time|clock)\b"
)
GETENV_RE = re.compile(r"\bgetenv\b")
CONTRACT_MACRO_RE = re.compile(
    r"\b(RINGCLU_EXPECTS|RINGCLU_ENSURES|RINGCLU_ASSERT)\s*\("
)
# Member calls that change state or block: the condition of a contract
# macro is not evaluated at all when contracts are compiled out.
SIDE_EFFECT_CALL_RE = re.compile(
    r"(?:\.|->)\s*(wait|(?:pop|push|submit)(?:_\w+)?|insert|erase|next|release"
    r"|allocate|step|run)\s*\("
)


def preprocessor_lines(sf: SourceFile) -> set:
    lines = set()
    for m in re.finditer(r"^[ \t]*#[^\n]*", sf.blanked, re.M):
        lines.add(sf.line_of(m.start()))
    return lines

def file_stem(path: str) -> str:
    """Path without extension: 'src/mem/lsq.h' -> 'src/mem/lsq'.  Unordered
    variable names are scoped to their stem, so a member declared in a
    header is tracked in its paired .cpp without a name declared in an
    unrelated file (e.g. another class's 'entries_') leaking across the
    tree."""
    return os.path.splitext(path)[0]


def check_containers(sf: SourceFile, unordered_vars: dict, findings: list):
    """det-unordered-decl + det-ptr-key; also harvests unordered variable
    names for the per-stem iteration rule."""
    pp = preprocessor_lines(sf)
    for m in UNORDERED_RE.finditer(sf.blanked):
        line = sf.line_of(m.start())
        if line in pp:
            continue
        # Harvest the declared variable name: skip the template argument
        # list, then take the next identifier.
        i = m.end()
        blanked = sf.blanked
        while i < len(blanked) and blanked[i].isspace():
            i += 1
        if i < len(blanked) and blanked[i] == "<":
            depth = 0
            while i < len(blanked):
                if blanked[i] == "<":
                    depth += 1
                elif blanked[i] == ">":
                    depth -= 1
                    if depth == 0:
                        i += 1
                        break
                i += 1
        tail = blanked[i : i + 120]
        var_m = re.match(r"[\s&*]*([A-Za-z_]\w*)", tail)
        if var_m and var_m.group(1) not in CXX_KEYWORDS:
            unordered_vars.setdefault(var_m.group(1), set()).add(
                file_stem(sf.path)
            )
        if not in_container_scope(sf.path):
            continue
        if is_suppressed(sf, line, "det-unordered-decl"):
            continue
        findings.append(
            Finding(
                sf.path,
                line,
                "det-unordered-decl",
                f"std::unordered_{m.group(1)} in simulator code: prove the "
                "use order-insensitive and annotate with "
                "'// ringclu-lint: allow(det-unordered-decl: <why>)', or "
                "use an ordered container",
            )
        )
    if not in_container_scope(sf.path):
        return
    pp = pp  # reuse
    for m in PTR_KEY_RE.finditer(sf.blanked):
        line = sf.line_of(m.start())
        if line in pp:
            continue
        # First template argument (the key type).
        i = m.end()
        depth = 1
        key_chars = []
        while i < len(sf.blanked) and depth > 0:
            c = sf.blanked[i]
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
            elif c == "," and depth == 1:
                break
            if depth > 0:
                key_chars.append(c)
            i += 1
        key = "".join(key_chars).strip()
        if "*" not in key:
            continue
        if is_suppressed(sf, line, "det-ptr-key"):
            continue
        findings.append(
            Finding(
                sf.path,
                line,
                "det-ptr-key",
                f"ordered container keyed by pointer type '{key}': "
                "iteration order depends on allocation addresses; key by a "
                "stable id instead",
            )
        )


def check_unordered_iteration(sf: SourceFile, unordered_vars: dict,
                              findings: list):
    if not in_container_scope(sf.path):
        return
    stem = file_stem(sf.path)

    def is_unordered_here(name: str) -> bool:
        return stem in unordered_vars.get(name, ())

    for m in RANGE_FOR_RE.finditer(sf.blanked):
        expr = m.group(2).strip()
        ids = IDENT_RE.findall(expr)
        target = ids[-1] if ids else ""
        if is_unordered_here(target):
            line = sf.line_of(m.start())
            if is_suppressed(sf, line, "det-unordered-iter"):
                continue
            findings.append(
                Finding(
                    sf.path,
                    line,
                    "det-unordered-iter",
                    f"range-for over unordered container '{target}': "
                    "iteration order is hash/address dependent; iterate a "
                    "sorted view or switch to an ordered container",
                )
            )
    for m in BEGIN_END_RE.finditer(sf.blanked):
        if is_unordered_here(m.group(1)):
            line = sf.line_of(m.start())
            if is_suppressed(sf, line, "det-unordered-iter"):
                continue
            findings.append(
                Finding(
                    sf.path,
                    line,
                    "det-unordered-iter",
                    f"iterator over unordered container '{m.group(1)}': "
                    "iteration order is hash/address dependent",
                )
            )


def check_nondet_sources(sf: SourceFile, findings: list):
    if module_of(sf.path) not in SIM_STATE_MODULES:
        return
    pp = preprocessor_lines(sf)
    for m in NONDET_TOKEN_RE.finditer(sf.blanked):
        token = m.group(1)
        line = sf.line_of(m.start())
        if line in pp:
            continue
        if token in ("time", "clock", "srand", "rand", "gettimeofday",
                     "clock_gettime"):
            # Require a call; bare identifiers (field names ...) are fine.
            tail = sf.blanked[m.end() : m.end() + 8].lstrip()
            if not tail.startswith("("):
                continue
        if is_suppressed(sf, line, "det-nondet-source"):
            continue
        findings.append(
            Finding(
                sf.path,
                line,
                "det-nondet-source",
                f"'{token}' in sim-state module '{module_of(sf.path)}': "
                "wall-clock/entropy must not feed simulated state "
                "(timing-only sites: annotate "
                "'// ringclu-lint: allow(wallclock)')",
            )
        )


def check_getenv(sf: SourceFile, findings: list):
    if sf.path in GETENV_ALLOWLIST:
        return
    pp = preprocessor_lines(sf)
    for m in GETENV_RE.finditer(sf.blanked):
        line = sf.line_of(m.start())
        if line in pp:
            continue
        if is_suppressed(sf, line, "env-getenv"):
            continue
        # Is a RINGCLU_* knob being read?  (The literal was blanked; look
        # at the raw text of the call site.)
        raw_tail = sf.text[m.start() : m.start() + 120]
        knob_m = re.search(r'"(RINGCLU_\w*)"', raw_tail)
        knob = f" (reads {knob_m.group(1)})" if knob_m else ""
        findings.append(
            Finding(
                sf.path,
                line,
                "env-getenv",
                "direct getenv() call"
                + knob
                + ": RINGCLU_* knobs must flow through the strict "
                "util/env.h helpers (parse_uint/parse_int/parse_bool "
                "semantics: diagnose + exit 2 on malformed values)",
            )
        )


def check_contract_side_effects(sf: SourceFile, findings: list):
    pp = preprocessor_lines(sf)
    for m in CONTRACT_MACRO_RE.finditer(sf.blanked):
        if sf.line_of(m.start()) in pp:
            continue  # the macro definitions themselves
        # The condition: up to the matching ')'.
        open_idx = m.end() - 1
        depth = 0
        close = len(sf.blanked)
        for i in range(open_idx, len(sf.blanked)):
            if sf.blanked[i] == "(":
                depth += 1
            elif sf.blanked[i] == ")":
                depth -= 1
                if depth == 0:
                    close = i
                    break
        condition = sf.blanked[open_idx:close]
        for call in SIDE_EFFECT_CALL_RE.finditer(condition):
            line = sf.line_of(open_idx + call.start())
            if is_suppressed(sf, line, "contract-side-effect"):
                continue
            findings.append(
                Finding(
                    sf.path,
                    line,
                    "contract-side-effect",
                    f"call of '{call.group(1)}()' inside {m.group(1)}: with "
                    "-DRINGCLU_CONTRACTS=OFF the condition is an unevaluated "
                    "sizeof operand and the call never happens; make the "
                    "call outside the macro and check its result",
                )
            )


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def rel_to_root(path: str, root: str) -> str:
    ap = os.path.abspath(path)
    try:
        return os.path.relpath(ap, root).replace(os.sep, "/")
    except ValueError:
        return ap.replace(os.sep, "/")


def collect_files(args, root: str):
    """Returns the repo-relative paths to scan."""
    paths = []
    if args.files:
        for f in args.files:
            paths.append(rel_to_root(f, root))
        return sorted(set(paths))

    cc_path = args.compile_commands
    if cc_path is None:
        for candidate in ("compile_commands.json",
                          "build/compile_commands.json"):
            probe = os.path.join(root, candidate)
            if os.path.exists(probe):
                cc_path = probe
                break
    if cc_path is None:
        sys.stderr.write(
            "ringclu-lint: no compile_commands.json found (configure with "
            "the 'analyze' preset, or pass --compile-commands / --files)\n"
        )
        sys.exit(2)
    with open(cc_path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    for entry in entries:
        file_path = entry["file"]
        if not os.path.isabs(file_path):
            file_path = os.path.join(entry.get("directory", root), file_path)
        rel = rel_to_root(file_path, root)
        if rel.startswith(SCANNED_PREFIXES):
            paths.append(rel)
    # Headers are not translation units; scan them alongside.
    for prefix in SCANNED_PREFIXES:
        base = os.path.join(root, prefix.rstrip("/"))
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in filenames:
                if name.endswith(".h"):
                    paths.append(rel_to_root(os.path.join(dirpath, name),
                                             root))
    return sorted(set(paths))


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="ringclu_lint.py",
        description="ringclu determinism / env-hygiene / contract "
        "static analysis",
    )
    parser.add_argument(
        "--compile-commands",
        metavar="PATH",
        help="compile_commands.json to take the translation-unit list from "
        "(default: ./compile_commands.json or ./build/compile_commands.json "
        "under --root)",
    )
    parser.add_argument(
        "--files",
        nargs="+",
        metavar="FILE",
        help="lint exactly these files instead of the compile database "
        "(used by the fixture self-tests)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repository root (default: two levels above this script)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on suppressions that name unknown rules or "
        "suppress nothing",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    args = parser.parse_args()

    if args.list_rules:
        for rule in sorted(RULES):
            print(f"{rule:20s} {RULES[rule]}")
        return 0

    root = os.path.abspath(
        args.root
        if args.root
        else os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
    )

    rel_paths = collect_files(args, root)
    files = {}
    for rel in rel_paths:
        abs_path = os.path.join(root, rel)
        if not os.path.exists(abs_path):
            sys.stderr.write(f"ringclu-lint: missing file {rel}\n")
            return 2
        files[rel] = load_source(abs_path, rel)

    findings = []
    unordered_vars = {}

    for sf in files.values():
        check_containers(sf, unordered_vars, findings)
    for sf in files.values():
        check_unordered_iteration(sf, unordered_vars, findings)
        check_nondet_sources(sf, findings)
        check_getenv(sf, findings)
        check_contract_side_effects(sf, findings)

    if args.strict:
        for sf in files.values():
            for supps in sf.suppressions.values():
                for supp in supps:
                    if supp.rule == "":
                        findings.append(
                            Finding(
                                supp.path,
                                supp.line,
                                "strict-suppression",
                                f"allow({supp.spelled}) names an unknown "
                                "rule (see --list-rules)",
                            )
                        )
                    elif not supp.used:
                        findings.append(
                            Finding(
                                supp.path,
                                supp.line,
                                "strict-suppression",
                                f"allow({supp.spelled}) suppresses nothing "
                                "here: remove the stale annotation",
                            )
                        )

    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    for finding in findings:
        print(finding.render())
    if findings:
        sys.stderr.write(
            f"ringclu-lint: {len(findings)} finding(s) across "
            f"{len({f.path for f in findings})} file(s) "
            f"({len(files)} files scanned)\n"
        )
        return 1
    sys.stderr.write(f"ringclu-lint: clean ({len(files)} files scanned)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
