#!/usr/bin/env python3
"""ringclu-lint: project-specific static analysis for the ringclu simulator.

Every guarantee this reproduction stands on -- byte-identical goldens,
bit-identical checkpoint restore, byte-identical serial result stores --
is a *determinism* invariant.  Runtime tests can only observe the
configurations they happen to run; this tool checks the classes of bugs
that break those invariants statically, for every translation unit in the
CMake-exported compile_commands.json.

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

  checkpoint coverage
    ckpt-coverage        every non-static data member of a class that
                         defines transfer() (its one checkpoint field
                         list, run by both the writer and the reader)
                         must be transferred in that body -- or, for a
                         class with the virtual save_state/restore_state
                         pair, in BOTH bodies -- or carry a
                         "// ckpt: derived" annotation on its declaration.
                         Transferred means the first argument of a stream
                         call other than check(), a nested hook's
                         receiver, or an alias of one; a mention in a
                         bound or a check does not count.
    ckpt-pair            a class defining only one of save_state /
                         restore_state cannot round-trip.

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
vocabulary of the determinism threat model.  Checkpoint-coverage
exemptions use a dedicated annotation on the member declaration:

    // ckpt: derived            (optionally "// ckpt: derived(<reason>)")

--strict additionally rejects suppressions that name an unknown rule and
suppressions that suppress nothing (so stale annotations rot loudly).

The analyzer is self-contained (no libclang requirement: the build
container has no clang toolchain) -- it ships a comment/string-aware lexer
and a class/member parser tuned to this clang-formatted codebase, and
consumes compile_commands.json for the translation-unit list.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import re
import sys
from dataclasses import dataclass, field

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
    "ckpt-coverage": (
        "data member not transferred by transfer (or by both save_state "
        "and restore_state)"
    ),
    "ckpt-pair": "class defines only one of save_state/restore_state",
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


# Builtin-type keywords that can open a member declaration on their own
# ("int x_;" has no non-keyword type identifier).
BUILTIN_TYPE_KEYWORDS = {
    "auto", "bool", "char", "double", "float", "int", "long", "short",
    "signed", "unsigned",
}


@dataclass
class ClassInfo:
    name: str
    path: str
    line: int
    members: list = field(default_factory=list)  # (name, line)
    # rule hook name -> body text (blanked); None body = declared only.
    hooks: dict = field(default_factory=dict)


@dataclass
class SourceFile:
    path: str  # repo-relative, '/'-separated
    text: str
    blanked: str  # comments + string/char literal contents spaced out
    line_starts: list
    comments: dict  # line -> concatenated comment text on that line
    comment_only_lines: set
    suppressions: dict  # line -> list[Suppression]
    ckpt_derived_lines: set

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.line_starts, offset) + 1


ALLOW_RE = re.compile(r"ringclu-lint:\s*allow\(\s*([A-Za-z0-9_-]+)\s*(?::[^)]*)?\)")
CKPT_DERIVED_RE = re.compile(r"ckpt:\s*derived\b")


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
        comments={},
        comment_only_lines=set(),
        suppressions={},
        ckpt_derived_lines=set(),
    )
    for offset, ctext in comments:
        line = sf.line_of(offset)
        sf.comments[line] = sf.comments.get(line, "") + " " + ctext
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
        if CKPT_DERIVED_RE.search(ctext):
            sf.ckpt_derived_lines.add(line)
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


def has_ckpt_derived(sf: SourceFile, line: int) -> bool:
    if line in sf.ckpt_derived_lines:
        return True
    above = line - 1
    while above in sf.comment_only_lines:
        if above in sf.ckpt_derived_lines:
            return True
        above -= 1
    return False


def match_brace(text: str, open_idx: int) -> int:
    """Index just past the '}' matching text[open_idx] == '{'; len(text) if
    unbalanced."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


CLASS_RE = re.compile(
    r"\b(class|struct)\s+([A-Za-z_]\w*)\s*(final\s*)?(:\s*[^;{()]*)?\{"
)


def _angle_step(depth: int, text: str, i: int) -> int:
    """Angle-bracket depth tracking good enough for declarations."""
    c = text[i]
    if c == "<":
        prev = text[i - 1] if i > 0 else ""
        if c == "<" and (text[i + 1 : i + 2] == "<" or prev == "<"):
            return depth  # operator<<
        if prev.isalnum() or prev in "_>:":
            return depth + 1
    elif c == ">" and depth > 0:
        prev = text[i - 1] if i > 0 else ""
        if prev == "-":  # ->
            return depth
        return depth - 1
    return depth


ACCESS_RE = re.compile(r"^\s*(?:public|private|protected)\s*:")
SKIP_STMT_RE = re.compile(
    r"^\s*(?:using\b|typedef\b|friend\b|static\b|template\b|static_assert\b"
    r"|enum\b|class\s+\w+\s*$|struct\s+\w+\s*$)"
)


# Checkpoint hooks: the one-list transfer(), or the virtual pair.
CKPT_PAIR = ("save_state", "restore_state")
CKPT_HOOKS = ("transfer",) + CKPT_PAIR

# A member template's "template <...>" head, stripped so its declaration
# parses like a plain one (one level of nested angle brackets).
TEMPLATE_HEAD_RE = re.compile(r"^\s*template\s*<(?:[^<>]|<[^<>]*>)*>\s*")


def _member_names(stmt: str):
    """Member name(s) declared by an in-class statement (already known not
    to be a function); yields identifier strings."""
    # Cut each top-level comma chunk at its initializer.
    chunks = []
    depth_a = depth_p = depth_b = depth_c = 0
    cur = []
    for i, ch in enumerate(stmt):
        depth_a = _angle_step(depth_a, stmt, i)
        if ch == "(":
            depth_p += 1
        elif ch == ")":
            depth_p -= 1
        elif ch == "[":
            depth_b += 1
        elif ch == "]":
            depth_b -= 1
        elif ch == "{":
            depth_c += 1
        elif ch == "}":
            depth_c -= 1
        if ch == "," and depth_a == depth_p == depth_b == depth_c == 0:
            chunks.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    chunks.append("".join(cur))

    first = True
    for chunk in chunks:
        # Strip initializer: depth-0 '=' or '{'.
        depth_a = 0
        cut = len(chunk)
        for i, ch in enumerate(chunk):
            depth_a = _angle_step(depth_a, chunk, i)
            if depth_a == 0 and ch in "={[":
                cut = i
                break
        decl = chunk[:cut]
        all_idents = IDENT_RE.findall(decl)
        idents = [t for t in all_idents if t not in CXX_KEYWORDS]
        # A declaration needs a type and a name; the type is either a
        # non-keyword identifier or a builtin-type keyword ("int x_;"),
        # and later chunks of a multi-declarator share the first chunk's
        # type.
        has_builtin = any(t in BUILTIN_TYPE_KEYWORDS for t in all_idents)
        if idents and (len(idents) >= 2 or has_builtin or not first):
            yield idents[-1]
        first = False


def parse_classes(sf: SourceFile, out_classes: list, out_bodies: dict):
    """Finds classes + members + save/restore hook bodies in \\p sf.
    out_bodies collects out-of-line '<Class>::save_state' style bodies as
    {(class_name, hook): body_text}."""
    blanked = sf.blanked

    # Out-of-line method bodies.
    for m in re.finditer(
        r"\b([A-Za-z_]\w*)\s*::\s*(save_state|restore_state|transfer)\s*\(",
        blanked,
    ):
        # Find the '{' that opens the body (skip declarations/calls).
        i = m.end() - 1
        depth = 0
        while i < len(blanked):
            if blanked[i] == "(":
                depth += 1
            elif blanked[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        j = i + 1
        while j < len(blanked) and (blanked[j].isspace() or
                                    blanked[j : j + 5] == "const"):
            j += 5 if blanked[j : j + 5] == "const" else 1
        if j < len(blanked) and blanked[j] == "{":
            end = match_brace(blanked, j)
            out_bodies[(m.group(1), m.group(2))] = blanked[j:end]

    pos = 0
    while True:
        m = CLASS_RE.search(blanked, pos)
        if m is None:
            break
        # 'enum class X {' must not match: exclude by lookbehind.
        before = blanked[max(0, m.start() - 8) : m.start()]
        if re.search(r"\benum\s*$", before):
            pos = m.end()
            continue
        body_open = m.end() - 1
        body_close = match_brace(blanked, body_open)
        _parse_class_body(
            sf, m.group(2), body_open + 1, body_close - 1, out_classes
        )
        pos = body_close  # nested classes were parsed with their parent


def _parse_class_body(sf, class_name, start, end, out_classes):
    blanked = sf.blanked
    info = ClassInfo(name=class_name, path=sf.path, line=sf.line_of(start))
    i = start
    buf_start = i
    buf = []
    while i < end:
        c = blanked[i]
        if c == "#":  # preprocessor line inside class: skip it
            nl = blanked.find("\n", i)
            i = end if nl < 0 else min(nl + 1, end)
            buf = []
            buf_start = i
            continue
        if c == "{":
            stmt = "".join(buf)
            stripped = ACCESS_RE.sub("", stmt).strip()
            # Function (or ctor) if there's a depth-0 '(' in the statement.
            depth_a = 0
            paren = -1
            for k, ch in enumerate(stripped):
                depth_a = _angle_step(depth_a, stripped, k)
                if ch == "(" and depth_a == 0:
                    paren = k
                    break
            if re.match(r"^\s*(class|struct)\b", stripped):
                # Nested class.
                nested_m = re.match(
                    r"^\s*(?:class|struct)\s+([A-Za-z_]\w*)", stripped
                )
                close = match_brace(blanked, i)
                if nested_m:
                    _parse_class_body(
                        sf, nested_m.group(1), i + 1, close - 1, out_classes
                    )
                # Continue to the trailing ';' (variable of anon type etc.).
                i = close
                buf = []
                buf_start = i
                continue
            if re.match(r"^\s*enum\b", stripped):
                i = match_brace(blanked, i)
                buf = []
                buf_start = i
                continue
            if paren >= 0:
                # Method definition: record save/restore bodies.
                name_m = re.search(r"([A-Za-z_]\w*)\s*$", stripped[:paren])
                close = match_brace(blanked, i)
                if name_m and name_m.group(1) in CKPT_HOOKS:
                    info.hooks[name_m.group(1)] = blanked[i:close]
                i = close
                buf = []
                buf_start = i
                continue
            # Brace initializer of a member: consume and keep scanning.
            close = match_brace(blanked, i)
            buf.append(blanked[i:close])
            i = close
            continue
        if c == ";":
            stmt = "".join(buf)
            stripped = TEMPLATE_HEAD_RE.sub("", ACCESS_RE.sub("", stmt)).strip()
            stmt_line = sf.line_of(buf_start + len(buf) - len("".join(buf).lstrip()))
            if stripped and not SKIP_STMT_RE.match(stripped):
                depth_a = 0
                paren = -1
                for k, ch in enumerate(stripped):
                    depth_a = _angle_step(depth_a, stripped, k)
                    if ch == "(" and depth_a == 0:
                        paren = k
                        break
                if paren >= 0:
                    # Function declaration: record save/restore presence.
                    name_m = re.search(r"([A-Za-z_]\w*)\s*$",
                                       stripped[:paren])
                    if name_m and name_m.group(1) in CKPT_HOOKS:
                        info.hooks.setdefault(name_m.group(1), None)
                else:
                    # Member declaration line: the line of the declarator
                    # end (where the annotation conventionally sits).
                    decl_line = sf.line_of(i)
                    for name in _member_names(stripped):
                        info.members.append((name, decl_line))
            i += 1
            buf = []
            buf_start = i
            continue
        if not buf and not c.isspace():
            buf_start = i
        buf.append(c)
        i += 1
    if info.members or info.hooks:
        out_classes.append(info)


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


# A checkpoint stream call: "io.u64(", "out.items(", "in.i64(".
CKPT_IO_CALL_RE = re.compile(r"\b(?:io|out|in)\s*\.\s*([A-Za-z_]\w*)\s*\(")
# A nested hook's receiver: "rob_.transfer(io)", "inst.op.transfer(io)".
CKPT_RECEIVER_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?(?:\.|->)\s*"
    r"(?:transfer|save_state|restore_state)\s*\("
)
# A helper handed the stream first: "transfer_heap(io, due_, ...)".
CKPT_HELPER_RE = re.compile(r"\b[A-Za-z_]\w*\s*\(\s*(?:io|out|in)\s*,")
# A stream read assigned to a name: "word = in.u64()", "x_ = read(in)".
CKPT_READ_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*=\s*(?:(?:io|out|in)\s*\.|"
    r"[A-Za-z_]\w*\s*\(\s*(?:io|out|in)\s*[,)])"
)
# Aliases: "for (T& x : member_)" and "T& x = member_[i];".
CKPT_RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*?)\s*:([^;]*?)\)\s*[{\w]")
CKPT_REF_BIND_RE = re.compile(r"&\s*([A-Za-z_]\w*)\s*=([^=;][^;]*);")
# A member rebuilt from a transferred local: "rng_.set_state(words)",
# "ring_[slot].push_back(event)".
CKPT_SETTER_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\[[^;]*?\]\s*)?(?:\.|->)\s*[A-Za-z_]\w*\s*"
    r"\(\s*([A-Za-z_]\w*)\s*\)"
)


def _first_argument(body: str, start: int) -> str:
    """The text of the call argument that starts at body[start]."""
    depth = 0
    end = start
    while end < len(body):
        ch = body[end]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            if depth == 0:
                break
            depth -= 1
        elif ch == "," and depth == 0:
            break
        end += 1
    return body[start:end]


def _variables(expr: str) -> set:
    """Identifiers in expr that name objects: not keywords, and not
    function, template or namespace names."""
    names = set()
    for m in IDENT_RE.finditer(expr):
        rest = expr[m.end():].lstrip()
        if m.group(0) in CXX_KEYWORDS or rest.startswith(("(", "<", "::")):
            continue
        names.add(m.group(0))
    return names


def transferred_identifiers(body: str) -> set:
    """Identifiers a hook body actually transfers.  Seeds: the first
    argument of every stream call except check(), nested hook receivers,
    the object a stream helper is handed, and locals assigned a stream
    read.  A range-for or reference alias of a transferred name transfers
    what it aliases (and the reverse), and a member rebuilt from a
    transferred local by one method call counts too.  A member that only
    appears in a bound, a check or a size computation is not
    transferred."""
    ids = set()
    for m in CKPT_IO_CALL_RE.finditer(body):
        if m.group(1) != "check":
            ids |= _variables(_first_argument(body, m.end()))
    for m in CKPT_HELPER_RE.finditer(body):
        ids |= _variables(_first_argument(body, m.end()))
    ids |= {m.group(1) for m in CKPT_RECEIVER_RE.finditer(body)}
    ids |= {m.group(1) for m in CKPT_READ_RE.finditer(body)}
    # (alias name, names it aliases) pairs.
    aliases = [
        (IDENT_RE.findall(m.group(1))[-1], _variables(m.group(2)))
        for m in CKPT_RANGE_FOR_RE.finditer(body)
        if IDENT_RE.search(m.group(1))
    ] + [
        (m.group(1), _variables(m.group(2)))
        for m in CKPT_REF_BIND_RE.finditer(body)
    ]
    setters = [(m.group(1), m.group(2)) for m in CKPT_SETTER_RE.finditer(body)]
    while True:
        before = len(ids)
        for name, target in aliases:
            if name in ids or target & ids:
                ids |= target | {name}
        ids |= {member for member, local in setters if local in ids}
        if len(ids) == before:
            return ids


def check_checkpoint_coverage(files: dict, classes: list, bodies: dict,
                              findings: list):
    for info in classes:
        if not info.hooks:
            continue
        sf = files[info.path]
        declared = set(info.hooks) | {
            h for (cls, h) in bodies if cls == info.name
        }
        if "transfer" in declared:
            required = ("transfer",)
        else:
            pair = declared & set(CKPT_PAIR)
            if len(pair) == 1:
                (only,) = pair
                findings.append(
                    Finding(
                        info.path,
                        info.line,
                        "ckpt-pair",
                        f"class {info.name} defines {only} but not "
                        f"{'restore_state' if only == 'save_state' else 'save_state'}: "
                        "checkpoints cannot round-trip",
                    )
                )
                continue
            required = CKPT_PAIR
        ids = {}
        for hook in required:
            body = info.hooks.get(hook)
            if body is None:
                # Declared in-class; body may be out of line.
                body = bodies.get((info.name, hook))
            if body is None:
                break  # body outside the scanned file set
            ids[hook] = transferred_identifiers(body)
        if len(ids) != len(required):
            continue
        for member, line in info.members:
            if has_ckpt_derived(sf, line):
                continue
            missing = [hook for hook in required if member not in ids[hook]]
            if missing:
                where = "in both" if len(required) == 2 else "there"
                findings.append(
                    Finding(
                        info.path,
                        line,
                        "ckpt-coverage",
                        f"{info.name}::{member} is not transferred in "
                        f"{' or '.join(missing)}: serialize it {where}, or "
                        "annotate the declaration with '// ckpt: derived' "
                        "if it is reconstructed/config-constant",
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
        description="ringclu determinism / checkpoint-coverage / env-hygiene "
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
    classes = []
    bodies = {}
    unordered_vars = {}

    for sf in files.values():
        parse_classes(sf, classes, bodies)
        check_containers(sf, unordered_vars, findings)
    for sf in files.values():
        check_unordered_iteration(sf, unordered_vars, findings)
        check_nondet_sources(sf, findings)
        check_getenv(sf, findings)
        check_contract_side_effects(sf, findings)
    check_checkpoint_coverage(files, classes, bodies, findings)

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
    checked_classes = sum(1 for c in classes if c.hooks)
    if findings:
        sys.stderr.write(
            f"ringclu-lint: {len(findings)} finding(s) across "
            f"{len({f.path for f in findings})} file(s) "
            f"({len(files)} files, {checked_classes} checkpointed classes "
            "scanned)\n"
        )
        return 1
    sys.stderr.write(
        f"ringclu-lint: clean ({len(files)} files, {checked_classes} "
        "checkpointed classes scanned)\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
