#!/usr/bin/env python3
"""wsqcheck: the repo's static analyzer for the WSQ/DSQ sources.

Run:  python3 tools/wsqcheck.py [--root <repo>]
                                [--compile-commands <build/compile_commands.json>]
                                [--frontend auto|clang|internal]
                                [--only check1,check2]

wsqcheck builds a whole-program model — classes, members and their
types, every function definition with its lock scopes and call sites —
and runs semantic checks that need lock *order*, call graphs, or
whole-function context:

  lock-order            Extracts the global mutex-acquisition graph:
                        nested MutexLock scopes (including locks held
                        via WSQ_REQUIRES), WSQ_ACQUIRED_BEFORE/AFTER
                        declarations, and acquisitions reached through
                        the call graph while a lock is held. Any cycle
                        is reported as a potential deadlock with the
                        witness path for every edge. Nested acquisition
                        of the *same* mutex expression is reported as a
                        guaranteed self-deadlock.
  blocking-under-lock   Flags calls that may block — ReqPump::
                        TakeBlocking / WaitForCompletionBeyond / Drain,
                        SearchService::Execute, CondVar waits, file
                        I/O (fwrite/fflush/fsync/...), sleep_for —
                        reachable (transitively) while a MutexLock is
                        alive. A CondVar wait releases the mutex it is
                        given, so it is flagged only when *another*
                        lock stays held across the wait.
  cancel-blind-wait     An untimed CondVar::Wait in a function whose
                        whole body never consults a CancellationToken /
                        shutdown / stop flag.
  unbounded-op-growth   An OpenImpl/NextImpl body in src/exec growing a
                        container while the *enclosing function* never
                        touches the memory-budget API.
  deadline-blind-submit Every SubmitAsync call site must clamp its
                        timeout by the query's remaining budget: the
                        enclosing function must reference
                        RemainingMicros.
  status-discard        Discarded Status/Result call results that
                        escape [[nodiscard]] through a (void) cast or
                        a ternary expression statement, plus bare call
                        statements the compiler misses. The sanctioned
                        discard is WSQ_IGNORE_STATUS(expr).

Per-file text checks run over every file under src/, whichever
frontend built the program model (rationale in DESIGN.md §10):
mutex-guard, raw-std-mutex and manual-lock (lock hygiene in
ANNOTATED_DIRS), iostream, randomness, include-guard (path-derived
guard plus a matching `#endif` comment), submit-drops-callback (a
SearchService::Submit that can return without completing its request),
metric-naming (wsq_ snake_case, unit suffix, METRIC_PREFIXES) and
detached-thread (a std::thread .detach(): work nothing can join).
Last, stale-suppression reports every `wsqcheck: allow(...)` comment
that no longer suppresses a finding, so suppressions cannot rot.

Suppressions: `// wsqcheck: allow(<check>): <one-line justification>`
on the offending line or the line directly above. blocking-under-lock
additionally accepts the comment anchored at the *mutex member
declaration*: that reads as "blocking under this (and only this) lock
is the design" — e.g. a mutex that serializes a file handle — and
suppresses findings whose every held lock carries such an anchor.

Frontends: with --frontend clang (the CI configuration) the real AST
of every TU in compile_commands.json is parsed via libclang
(clang.cindex); class/member/parameter types come from the compiler.
When libclang is unavailable, --frontend clang exits 3 with a loud
SKIP (never a silent pass). The default --frontend auto falls back to
the built-in internal frontend: a self-contained C++ tokenizer and
structural parser that recovers the same program model (classes,
members, function bodies, lock scopes, call chains) with heuristic
type resolution. Both frontends feed the identical analysis core.

Exit status: 0 clean, 1 findings, 2 usage/setup error, 3 skipped
(--frontend clang without libclang).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import shlex
import sys

CHECKS = (
    "lock-order",
    "blocking-under-lock",
    "cancel-blind-wait",
    "unbounded-op-growth",
    "deadline-blind-submit",
    "status-discard",
    "mutex-guard",
    "raw-std-mutex",
    "manual-lock",
    "iostream",
    "randomness",
    "include-guard",
    "submit-drops-callback",
    "metric-naming",
    "detached-thread",
    "stale-suppression",
)

# Known-blocking free functions / std calls, matched by the last name
# of the call chain.
HARD_BLOCKING_CALLS = {
    "fsync", "fdatasync", "fwrite", "fread", "fflush", "fopen", "fclose",
    "fseek", "ftell", "fgets", "fputs", "rename", "unlink",
    "sleep_for", "sleep_until", "usleep", "nanosleep", "system",
}

# Known-blocking methods, matched as (class-qname-suffix, method).
# None matches any receiver class.
HARD_BLOCKING_METHODS = (
    (None, "TakeBlocking"),
    (None, "WaitForCompletionBeyond"),
    ("ReqPump", "Drain"),
    ("SearchService", "Execute"),
    (None, "join"),  # std::thread::join
)

# Identifiers whose presence anywhere in the enclosing function mark
# it as cancellation-aware.
CANCEL_AWARE = re.compile(r"shutdown|stop|cancel|token", re.I)

# Memory-budget API surface (common/memory.h + ReqSync's WaitForRoom).
BUDGET_API = {
    "TryAdd", "ForceAdd", "TryReserve", "ForceReserve",
    "MemoryReservation", "WaitForRoom", "mem_",
}

GROWTH_METHODS = {
    "push_back", "emplace_back", "emplace", "try_emplace", "insert",
}

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "new",
    "delete", "throw", "case", "goto", "do", "else", "co_return",
    "co_await", "static_assert", "alignof", "decltype", "assert",
}


class Finding:
    def __init__(self, path, line, check, message):
        self.path = str(path)
        self.line = line
        self.check = check
        self.message = message

    def key(self):
        return (self.path, self.line, self.check, self.message)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


# --------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------

ALLOW_RE = re.compile(r"wsqcheck:\s*allow\(([a-z][a-z0-9-]*)\)")


class Suppression:
    def __init__(self, path, line, check):
        self.path = str(path)
        self.line = line
        self.check = check
        self.used = False


def relpath(root, path):
    """Root-relative posix path, or `path` itself when outside root."""
    try:
        return pathlib.Path(path).resolve().relative_to(
            pathlib.Path(root).resolve()).as_posix()
    except ValueError:
        return str(path)


class Suppressions:
    """All allow() comments in the scanned tree, with use tracking."""

    def __init__(self, root):
        self.root = root
        self.by_site = {}   # (root-relative posix path, line) -> [Sup]
        self.all = []

    def scan_file(self, path):
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return
        rel = relpath(self.root, path)
        for i, raw_line in enumerate(text.splitlines(), start=1):
            for m in ALLOW_RE.finditer(raw_line):
                sup = Suppression(rel, i, m.group(1))
                self.by_site.setdefault((sup.path, i), []).append(sup)
                self.all.append(sup)

    def active(self, check, anchors):
        """True if any anchor (path, line) carries a matching allow()
        on that line or the line above. Marks the suppression used."""
        hit = False
        for (path, line) in anchors:
            for probe in (line, line - 1):
                for sup in self.by_site.get((str(path), probe), []):
                    if sup.check == check:
                        sup.used = hit = True
        return hit

    def stale(self):
        """Suppressions that never fired."""
        out = []
        for sup in self.all:
            if sup.used:
                continue
            if sup.check not in CHECKS:
                out.append(Finding(
                    sup.path, sup.line, "stale-suppression",
                    f"allow({sup.check}) names an unknown wsqcheck "
                    f"check; known: {', '.join(CHECKS)}"))
            else:
                out.append(Finding(
                    sup.path, sup.line, "stale-suppression",
                    f"allow({sup.check}) no longer suppresses "
                    "anything on this line; the check would not fire "
                    "here — delete the comment (it rots into false "
                    "confidence after refactors)"))
        return out


# --------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------

PUNCT3 = ("<<=", ">>=", "...", "->*")
PUNCT2 = ("::", "->", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=",
          "%=", "&=", "|=", "^=", "&&", "||", "<<", ">>", "++", "--")

ID_START = set("abcdefghijklmnopqrstuvwxyz"
               "ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
ID_CONT = ID_START | set("0123456789")


class Tok:
    __slots__ = ("kind", "val", "line")

    def __init__(self, kind, val, line):
        self.kind = kind    # id | num | str | chr | p
        self.val = val
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.val}@{self.line}"


def tokenize(text):
    """C++ lexer: skips comments and preprocessor directives, keeps
    everything else with line numbers."""
    toks = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            seg = text[i:(j + 2 if j >= 0 else n)]
            line += seg.count("\n")
            i = n if j < 0 else j + 2
            continue
        if c == "#":
            # Preprocessor directive: skip, honoring continuations.
            while i < n:
                k = text.find("\n", i)
                if k < 0:
                    i = n
                    break
                if text[k - 1] == "\\":
                    line += 1
                    i = k + 1
                    continue
                i = k
                break
            continue
        if c == '"':
            # Raw string?
            if toks and toks[-1].kind == "id" and \
                    toks[-1].val in ("R", "LR", "u8R", "uR", "UR"):
                toks.pop()
                p = text.find("(", i)
                delim = text[i + 1:p]
                end = text.find(")" + delim + '"', p)
                end = n if end < 0 else end + len(delim) + 2
                seg = text[i:end]
                toks.append(Tok("str", seg, line))
                line += seg.count("\n")
                i = end
                continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            toks.append(Tok("str", text[i:j + 1], line))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            toks.append(Tok("chr", text[i:j + 1], line))
            i = j + 1
            continue
        if c in ID_START:
            j = i + 1
            while j < n and text[j] in ID_CONT:
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < n and (text[j] in ID_CONT or text[j] in ".'"):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        three = text[i:i + 3]
        if three in PUNCT3:
            toks.append(Tok("p", three, line))
            i += 3
            continue
        two = text[i:i + 2]
        if two in PUNCT2:
            toks.append(Tok("p", two, line))
            i += 2
            continue
        toks.append(Tok("p", c, line))
        i += 1
    return toks


def match_paren(toks, i, open_p="(", close_p=")"):
    """toks[i] is `open_p`; returns index just past its match."""
    depth = 0
    n = len(toks)
    while i < n:
        v = toks[i].val
        if toks[i].kind == "p":
            if v == open_p:
                depth += 1
            elif v == close_p:
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return n


# --------------------------------------------------------------------
# Program model
# --------------------------------------------------------------------

class ClassInfo:
    def __init__(self, qname, path, line):
        self.qname = qname          # enclosing-class chain, no namespaces
        self.path = str(path)
        self.line = line
        self.members = {}           # field name -> core type string|None
        self.mutexes = {}           # mutex field name -> decl line
        self.method_returns = {}    # method name -> 'Status'|'Result'|None
        self.methods = set()        # declared method names
        # (field, 'before'|'after', other-expr tokens, line)
        self.declared_edges = []

    def simple(self):
        return self.qname.rsplit("::", 1)[-1]


class LockEvent:
    def __init__(self, ident, raw, line):
        self.ident = ident          # 'Class::field' | '?file::field'
        self.raw = raw              # source expression text
        self.line = line
        self.held = []              # identities held when acquired
        self.held_raw = []          # raw exprs held when acquired


class CallEvent:
    def __init__(self, chain, line, held, held_anchors):
        self.chain = chain          # [(sep, name)], sep in {None,'.','->','::'}
        self.line = line
        self.held = held            # identity list at call
        self.held_anchors = held_anchors   # [(ident, anchor)]
        self.resolved = None        # qname string or None
        self.last = chain[-1][1]


class WaitEvent:
    def __init__(self, line, timed, released, held_anchors):
        self.line = line
        self.timed = timed
        self.released = released    # identity of the mutex argument
        self.held_anchors = held_anchors


class GrowthEvent:
    def __init__(self, line, method):
        self.line = line
        self.method = method


class DiscardEvent:
    def __init__(self, kind, chains, line):
        self.kind = kind            # 'bare' | 'void' | 'ternary'
        self.chains = chains        # list of call chains
        self.line = line


class FunctionInfo:
    def __init__(self, qname, cls, path, line):
        self.qname = qname          # e.g. 'ReqPump::Register'
        self.cls = cls              # owning ClassInfo qname or None
        self.path = str(path)
        self.line = line
        self.params = {}            # param name -> core type|None
        self.requires = []          # resolved identities from WSQ_REQUIRES
        self.idents = set()         # every identifier in the body
        self.locks = []
        self.calls = []
        self.waits = []
        self.growths = []
        self.discards = []
        # Filled by the analysis:
        self.direct_acquires = {}   # ident -> LockEvent (first)

    def name(self):
        return self.qname.rsplit("::", 1)[-1]


class Program:
    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.classes = {}           # qname -> ClassInfo
        self.functions = []         # every FunctionInfo (defs may repeat
                                    # for overloads; analysis iterates all)
        self.by_qname = {}          # qname -> [FunctionInfo]
        self.methods_of = {}        # simple method name -> set(class qnames)

    def add_class(self, ci):
        old = self.classes.get(ci.qname)
        if old is None:
            self.classes[ci.qname] = ci
            return ci
        # Merge (same header parsed in several TUs under libclang).
        old.members.update(ci.members)
        old.mutexes.update(ci.mutexes)
        old.method_returns.update(ci.method_returns)
        old.methods.update(ci.methods)
        seen = {(e[0], e[1], e[3]) for e in old.declared_edges}
        for e in ci.declared_edges:
            if (e[0], e[1], e[3]) not in seen:
                old.declared_edges.append(e)
        return old

    def add_function(self, fi):
        self.functions.append(fi)
        self.by_qname.setdefault(fi.qname, []).append(fi)

    def index(self):
        for ci in self.classes.values():
            for mname in ci.methods | set(ci.method_returns):
                self.methods_of.setdefault(mname, set()).add(ci.qname)
        for fi in self.functions:
            if fi.cls:
                self.methods_of.setdefault(fi.name(), set()).add(fi.cls)

    def find_class(self, name):
        """Resolve a core-type string to a ClassInfo (exact qname,
        unique '::'-suffix, or unique simple name)."""
        if not name:
            return None
        if name in self.classes:
            return self.classes[name]
        suffix = [c for q, c in self.classes.items()
                  if q.endswith("::" + name)]
        if len(suffix) == 1:
            return suffix[0]
        simple = [c for c in self.classes.values() if c.simple() == name]
        if len(simple) == 1:
            return simple[0]
        return None


WRAPPER_TEMPLATES = {"shared_ptr", "unique_ptr", "weak_ptr", "optional",
                     "atomic", "reference_wrapper"}
TYPE_QUALIFIERS = {"const", "mutable", "static", "constexpr", "inline",
                   "volatile", "typename", "struct", "class", "explicit",
                   "virtual", "friend", "thread_local"}


def extract_core_type(toks):
    """Best-effort 'core' class name from a declaration's type tokens:
    strips qualifiers/pointers/refs, looks through smart-pointer
    templates, drops the wsq:: / std:: namespace prefix."""
    ids = []
    i, n = 0, len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "id" and t.val in TYPE_QUALIFIERS:
            i += 1
            continue
        break
    # Collect the first identifier chain.
    chain = []
    while i < n and toks[i].kind == "id":
        chain.append(toks[i].val)
        if i + 1 < n and toks[i + 1].val == "::":
            i += 2
        else:
            i += 1
            break
    if not chain:
        return None
    if i < n and toks[i].val == "<":
        # Template: look through known wrappers, else give up on args.
        if chain[-1] in WRAPPER_TEMPLATES:
            j = match_angle(toks, i)
            return extract_core_type(toks[i + 1:j - 1])
        return None if chain[-1] not in ("vector", "deque") else None
    while chain and chain[0] in ("std", "wsq"):
        chain.pop(0)
    return "::".join(chain) if chain else None


def match_angle(toks, i):
    """toks[i] is '<'; returns index just past the matching '>'.
    Treats '>>' as two closes."""
    depth = 0
    n = len(toks)
    while i < n:
        v = toks[i].val
        if toks[i].kind == "p":
            if v == "<":
                depth += 1
            elif v == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif v == ">>":
                depth -= 2
                if depth <= 0:
                    return i + 1
            elif v in (";", "{"):
                return i  # not a template after all
        i += 1
    return n


def parse_chain(toks, i):
    """Parses a postfix id chain `a::b->c.d` starting at toks[i].
    Returns (chain, next_index) where chain is [(sep, name)], or
    (None, i) if toks[i] does not start a chain."""
    if i >= len(toks) or toks[i].kind != "id":
        return None, i
    chain = [(None, toks[i].val)]
    i += 1
    while i + 1 < len(toks) and toks[i].kind == "p" and \
            toks[i].val in ("::", ".", "->") and toks[i + 1].kind == "id":
        chain.append((toks[i].val, toks[i + 1].val))
        i += 2
    return chain, i


# --------------------------------------------------------------------
# Body scanner (shared by both frontends)
# --------------------------------------------------------------------

LAMBDA_PRECEDERS = {"(", ",", "=", "return", "{", ";", "&&", "||", "!",
                    "?", ":", "co_return", "case"}


class Resolver:
    """Type/identity resolution for one function, over the program's
    class registry. Both frontends use it; the clang frontend seeds
    params/members with compiler-accurate types."""

    def __init__(self, program, func):
        self.program = program
        self.func = func

    def _enclosing_chain(self):
        """Innermost-first chain of enclosing ClassInfos."""
        out = []
        q = self.func.cls
        while q:
            ci = self.program.classes.get(q)
            if ci:
                out.append(ci)
            q = q.rsplit("::", 1)[0] if "::" in q else None
        return out

    def type_of_name(self, name):
        """Core type of a parameter or member visible in the function."""
        if name == "this" and self.func.cls:
            return self.func.cls
        t = self.func.params.get(name)
        if t:
            return t
        for ci in self._enclosing_chain():
            if name in ci.members:
                return ci.members[name]
        return None

    def class_of_chain(self, chain):
        """Resolves the receiver prefix of a call/field chain to a
        ClassInfo, following member types link by link."""
        if not chain:
            return None
        first_sep, first = chain[0]
        if first_sep is None and chain and all(
                sep in (None, "::") for sep, _ in chain):
            # Fully scoped chain: Class::Inner::...
            ci = self.program.find_class(
                "::".join(name for _, name in chain))
            if ci:
                return ci
        ci = None
        t = self.type_of_name(first)
        if t:
            ci = self.program.find_class(t)
        elif first_sep is None:
            ci = self.program.find_class(first)  # static: Class::f
        for sep, name in chain[1:]:
            if ci is None:
                return None
            if sep == "::":
                ci = self.program.find_class(ci.qname + "::" + name) or \
                    self.program.find_class(name)
                continue
            t = ci.members.get(name)
            ci = self.program.find_class(t) if t else None
        return ci

    def mutex_identity(self, toks):
        """Resolves a mutex expression (`&core->mu`, `mu_`, `s.mu`) to
        ('Class::field', (path, line)) — or a file-local '?stem::field'
        pseudo-identity with no anchor when the receiver can't be
        typed."""
        toks = [t for t in toks if not (t.kind == "p" and
                                        t.val in ("&", "(", ")", "*"))]
        chain, i = parse_chain(toks, 0)
        if not chain or i < len(toks):
            return None, None
        field = chain[-1][1]
        owner = None
        if len(chain) == 1:
            for ci in self._enclosing_chain():
                if field in ci.members or field in ci.mutexes:
                    owner = ci
                    break
        else:
            owner = self.class_of_chain(chain[:-1])
        if owner is not None and (field in owner.mutexes or
                                  field in owner.members):
            anchor = (owner.path, owner.mutexes.get(field))
            return (owner.qname + "::" + field,
                    anchor if anchor[1] else None)
        stem = pathlib.Path(self.func.path).stem
        return f"?{stem}::{field}", None


class _Guard:
    def __init__(self, var, ident, raw, depth, anchor):
        self.var = var
        self.ident = ident
        self.raw = raw
        self.depth = depth
        self.anchor = anchor
        self.active = True


def scan_body(func, toks, program, out_functions):
    """Walks a function body's tokens, populating `func`'s events.
    Lambda bodies become separate FunctionInfos (their code runs later,
    usually on another thread — the enclosing lock context does not
    apply) appended to out_functions."""
    res = Resolver(program, func)
    guards = []
    for ident in func.requires:
        g = _Guard("<requires>", ident[0], ident[2], 0, ident[1])
        guards.append(g)
    depth = 1
    pdepth = 0
    stmt_start = 0
    i, n = 0, len(toks)

    def held():
        return [g.ident for g in guards if g.active and g.ident]

    def held_anchors():
        return [(g.ident, g.anchor) for g in guards
                if g.active and g.ident]

    def held_raw():
        return [g.raw for g in guards if g.active]

    while i < n:
        t = toks[i]
        if t.kind == "id":
            func.idents.add(t.val)
        if t.kind == "p":
            if t.val == "{":
                depth += 1
                stmt_start = i + 1
                i += 1
                continue
            if t.val == "}":
                guards[:] = [g for g in guards if g.depth < depth]
                depth -= 1
                stmt_start = i + 1
                i += 1
                continue
            if t.val == "(":
                pdepth += 1
            elif t.val == ")":
                pdepth = max(0, pdepth - 1)
            elif t.val == ";" and pdepth == 0:
                _scan_statement(func, toks, stmt_start, i, res)
                stmt_start = i + 1
                i += 1
                continue
            elif t.val == "[":
                prev = toks[i - 1] if i > 0 else None
                if prev is None or (prev.val in LAMBDA_PRECEDERS):
                    j = _try_lambda(func, toks, i, program, out_functions)
                    if j > i:
                        i = j
                        continue
            i += 1
            continue

        # MutexLock guard declaration: MutexLock var(&expr);
        if t.val == "MutexLock" and i + 1 < n:
            j = i + 1
            if toks[j].kind == "id" and j + 1 < n and \
                    toks[j + 1].val == "(":
                var = toks[j].val
                end = match_paren(toks, j + 1)
                expr = toks[j + 2:end - 1]
                ident, anchor = res.mutex_identity(expr)
                raw = render(expr)
                ev = LockEvent(ident, raw, t.line)
                ev.held = held()
                ev.held_raw = held_raw()
                func.locks.append(ev)
                guards.append(_Guard(var, ident, raw, depth, anchor))
                i = end
                continue

        # Guard Unlock()/Lock() toggles.
        if t.val in ("Unlock", "Lock") and i >= 2 and \
                toks[i - 1].val in (".",) and toks[i - 2].kind == "id":
            var = toks[i - 2].val
            for g in guards:
                if g.var == var:
                    g.active = (t.val == "Lock")
            i += 1
            continue

        # Call chains.
        if t.val not in CONTROL_KEYWORDS and \
                not (i > 0 and toks[i - 1].kind == "p" and
                     toks[i - 1].val in (".", "->", "::")):
            chain, j = parse_chain(toks, i)
            if chain and j < n and toks[j].val == "(":
                last = chain[-1][1]
                if last in ("Wait", "WaitForMicros"):
                    end = match_paren(toks, j)
                    args = split_args(toks[j + 1:end - 1])
                    released, _ = res.mutex_identity(args[0]) \
                        if args else (None, None)
                    func.waits.append(WaitEvent(
                        t.line, last == "WaitForMicros", released,
                        held_anchors()))
                elif last in GROWTH_METHODS and len(chain) > 1:
                    func.growths.append(GrowthEvent(t.line, last))
                    ev = CallEvent(chain, t.line, held(), held_anchors())
                    func.calls.append(ev)
                else:
                    ev = CallEvent(chain, t.line, held(), held_anchors())
                    func.calls.append(ev)
                for _, name in chain:
                    func.idents.add(name)
                i = j + 1  # descend into the args normally
                continue
        i += 1
    _scan_statement(func, toks, stmt_start, n, res)


def _try_lambda(func, toks, i, program, out_functions):
    """toks[i] is '[' in a lambda-capture position. If a lambda body
    follows, scan it as a separate FunctionInfo and return the index
    past its closing brace; else return i."""
    j = match_paren(toks, i, "[", "]")
    if j >= len(toks):
        return i
    if toks[j].val == "(":
        j = match_paren(toks, j)
    while j < len(toks) and (
            (toks[j].kind == "id" and
             toks[j].val in ("mutable", "noexcept", "constexpr")) or
            toks[j].val == "->"):
        if toks[j].val == "->":
            j += 1
            while j < len(toks) and toks[j].val not in ("{", ";"):
                j += 1
            break
        j += 1
    if j >= len(toks) or toks[j].val != "{":
        return i
    end = match_paren(toks, j, "{", "}")
    sub = FunctionInfo(f"{func.qname}::<lambda@{toks[i].line}>",
                       func.cls, func.path, toks[i].line)
    sub.params = dict(func.params)
    body = toks[j + 1:end - 1]
    scan_body(sub, body, program, out_functions)
    out_functions.append(sub)
    return end


def _scan_statement(func, toks, lo, hi, res):
    """Classifies one statement for status-discard."""
    if hi - lo < 2:
        return
    s = toks[lo:hi]
    # Strip leading labels (case x: / public: etc.) conservatively.
    if s[0].kind != "id":
        if not (s[0].kind == "p" and s[0].val == "("):
            return
    first = s[0]
    if first.kind == "id" and first.val in CONTROL_KEYWORDS:
        return
    # Assignment anywhere at paren-depth 0 disqualifies.
    pd = 0
    has_q = False
    q_at = colon_at = -1
    for k, t in enumerate(s):
        if t.kind == "p":
            if t.val == "(":
                pd += 1
            elif t.val == ")":
                pd -= 1
            elif pd == 0 and t.val == "=":
                return
            elif pd == 0 and t.val == "?":
                has_q, q_at = True, k
            elif pd == 0 and t.val == ":" and has_q and colon_at < 0:
                colon_at = k
    if s[-1].val != ")":
        return
    # (void)chain(...) cast discard.
    if s[0].val == "(" and len(s) > 3 and s[1].val == "void" and \
            s[2].val == ")":
        chain, j = parse_chain(s, 3)
        if chain and j < len(s) and s[j].val == "(":
            func.discards.append(
                DiscardEvent("void", [chain], s[0].line))
        return
    if has_q and colon_at > 0:
        arm1, _ = parse_chain(s, q_at + 1)
        arm2, _ = parse_chain(s, colon_at + 1)
        arms = [a for a in (arm1, arm2) if a]
        if arms:
            func.discards.append(
                DiscardEvent("ternary", arms, s[0].line))
        return
    chain, j = parse_chain(s, 0)
    if chain and j < len(s) and s[j].val == "(" and \
            match_paren(s, j) == len(s):
        func.discards.append(DiscardEvent("bare", [chain], s[0].line))


def split_args(toks):
    """Splits argument tokens at top-level commas."""
    out, cur, depth = [], [], 0
    for t in toks:
        if t.kind == "p":
            if t.val in ("(", "[", "{"):
                depth += 1
            elif t.val in (")", "]", "}"):
                depth -= 1
            elif t.val == "," and depth == 0:
                out.append(cur)
                cur = []
                continue
        cur.append(t)
    if cur:
        out.append(cur)
    return out


def render(toks):
    return " ".join(t.val for t in toks)


# --------------------------------------------------------------------
# Internal frontend: structural parse without libclang
# --------------------------------------------------------------------

WSQ_MACRO = re.compile(r"^WSQ_[A-Z_]+$")
SCOPE_TERMINATORS = {"WSQ_GUARDED_BY", "WSQ_PT_GUARDED_BY",
                     "WSQ_ACQUIRED_BEFORE", "WSQ_ACQUIRED_AFTER"}


class InternalFrontend:
    """Self-contained structural parser: recovers classes, members,
    method declarations, and function definitions from the token
    stream. Heuristic where libclang would be exact (receiver typing,
    overload resolution) — resolution failures degrade to skipped
    propagation, never to crashes."""

    def __init__(self, program):
        self.program = program
        self._pending = []   # (FunctionInfo, body token slice)

    def add_file(self, path):
        try:
            text = pathlib.Path(path).read_text(
                encoding="utf-8", errors="replace")
        except OSError:
            return
        toks = tokenize(text)
        self._parse_scope(path, toks, 0, len(toks), [])

    def finish(self):
        """Scan all collected function bodies (classes are complete)."""
        extra = []
        for fi, body in self._pending:
            self._resolve_requires(fi)
            scan_body(fi, body, self.program, extra)
            self.program.add_function(fi)
        for fi in extra:
            self.program.add_function(fi)
        self._pending = []

    def _resolve_requires(self, fi):
        res = Resolver(self.program, fi)
        resolved = []
        for expr in fi.requires:
            ident, anchor = res.mutex_identity(expr)
            if ident:
                resolved.append((ident, anchor, render(expr)))
        fi.requires = resolved

    # -- structural descent ------------------------------------------

    def _parse_scope(self, path, toks, i, end, class_stack):
        """Parses declarations between toks[i:end] at namespace/class/
        global scope."""
        while i < end:
            head_start = i
            # Read up to ';' or '{' at paren depth 0.
            pd = 0
            term = None
            while i < end:
                t = toks[i]
                if t.kind == "p":
                    if t.val == "(":
                        pd += 1
                    elif t.val == ")":
                        pd = max(0, pd - 1)
                    elif pd == 0 and t.val in (";", "{"):
                        term = t.val
                        break
                i += 1
            if term is None:
                return
            head = toks[head_start:i]
            if term == ";":
                if class_stack:
                    self._member_decl(path, head, class_stack)
                i += 1
                continue
            # term == '{'
            body_start = i + 1
            body_end = match_paren(toks, i, "{", "}")
            kw = head[0].val if head else ""
            if kw == "namespace" or (kw == "extern" and len(head) > 1):
                self._parse_scope(path, toks, body_start, body_end - 1,
                                  class_stack)
            elif self._is_class_head(head):
                name = self._class_name(head)
                if name:
                    qname = "::".join(
                        [c.qname for c in class_stack[-1:]] + [name]) \
                        if class_stack else name
                    ci = ClassInfo(qname, path, head[0].line)
                    ci = self.program.add_class(ci)
                    self._parse_scope(path, toks, body_start,
                                      body_end - 1, class_stack + [ci])
            elif kw == "enum":
                pass
            else:
                fi = self._function_head(path, head, class_stack)
                if fi is not None:
                    self._pending.append(
                        (fi, toks[body_start:body_end - 1]))
            i = body_end
            # Skip a trailing ';' (class/struct definitions).
            if i < end and toks[i].val == ";":
                i += 1

    @staticmethod
    def _is_class_head(head):
        kws = [t.val for t in head if t.kind == "id"]
        if not kws or kws[0] == "template":
            # template<...> class/struct — still a class definition.
            kws = [v for v in kws if v in ("class", "struct", "union")]
            return bool(kws)
        if kws[0] not in ("class", "struct", "union"):
            return False
        # `struct X x = {...}` style variable definitions carry '='.
        return not any(t.val == "=" for t in head)

    @staticmethod
    def _class_name(head):
        i = 0
        n = len(head)
        # Skip template<...> prefix.
        if head[0].val == "template":
            i = 1
            if i < n and head[i].val == "<":
                i = match_angle(head, i)
        while i < n and head[i].val not in ("class", "struct", "union"):
            i += 1
        i += 1
        while i < n:
            t = head[i]
            if t.kind == "id":
                if WSQ_MACRO.match(t.val) or t.val == "alignas":
                    if i + 1 < n and head[i + 1].val == "(":
                        i = match_paren(head, i + 1)
                        continue
                    i += 1
                    continue
                if t.val == "final":
                    i += 1
                    continue
                # First plain identifier is the class name (a ':' base
                # clause or '{' follows).
                return t.val
            i += 1
        return None

    def _member_decl(self, path, head, class_stack):
        """One `...;` declaration inside a class body: records mutex
        members, member types, method return types, and declared
        ACQUIRED_BEFORE/AFTER edges."""
        ci = class_stack[-1]
        if not head:
            return
        # Strip access specifiers that precede on the same statement
        # (public: etc. end with ':' so they rarely land here).
        toks = head
        ids = [t.val for t in toks if t.kind == "id"]
        if not ids or ids[0] in ("using", "typedef", "friend",
                                 "template", "static_assert"):
            return
        # Find the first '(' at angle depth 0 to split member/method.
        ad = 0
        paren_at = -1
        stop_at = len(toks)
        for k, t in enumerate(toks):
            if t.kind == "id" and t.val in SCOPE_TERMINATORS:
                stop_at = k
                break
            if t.kind == "p":
                if t.val == "<":
                    ad += 1
                elif t.val == ">":
                    ad = max(0, ad - 1)
                elif t.val == ">>":
                    ad = max(0, ad - 2)
                elif t.val == "(" and ad == 0:
                    paren_at = k
                    break
                elif t.val == "=" and ad == 0:
                    stop_at = k
                    break
        if paren_at > 0:
            self._method_decl(ci, toks, paren_at)
            return
        # Member variable: name = last id before stop_at.
        name_tok = None
        for k in range(stop_at - 1, -1, -1):
            if toks[k].kind == "id":
                name_tok = (k, toks[k])
                break
        if name_tok is None:
            return
        k, nt = name_tok
        type_toks = toks[:k]
        ids_t = [t.val for t in type_toks if t.kind == "id"]
        if "Mutex" in ids_t and "MutexLock" not in ids_t:
            ci.mutexes[nt.val] = nt.line
            ci.members[nt.val] = "Mutex"
        else:
            ci.members.setdefault(nt.val, extract_core_type(type_toks))
        # Declared lock-order edges on this member.
        j = stop_at
        while j < len(toks):
            t = toks[j]
            if t.kind == "id" and t.val in ("WSQ_ACQUIRED_BEFORE",
                                            "WSQ_ACQUIRED_AFTER") and \
                    j + 1 < len(toks) and toks[j + 1].val == "(":
                end = match_paren(toks, j + 1)
                for arg in split_args(toks[j + 2:end - 1]):
                    ci.declared_edges.append(
                        (nt.val,
                         "before" if t.val.endswith("BEFORE")
                         else "after", arg, t.line))
                j = end
                continue
            j += 1

    def _method_decl(self, ci, toks, paren_at):
        """Method declaration: record name, return kind, annotations."""
        name_tok = None
        k = paren_at - 1
        if k >= 0 and toks[k].kind == "id":
            name_tok = toks[k]
        if name_tok is None:
            return
        ci.methods.add(name_tok.val)
        ret_ids = [t.val for t in toks[:k] if t.kind == "id"]
        if "Status" in ret_ids:
            ci.method_returns[name_tok.val] = "Status"
        elif "Result" in ret_ids:
            ci.method_returns[name_tok.val] = "Result"
        else:
            ci.method_returns.setdefault(name_tok.val, None)

    def _function_head(self, path, head, class_stack):
        """Classifies a `...) ... {` head as a function definition and
        builds its FunctionInfo (params, name, requires)."""
        if not head:
            return None
        if head[0].kind == "id" and head[0].val in CONTROL_KEYWORDS:
            return None
        # Locate the parameter list: the first '(' at angle depth 0
        # preceded by an identifier (or operator).
        ad = 0
        paren_at = -1
        for k, t in enumerate(head):
            if t.kind == "p":
                if t.val == "<":
                    ad += 1
                elif t.val == ">":
                    ad = max(0, ad - 1)
                elif t.val == ">>":
                    ad = max(0, ad - 2)
                elif t.val == "=" and ad == 0:
                    return None  # initialized variable, not a function
                elif t.val == "(" and ad == 0:
                    if k > 0 and (head[k - 1].kind == "id" or
                                  head[k - 1].val in ("]", ">")):
                        paren_at = k
                    break
        if paren_at < 1:
            return None
        params_end = match_paren(head, paren_at)
        # Function name: the id chain ending right before '('.
        chain_ids = [head[paren_at - 1].val]
        k = paren_at - 2
        while k >= 1 and head[k].val == "::" and head[k - 1].kind == "id":
            chain_ids.append(head[k - 1].val)
            k -= 2
        chain_ids.reverse()
        if chain_ids[-1] == "operator":
            return None
        if head[paren_at - 2].val == "operator" if paren_at >= 2 else False:
            chain_ids = ["operator" + chain_ids[-1]]
        cls_qname = None
        if class_stack:
            prefix = [class_stack[-1].qname] + chain_ids[:-1]
            cls_qname = "::".join(prefix)
            qname = "::".join(prefix + chain_ids[-1:])
        elif len(chain_ids) > 1:
            cls_qname = "::".join(chain_ids[:-1])
            qname = "::".join(chain_ids)
        else:
            qname = chain_ids[0]
        if cls_qname is not None:
            ci = self.program.find_class(cls_qname)
            cls_qname = ci.qname if ci else cls_qname
        fi = FunctionInfo(qname, cls_qname, path, head[paren_at].line)
        # Parameters.
        for arg in split_args(head[paren_at + 1:params_end - 1]):
            if not arg:
                continue
            pname = None
            for t in reversed(arg):
                if t.kind == "id":
                    pname = t
                    break
            if pname is None or pname.val in ("void",):
                continue
            idx = arg.index(pname)
            fi.params[pname.val] = extract_core_type(arg[:idx])
        # Trailer annotations: WSQ_REQUIRES(...) between ')' and '{'.
        j = params_end
        while j < len(head):
            t = head[j]
            if t.kind == "id" and t.val in ("WSQ_REQUIRES",
                                            "WSQ_REQUIRES_SHARED") and \
                    j + 1 < len(head) and head[j + 1].val == "(":
                end = match_paren(head, j + 1)
                for arg in split_args(head[j + 2:end - 1]):
                    fi.requires.append(arg)   # resolved in finish()
                j = end
                continue
            j += 1
        return fi


# --------------------------------------------------------------------
# Whole-program analysis
# --------------------------------------------------------------------

class Analysis:
    def __init__(self, program, root, sups):
        self.program = program
        self.root = pathlib.Path(root)
        self.sups = sups
        self.qacq = {}     # qname -> {mutex ident: witness}
        self.qblock = {}   # qname -> (kind, released, why) | None
        self.findings = []
        self._seen = set()

    def rel(self, path):
        return relpath(self.root, path)

    def emit(self, finding):
        if finding.key() in self._seen:
            return
        self._seen.add(finding.key())
        self.findings.append(finding)

    # -- call resolution ---------------------------------------------

    def resolve_call(self, fi, chain):
        """Resolves a call chain to a 'Class::method' / 'function'
        qname, or None."""
        last = chain[-1][1]
        if len(chain) > 1 and all(sep in (None, "::")
                                  for sep, _ in chain):
            names = [name for _, name in chain]
            if names[0] in ("std", "chrono", "this_thread"):
                return None
            ci = self.program.find_class("::".join(names[:-1]))
            if ci:
                return ci.qname + "::" + last
            # e.g. wsq::FreeFunction
            if names[-2] == "wsq" or self.program.by_qname.get(last):
                return last if last in self.program.by_qname else None
            return None
        if len(chain) > 1:
            res = Resolver(self.program, fi)
            ci = res.class_of_chain(chain[:-1])
            return ci.qname + "::" + last if ci else None
        # Bare name.
        q = fi.cls
        while q:
            cand = q + "::" + last
            ci = self.program.classes.get(q)
            if cand in self.program.by_qname or \
                    (ci and last in ci.methods):
                return cand
            q = q.rsplit("::", 1)[0] if "::" in q else None
        if last in self.program.by_qname:
            return last
        owners = self.program.methods_of.get(last, ())
        if len(owners) == 1:
            return next(iter(owners)) + "::" + last
        return None

    def returns_kind(self, qname):
        if qname is None:
            return None
        if "::" in qname:
            cls, method = qname.rsplit("::", 1)
            ci = self.program.classes.get(cls)
            if ci and ci.method_returns.get(method):
                return ci.method_returns[method]
        for fi in self.program.by_qname.get(qname, ()):
            kind = getattr(fi, "returns", None)
            if kind:
                return kind
        return None

    # -- fixpoints ----------------------------------------------------

    def _hard_seed(self, fi, ev, resolved):
        """Is this call event a known-blocking primitive?"""
        if ev.last in HARD_BLOCKING_CALLS:
            return f"{ev.last}() at {self.rel(fi.path)}:{ev.line}"
        for suffix, method in HARD_BLOCKING_METHODS:
            if ev.last != method:
                continue
            if suffix is None:
                return (f"{render_chain(ev.chain)} at "
                        f"{self.rel(fi.path)}:{ev.line}")
            if resolved and resolved.rsplit("::", 1)[0].endswith(suffix):
                return (f"{resolved} at "
                        f"{self.rel(fi.path)}:{ev.line}")
        return None

    def compute(self):
        prog = self.program
        prog.index()
        for fi in prog.functions:
            req = {r[0] for r in fi.requires}
            for lk in fi.locks:
                if lk.ident and not lk.ident.startswith("?") and \
                        lk.ident not in req:
                    fi.direct_acquires.setdefault(lk.ident, lk)
            for ev in fi.calls:
                ev.resolved = self.resolve_call(fi, ev.chain)

        # Acquisition closure, per qname (overloads merged).
        for fi in prog.functions:
            d = self.qacq.setdefault(fi.qname, {})
            for ident, lk in fi.direct_acquires.items():
                d.setdefault(
                    ident,
                    f"acquired at {self.rel(fi.path)}:{lk.line}")
        for _ in range(32):
            changed = False
            for fi in prog.functions:
                mine = self.qacq[fi.qname]
                for ev in fi.calls:
                    if not ev.resolved or ev.resolved not in self.qacq:
                        continue
                    for ident, w in self.qacq[ev.resolved].items():
                        if ident not in mine:
                            mine[ident] = (
                                f"via {ev.resolved} "
                                f"({self.rel(fi.path)}:{ev.line})")
                            changed = True
            if not changed:
                break

        # Blocking closure.
        for fi in prog.functions:
            info = None
            for ev in fi.calls:
                why = self._hard_seed(fi, ev, ev.resolved)
                if why:
                    info = ("hard", None, why)
                    break
            if info is None:
                for wv in fi.waits:
                    why = (f"CondVar wait at "
                           f"{self.rel(fi.path)}:{wv.line}")
                    info = _merge_block(
                        info, ("cv", wv.released, why))
            self.qblock[fi.qname] = _merge_block(
                self.qblock.get(fi.qname), info)
        for _ in range(32):
            changed = False
            for fi in prog.functions:
                cur = self.qblock.get(fi.qname)
                if cur and cur[0] == "hard":
                    continue
                for ev in fi.calls:
                    if not ev.resolved:
                        continue
                    sub = self.qblock.get(ev.resolved)
                    if not sub:
                        continue
                    why = (f"calls {ev.resolved} at "
                           f"{self.rel(fi.path)}:{ev.line} → "
                           + sub[2])
                    if len(why) > 240:
                        why = why[:240] + "…"
                    new = _merge_block(cur, (sub[0], sub[1], why))
                    if new != cur:
                        self.qblock[fi.qname] = new
                        cur = new
                        changed = True
            if not changed:
                break

    # -- checks -------------------------------------------------------

    def check_lock_order(self):
        edges = {}   # (a, b) -> [(path, line, desc)]

        def add_edge(a, b, path, line, desc):
            edges.setdefault((a, b), []).append((path, line, desc))

        for fi in self.program.functions:
            for lk in fi.locks:
                if not lk.ident:
                    continue
                for idx, h in enumerate(lk.held):
                    if h == lk.ident:
                        raw_prev = lk.held_raw[idx] \
                            if idx < len(lk.held_raw) else None
                        if raw_prev == lk.raw:
                            self.emit(Finding(
                                self.rel(fi.path), lk.line, "lock-order",
                                f"{fi.qname} acquires '{lk.raw}' while "
                                "already holding it: guaranteed "
                                "self-deadlock (wsq::Mutex is not "
                                "recursive)"))
                        continue
                    add_edge(h, lk.ident, fi.path, lk.line,
                             f"{fi.qname} acquires {lk.ident} while "
                             f"holding {h} "
                             f"({self.rel(fi.path)}:{lk.line})")
            for ev in fi.calls:
                if not ev.resolved or ev.resolved not in self.qacq:
                    continue
                for m, w in self.qacq[ev.resolved].items():
                    if m in ev.held:
                        continue
                    for h in ev.held:
                        if h == m:
                            continue
                        add_edge(h, m, fi.path, ev.line,
                                 f"{fi.qname} holds {h}, calls "
                                 f"{ev.resolved} "
                                 f"({self.rel(fi.path)}:{ev.line}) "
                                 f"which acquires {m} ({w})")
        for ci in self.program.classes.values():
            if not ci.declared_edges:
                continue
            probe = FunctionInfo("<decl>", ci.qname, ci.path, ci.line)
            res = Resolver(self.program, probe)
            for field, dirn, arg, line in ci.declared_edges:
                other, _ = res.mutex_identity(arg)
                if not other:
                    continue
                this = ci.qname + "::" + field
                a, b = (this, other) if dirn == "before" \
                    else (other, this)
                add_edge(a, b, ci.path, line,
                         f"declared WSQ_ACQUIRED_"
                         f"{'BEFORE' if dirn == 'before' else 'AFTER'} "
                         f"({self.rel(ci.path)}:{line})")

        # Anchored suppression drops individual edges.
        live = {}
        for (a, b), wits in edges.items():
            kept = [w for w in wits
                    if not self.sups.active(
                        "lock-order", [(self.rel(w[0]), w[1])])]
            if kept:
                live[(a, b)] = kept

        for cycle in find_cycles(live):
            first = live[(cycle[0], cycle[1])][0]
            steps = []
            for i in range(len(cycle) - 1):
                w = live[(cycle[i], cycle[i + 1])][0]
                steps.append(w[2])
            self.emit(Finding(
                self.rel(first[0]), first[1], "lock-order",
                "potential deadlock: lock-order cycle "
                + " -> ".join(cycle) + "; " + "; ".join(steps)))

    def check_blocking_under_lock(self):
        for fi in self.program.functions:
            for wv in fi.waits:
                offending = [(h, a) for (h, a) in wv.held_anchors
                             if h != wv.released]
                if offending:
                    self._emit_blocking(
                        fi, wv.line, offending,
                        f"CondVar wait (releases only "
                        f"{wv.released or 'its own mutex'})")
            for ev in fi.calls:
                why = self._hard_seed(fi, ev, ev.resolved)
                offending = ev.held_anchors
                if why is None and ev.resolved:
                    sub = self.qblock.get(ev.resolved)
                    if sub:
                        kind, released, sub_why = sub
                        why = (f"call to {ev.resolved} may block "
                               f"({sub_why})")
                        if kind == "cv" and released:
                            offending = [(h, a) for (h, a) in offending
                                         if h != released]
                elif why is not None:
                    why = f"blocking call: {why}"
                if why is None or not offending:
                    continue
                self._emit_blocking(fi, ev.line, offending, why)

    def _emit_blocking(self, fi, line, offending, why):
        site = (self.rel(fi.path), line)
        held_desc = ", ".join(h for h, _ in offending)
        # Decl-anchored suppression must cover every offending lock.
        decl_anchors = []
        covered = True
        for h, anchor in offending:
            if anchor is None:
                covered = False
                break
            decl_anchors.append((self.rel(anchor[0]), anchor[1]))
        if self.sups.active("blocking-under-lock", [site]):
            return
        if covered and decl_anchors and all(
                self.sups.active("blocking-under-lock", [a])
                for a in decl_anchors):
            return
        self.emit(Finding(
            site[0], line, "blocking-under-lock",
            f"{why} while MutexLock holds {held_desc} in {fi.qname}; "
            "move the blocking work outside the critical section, or "
            "annotate the site (or every held mutex's declaration) "
            "with 'wsqcheck: allow(blocking-under-lock)' and a "
            "justification"))

    def check_cancel_blind_wait(self):
        for fi in self.program.functions:
            aware = any(CANCEL_AWARE.search(i) for i in fi.idents)
            if aware:
                continue
            for wv in fi.waits:
                if wv.timed:
                    continue
                site = (self.rel(fi.path), wv.line)
                if self.sups.active("cancel-blind-wait", [site]):
                    continue
                self.emit(Finding(
                    site[0], wv.line, "cancel-blind-wait",
                    f"untimed CondVar wait in {fi.qname}, whose entire "
                    "body never consults a CancellationToken or "
                    "shutdown/stop flag; a consumer parked here cannot "
                    "observe a deadline or a shutting-down pump"))

    def check_unbounded_op_growth(self):
        for fi in self.program.functions:
            if fi.name() not in ("OpenImpl", "NextImpl"):
                continue
            if "src/exec/" not in self.rel(fi.path):
                continue
            if fi.idents & BUDGET_API:
                continue
            for g in fi.growths:
                site = (self.rel(fi.path), g.line)
                if self.sups.active("unbounded-op-growth", [site]):
                    continue
                self.emit(Finding(
                    site[0], g.line, "unbounded-op-growth",
                    f"{g.method} in {fi.qname} grows a container but "
                    "the enclosing function never touches the "
                    "memory-budget API (MemoryReservation "
                    "TryAdd/ForceAdd, TryReserve, WaitForRoom); "
                    "charge the ledger or annotate with "
                    "'wsqcheck: allow(unbounded-op-growth)'"))

    def check_deadline_blind_submit(self):
        for fi in self.program.functions:
            if fi.name() == "SubmitAsync":
                continue  # the definitions themselves
            if "RemainingMicros" in fi.idents:
                continue
            for ev in fi.calls:
                if ev.last != "SubmitAsync":
                    continue
                site = (self.rel(fi.path), ev.line)
                if self.sups.active("deadline-blind-submit", [site]):
                    continue
                self.emit(Finding(
                    site[0], ev.line, "deadline-blind-submit",
                    f"SubmitAsync call in {fi.qname} on a path that "
                    "never clamps by CancellationToken::"
                    "RemainingMicros; an expired query budget must "
                    "bound (or refuse) every external call it issues"))

    def check_status_discard(self):
        for fi in self.program.functions:
            for d in fi.discards:
                kinds = [self.returns_kind(self.resolve_call(fi, c))
                         for c in d.chains]
                kinds = [k for k in kinds if k]
                if not kinds:
                    continue
                site = (self.rel(fi.path), d.line)
                if self.sups.active("status-discard", [site]):
                    continue
                if d.kind == "void":
                    msg = (f"(void) cast discards a {kinds[0]} in "
                           f"{fi.qname}, escaping [[nodiscard]]; use "
                           "WSQ_IGNORE_STATUS(expr) with a comment, or "
                           "handle the error")
                elif d.kind == "ternary":
                    msg = (f"ternary expression statement discards a "
                           f"{kinds[0]} in {fi.qname}, escaping "
                           "[[nodiscard]]; assign the result and check "
                           "it, or use WSQ_IGNORE_STATUS")
                else:
                    msg = (f"call result ({kinds[0]}) silently "
                           f"discarded in {fi.qname}; handle it or "
                           "use WSQ_IGNORE_STATUS(expr)")
                self.emit(Finding(site[0], d.line,
                                  "status-discard", msg))

    def run(self, only, sources):
        def want(check):
            return only is None or check in only

        self.compute()
        table = {
            "lock-order": self.check_lock_order,
            "blocking-under-lock": self.check_blocking_under_lock,
            "cancel-blind-wait": self.check_cancel_blind_wait,
            "unbounded-op-growth": self.check_unbounded_op_growth,
            "deadline-blind-submit": self.check_deadline_blind_submit,
            "status-discard": self.check_status_discard,
        }
        for name, fn in table.items():
            if want(name):
                fn()
        for path in sources:
            raw = path.read_text(encoding="utf-8", errors="replace")
            for f in text_findings(self.rel(path), raw, self.sups, want):
                self.emit(f)
        if want("stale-suppression"):
            for f in self.sups.stale():
                f.path = self.rel(f.path)
                self.emit(f)
        self.findings.sort(key=lambda f: (f.path, f.line, f.check))
        return self.findings


def _merge_block(a, b):
    """Combines two blocking infos; 'hard' dominates, differing cv
    release targets degrade to cv(None) (flagged under any lock)."""
    if b is None:
        return a
    if a is None:
        return b
    if a[0] == "hard":
        return a
    if b[0] == "hard":
        return b
    if a[1] == b[1]:
        return a
    return ("cv", None, a[2])


def render_chain(chain):
    out = []
    for sep, name in chain:
        if sep:
            out.append(sep)
        out.append(name)
    return "".join(out)


def find_cycles(edges):
    """Returns one representative cycle [n0, n1, ..., n0] per strongly
    connected component that contains a cycle."""
    adj = {}
    for (a, b) in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set())
    sccs = tarjan(adj)
    cycles = []
    for comp in sccs:
        if len(comp) < 2:
            continue
        comp_set = set(comp)
        start = min(comp)
        cyc = _shortest_cycle(adj, comp_set, start)
        if cyc:
            cycles.append(cyc)
    return cycles


def _shortest_cycle(adj, comp, start):
    from collections import deque
    prev = {start: None}
    dq = deque([start])
    while dq:
        u = dq.popleft()
        for v in sorted(adj.get(u, ())):
            if v not in comp:
                continue
            if v == start:
                path = []
                node = u
                while node is not None:
                    path.append(node)
                    node = prev[node]
                path.reverse()
                return path + [start]
            if v not in prev:
                prev[v] = u
                dq.append(v)
    return None


def tarjan(adj):
    index_counter = [0]
    stack, lowlink, index, on_stack = [], {}, {}, set()
    result = []

    def strongconnect(v):
        work = [(v, iter(sorted(adj.get(v, ()))))]
        index[v] = lowlink[v] = index_counter[0]
        index_counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj.get(w, ())))))
                    advanced = True
                    break
                elif w in on_stack:
                    lowlink[node] = min(lowlink[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                result.append(comp)

    for v in list(adj):
        if v not in index:
            strongconnect(v)
    return result


# --------------------------------------------------------------------
# Per-file text checks
# --------------------------------------------------------------------

# Directories whose shared state must carry capability annotations.
ANNOTATED_DIRS = (
    "src/async",
    "src/net",
    "src/storage",
    "src/exec",
    "src/wsq",
    "src/obs",
)

# Files allowed to touch the raw primitives: the annotation layer itself.
PRIMITIVE_ALLOWLIST = ("src/common/thread_annotations.h",)

# The one sanctioned home of seeded randomness.
RANDOMNESS_ALLOWLIST = ("src/common/random.h",)

MUTEX_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?:wsq::)?Mutex\s+(\w+)\s*;", re.M)
STD_PRIMITIVE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|condition_variable"
    r"|condition_variable_any)\b")
MANUAL_LOCK = re.compile(r"[.>]\s*(?:lock|unlock|try_lock)\s*\(")
GUARDED_BY = re.compile(r"WSQ_(?:PT_)?GUARDED_BY\(\s*(\w+)\s*\)")
SUBMIT_SIG = re.compile(
    r"\bSubmit\s*\(\s*SearchRequest\s+\w+\s*,\s*"
    r"SearchCallback\s+(\w+)\s*\)\s*(?:override\s*)?\{")
METRIC_CALL = re.compile(
    r"\b(GetCounter|GetGauge|GetHistogram"
    r"|EmitCounter|EmitGauge|EmitHistogram)\s*\(\s*\"")
METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*$")
# Registered metric families: every production series belongs to one
# component namespace so the /metrics dump groups naturally. A new
# component registers its prefix here (one line, reviewed) rather than
# minting ad-hoc names.
METRIC_PREFIXES = (
    "wsq_admission_",
    "wsq_buffer_pool_",
    "wsq_circuit_",
    "wsq_external_",
    "wsq_fr_",          # flight recorder + postmortems
    "wsq_mem_",
    "wsq_query_",
    "wsq_reqpump_",
    "wsq_result_cache_",
    "wsq_shard_",
    "wsq_spill_",
    "wsq_wal_",
)
METRIC_EXACT = ("wsq_queries_total",)
RAND_CALL = re.compile(r"(?<![\w:])s?rand\s*\(")
RANDOM_DEVICE = re.compile(r"std::random_device\b")
INCLUDE_IOSTREAM = re.compile(r'#\s*include\s*<iostream>')
DETACH_CALL = re.compile(r"[.>]\s*detach\s*\(\s*\)")


COMMENT_OR_LITERAL = re.compile(
    r"//[^\n]*|/\*.*?(?:\*/|\Z)"
    r"|([\"'])(?:\\(?:.|\Z)|(?!\1)[^\\])*(\1|\Z)", re.S)


def strip_comments(text):
    """Blanks out // and /* */ comments and the contents of string and
    character literals, keeping offsets, newlines and the literals'
    quote characters, so a regex match in the result points at the
    same line (and offset) as in `text`."""
    def blank(m):
        s = m.group(0)
        if not m.group(1):
            return re.sub(r"[^\n]", " ", s)
        end = len(s) - len(m.group(2))
        return s[0] + re.sub(r"[^\n]", " ", s[1:end]) + m.group(2)
    return COMMENT_OR_LITERAL.sub(blank, text)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def brace_body(code, start):
    """code[start - 1] is '{'; returns the text up to its match."""
    depth, i = 1, start
    while i < len(code) and depth > 0:
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
        i += 1
    return code[start:i]


def text_findings(rel, raw, sups, want):
    """Runs the per-file text checks over one source file. `rel` is
    its root-relative posix path (always under src/); `want(check)`
    says whether a check was selected."""
    code = strip_comments(raw)
    findings = []

    def emit(pos, check, message):
        # strip_comments preserves offsets: `pos` indexes raw and code.
        findings.append(Finding(rel, line_of(code, pos), check, message))

    annotated = any(rel.startswith(d + "/") for d in ANNOTATED_DIRS) \
        and rel not in PRIMITIVE_ALLOWLIST
    is_header = rel.endswith(".h")

    if annotated and is_header and want("mutex-guard"):
        guarded_names = set(GUARDED_BY.findall(code))
        for m in MUTEX_MEMBER.finditer(code):
            name = m.group(1)
            if name not in guarded_names:
                emit(m.start(), "mutex-guard",
                     f"Mutex member '{name}' has no WSQ_GUARDED_BY({name}) "
                     "peer; annotate the state it protects (or delete it)")

    if annotated and want("raw-std-mutex"):
        for m in STD_PRIMITIVE.finditer(code):
            emit(m.start(), "raw-std-mutex",
                 f"std::{m.group(1)} is invisible to the capability "
                 "analysis; use wsq::Mutex / wsq::CondVar "
                 "(common/thread_annotations.h)")

    if annotated and want("manual-lock"):
        for m in MANUAL_LOCK.finditer(code):
            emit(m.start(), "manual-lock",
                 "manual lock()/unlock() call; use the MutexLock RAII "
                 "guard (its Lock()/Unlock() members handle re-locking)")

    # Scans each SearchService::Submit override body: every bare
    # `return;` needs the callback invoked or handed off nearby, and
    # the callback must be used at least once overall. Heuristic, not
    # flow analysis — the suppression comment covers handoffs on
    # another branch (e.g. a callback parked in a container earlier).
    if want("submit-drops-callback"):
        for m in SUBMIT_SIG.finditer(code):
            cb = m.group(1)
            body = brace_body(code, m.end())
            cb_use = re.compile(
                r"\b" + cb + r"\s*\("               # invocation
                r"|\bmove\s*\(\s*" + cb + r"\s*\)"  # handoff by move
                r"|[,(]\s*" + cb + r"\s*[,)]")      # pass-through arg
            if not cb_use.search(body):
                emit(m.start(), "submit-drops-callback",
                     f"Submit never invokes or hands off its callback "
                     f"'{cb}'; every accepted request must eventually "
                     "complete (net/search_service.h)")
                continue
            for r in re.finditer(r"\breturn\s*;", body):
                # Look back a handful of lines for a callback use.
                back = body[:r.start()].splitlines()[-8:]
                if cb_use.search("\n".join(back)):
                    continue
                pos = m.end() + r.start()
                if sups.active("submit-drops-callback",
                               [(rel, line_of(code, pos))]):
                    continue
                emit(pos, "submit-drops-callback",
                     f"bare 'return;' in Submit with no use of callback "
                     f"'{cb}' in the preceding lines; complete the "
                     "request on every path or annotate with "
                     "'wsqcheck: allow(submit-drops-callback)'")

    if want("detached-thread"):
        for m in DETACH_CALL.finditer(code):
            emit(m.start(), "detached-thread",
                 "detached thread: nothing can join it or wait for its "
                 "work at teardown; run delayed work on an owned event "
                 "loop (ReqPump timers, a node's deadline heap)")

    if want("iostream"):
        for m in INCLUDE_IOSTREAM.finditer(code):
            emit(m.start(), "iostream",
                 "<iostream> in library code; report errors via "
                 "Status/Result, format with common/strings.h")

    if rel not in RANDOMNESS_ALLOWLIST and want("randomness"):
        for m in RAND_CALL.finditer(code):
            emit(m.start(), "randomness",
                 "rand()/srand() is not reproducible; use wsq::Rng with "
                 "an explicit seed")
        for m in RANDOM_DEVICE.finditer(code):
            emit(m.start(), "randomness",
                 "std::random_device draws unseeded entropy; plumb a "
                 "seed through the options struct instead")

    # strip_comments keeps offsets and quote characters but blanks
    # string contents, so the literal is matched in `code` and its text
    # read back from `raw` at the same positions.
    if want("metric-naming"):
        for m in METRIC_CALL.finditer(code):
            kind = m.group(1)
            open_quote = m.end() - 1
            close_quote = code.find('"', open_quote + 1)
            if close_quote < 0:
                continue
            name = raw[open_quote + 1:close_quote]
            if not METRIC_NAME.match(name):
                emit(m.start(), "metric-naming",
                     f"metric name '{name}' is not snake_case "
                     "([a-z][a-z0-9_]*)")
                continue
            problem = None
            if not name.startswith("wsq_"):
                problem = "must start with 'wsq_'"
            elif kind in ("GetCounter", "EmitCounter"):
                if not name.endswith("_total"):
                    problem = "counters end in '_total'"
            elif kind in ("GetHistogram", "EmitHistogram"):
                if not (name.endswith("_micros")
                        or name.endswith("_bytes")):
                    problem = ("histograms carry their unit: "
                               "'_micros' or '_bytes'")
            elif kind in ("GetGauge", "EmitGauge"):
                if name.endswith("_total"):
                    problem = ("'_total' marks a monotonic counter; "
                               "gauges go up and down")
            if (problem is None and name not in METRIC_EXACT
                    and not name.startswith(METRIC_PREFIXES)):
                problem = ("unregistered metric family; add the "
                           "component prefix to METRIC_PREFIXES in "
                           "tools/wsqcheck.py")
            if problem is not None:
                emit(m.start(), "metric-naming",
                     f"metric name '{name}': {problem} (DESIGN.md §12)")

    if is_header and want("include-guard") and "#pragma once" not in code:
        expected = ("WSQ_" +
                    rel[len("src/"):]
                    .replace("/", "_")
                    .replace(".", "_")
                    .upper() + "_")
        guard = re.search(r"#\s*ifndef\s+(\S+)\s*\n\s*#\s*define\s+(\S+)",
                          code)
        if guard is None:
            emit(0, "include-guard",
                 f"header has neither '#ifndef {expected}' guard nor "
                 "#pragma once")
        elif guard.group(1) != expected or guard.group(2) != expected:
            emit(guard.start(), "include-guard",
                 f"guard '{guard.group(1)}' should be '{expected}' "
                 "(derived from the header's path)")
        else:
            # The closing #endif must say which guard it closes — at
            # the bottom of a long header that comment is the only
            # context a reader has. Match against `raw`: the comment is
            # what is being checked.
            endifs = list(re.finditer(r"#\s*endif[^\n]*", raw))
            want_endif = f"#endif  // {expected}"
            if endifs and endifs[-1].group(0).rstrip() != want_endif:
                emit(endifs[-1].start(), "include-guard",
                     f"closing '#endif' must read '{want_endif}' "
                     "(trailing comment names the guard it closes)")

    return findings


# --------------------------------------------------------------------
# libclang frontend
# --------------------------------------------------------------------

class SkipError(RuntimeError):
    """libclang unavailable; --frontend clang must skip loudly."""


def _load_cindex():
    try:
        import clang.cindex as cx
    except ImportError as e:
        raise SkipError(
            "python clang bindings not importable "
            f"({e}); install python3-clang + libclang") from e
    try:
        cx.Index.create()
    except Exception as e:  # LibclangError has no stable base
        raise SkipError(f"libclang shared library not loadable: {e}") \
            from e
    return cx


STRIP_ARGS = {"-c", "-g", "-O0", "-O1", "-O2", "-O3"}


def _entry_args(entry):
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = shlex.split(entry.get("command", ""))
    out = []
    skip_next = False
    for a in argv[1:]:
        if skip_next:
            skip_next = False
            continue
        if a in ("-o", "-MF", "-MT", "-MQ"):
            skip_next = True
            continue
        if a in STRIP_ARGS or a.startswith("-o") and len(a) > 2:
            continue
        if a == entry.get("file"):
            continue
        out.append(a)
    return out


class ClangFrontend:
    """Parses every TU in compile_commands.json with libclang. Class,
    member, and parameter types come from the compiler; function-body
    events reuse the same token scanner as the internal frontend, so
    both frontends feed identical check logic."""

    def __init__(self, program, root, entries, verbose=False):
        self.cx = _load_cindex()
        self.program = program
        self.root = pathlib.Path(root).resolve()
        self.entries = entries
        self.verbose = verbose
        self._seen_funcs = set()
        self._file_cache = {}

    def _text(self, path):
        if path not in self._file_cache:
            self._file_cache[path] = pathlib.Path(path).read_text(
                encoding="utf-8", errors="replace")
        return self._file_cache[path]

    def _under_src(self, cursor):
        loc = cursor.location
        if loc.file is None:
            return None
        p = pathlib.Path(loc.file.name).resolve()
        try:
            p.relative_to(self.root / "src")
        except ValueError:
            return None
        return p

    def run(self):
        index = self.cx.Index.create()
        parsed_any = False
        for entry in self.entries:
            path = pathlib.Path(entry["file"])
            if not path.is_absolute():
                path = pathlib.Path(entry.get("directory", ".")) / path
            path = path.resolve()
            try:
                path.relative_to(self.root / "src")
            except ValueError:
                continue
            args = _entry_args(entry)
            try:
                tu = index.parse(str(path), args=args)
            except Exception as e:
                print(f"wsqcheck: failed to parse {path}: {e}",
                      file=sys.stderr)
                continue
            fatal = [d for d in tu.diagnostics if d.severity >= 4]
            if fatal and self.verbose:
                for d in fatal[:5]:
                    print(f"wsqcheck: {path}: {d.spelling}",
                          file=sys.stderr)
            parsed_any = True
            self._walk(tu.cursor, [])
        if not parsed_any:
            raise SkipError("no TU under src/ could be parsed from "
                            "compile_commands.json")
        extra = []
        for fi, body in self._pending_bodies:
            scan_body(fi, body, self.program, extra)
            self.program.add_function(fi)
        for fi in extra:
            self.program.add_function(fi)

    _pending_bodies = None

    def _walk(self, cursor, class_stack):
        K = self.cx.CursorKind
        if self._pending_bodies is None:
            self._pending_bodies = []
        for c in cursor.get_children():
            kind = c.kind
            if kind in (K.NAMESPACE, K.UNEXPOSED_DECL,
                        K.LINKAGE_SPEC):
                self._walk(c, class_stack)
            elif kind in (K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE):
                if not c.is_definition():
                    continue
                p = self._under_src(c)
                if p is None:
                    continue
                qname = "::".join([ci.qname for ci in class_stack[-1:]]
                                  + [c.spelling]) \
                    if class_stack else c.spelling
                ci = ClassInfo(qname, p, c.location.line)
                ci = self.program.add_class(ci)
                self._collect_class(c, ci)
                self._walk(c, class_stack + [ci])
            elif kind in (K.CXX_METHOD, K.FUNCTION_DECL, K.CONSTRUCTOR,
                          K.DESTRUCTOR, K.FUNCTION_TEMPLATE):
                self._function(c, class_stack)

    def _collect_class(self, cursor, ci):
        K = self.cx.CursorKind
        for c in cursor.get_children():
            if c.kind == K.FIELD_DECL:
                spelling = c.type.spelling
                core = extract_core_type_str(spelling)
                base = spelling.split("<")[0]
                if base.endswith("Mutex") and \
                        not base.endswith("MutexLock"):
                    ci.mutexes[c.spelling] = c.location.line
                    ci.members[c.spelling] = "Mutex"
                else:
                    ci.members[c.spelling] = core
                self._decl_edges(c, ci)
            elif c.kind in (K.CXX_METHOD, K.CONSTRUCTOR):
                ci.methods.add(c.spelling)
                ret = c.result_type.spelling if \
                    c.kind == K.CXX_METHOD else ""
                base = re.sub(r"^(const\s+)?(wsq::)?", "", ret)
                if base.startswith("Status"):
                    ci.method_returns[c.spelling] = "Status"
                elif base.startswith("Result"):
                    ci.method_returns[c.spelling] = "Result"
                else:
                    ci.method_returns.setdefault(c.spelling, None)

    def _decl_edges(self, field_cursor, ci):
        toks = [Tok("id" if t.spelling[0] in ID_START else "p",
                    t.spelling, t.location.line)
                for t in field_cursor.get_tokens()]
        j = 0
        while j < len(toks):
            t = toks[j]
            if t.kind == "id" and t.val in ("WSQ_ACQUIRED_BEFORE",
                                            "WSQ_ACQUIRED_AFTER") and \
                    j + 1 < len(toks) and toks[j + 1].val == "(":
                end = match_paren(toks, j + 1)
                for arg in split_args(toks[j + 2:end - 1]):
                    ci.declared_edges.append(
                        (field_cursor.spelling,
                         "before" if t.val.endswith("BEFORE")
                         else "after", arg, t.line))
                j = end
                continue
            j += 1

    def _function(self, cursor, class_stack):
        if not cursor.is_definition():
            return
        p = self._under_src(cursor)
        if p is None:
            return
        key = (str(p), cursor.location.line, cursor.spelling)
        if key in self._seen_funcs:
            return
        self._seen_funcs.add(key)
        # Qualified name from semantic parents (classes only).
        K = self.cx.CursorKind
        chain = [cursor.spelling]
        parent = cursor.semantic_parent
        cls_qname = None
        while parent is not None and parent.kind in (
                K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE):
            chain.insert(0, parent.spelling)
            parent = parent.semantic_parent
        if len(chain) > 1:
            cls_qname = "::".join(chain[:-1])
        fi = FunctionInfo("::".join(chain), cls_qname, p,
                          cursor.location.line)
        ret = cursor.result_type.spelling or ""
        base = re.sub(r"^(const\s+)?(wsq::)?", "", ret)
        if base.startswith("Status"):
            fi.returns = "Status"
        elif base.startswith("Result"):
            fi.returns = "Result"
        for arg in cursor.get_arguments():
            if arg.spelling:
                fi.params[arg.spelling] = \
                    extract_core_type_str(arg.type.spelling)
        # Extent text -> head/body split via the shared tokenizer.
        ext = cursor.extent
        text = self._text(str(p))
        lines = text.splitlines(keepends=True)
        start = sum(len(l) for l in lines[:ext.start.line - 1]) + \
            ext.start.column - 1
        end = sum(len(l) for l in lines[:ext.end.line - 1]) + \
            ext.end.column - 1
        snippet = text[start:end]
        toks = tokenize(snippet)
        # Re-base line numbers onto the file.
        for t in toks:
            t.line += ext.start.line - 1
        pd = 0
        body_at = None
        for k, t in enumerate(toks):
            if t.kind == "p":
                if t.val == "(":
                    pd += 1
                elif t.val == ")":
                    pd = max(0, pd - 1)
                elif t.val == "{" and pd == 0:
                    body_at = k
                    break
        if body_at is None:
            return
        head = toks[:body_at]
        body_end = match_paren(toks, body_at, "{", "}")
        body = toks[body_at + 1:body_end - 1]
        # WSQ_REQUIRES from the head tokens.
        res = Resolver(self.program, fi)
        j = 0
        while j < len(head):
            t = head[j]
            if t.kind == "id" and t.val in ("WSQ_REQUIRES",
                                            "WSQ_REQUIRES_SHARED") and \
                    j + 1 < len(head) and head[j + 1].val == "(":
                endp = match_paren(head, j + 1)
                for arg in split_args(head[j + 2:endp - 1]):
                    ident, anchor = res.mutex_identity(arg)
                    if ident:
                        fi.requires.append((ident, anchor, render(arg)))
                j = endp
                continue
            j += 1
        self._pending_bodies.append((fi, body))


def extract_core_type_str(spelling):
    """Core class name from a clang type spelling string."""
    s = spelling.strip()
    s = re.sub(r"\b(const|volatile|struct|class)\b", "", s)
    s = s.replace("&", "").replace("*", "").strip()
    m = re.match(
        r"(?:std::)?(?:__shared_ptr|shared_ptr|unique_ptr|weak_ptr"
        r"|optional|atomic)<(.+?)(?:,[^<>]*)?>$", s)
    if m:
        return extract_core_type_str(m.group(1))
    if "<" in s:
        return None
    s = re.sub(r"^(std|wsq)::", "", s)
    return s or None


# --------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------

def load_compile_commands(path):
    try:
        with open(path, encoding="utf-8") as f:
            entries = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(
            f"wsqcheck: cannot read compile commands {path}: {e}")
    if not isinstance(entries, list):
        raise SystemExit(
            f"wsqcheck: {path} is not a compile_commands.json array")
    return entries


def gather_sources(root):
    """Every C++ file under root/src — headers too, since the internal
    frontend has no preprocessor and must see declarations directly."""
    src = pathlib.Path(root) / "src"
    out = sorted(p for ext in ("*.h", "*.cc")
                 for p in src.rglob(ext))
    return out


def _default_compile_commands(root):
    for cand in ("build", "build-clang", "out"):
        p = pathlib.Path(root) / cand / "compile_commands.json"
        if p.exists():
            return p
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="wsqcheck",
        description="Semantic (AST-level) checks for the WSQ/DSQ tree: "
                    "lock-order cycles, blocking-under-lock, governor "
                    "blindness, status discards.")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of tools/)")
    ap.add_argument("--compile-commands", default=None,
                    help="path to compile_commands.json "
                         "(default: <root>/build/compile_commands.json)")
    ap.add_argument("--frontend", choices=("auto", "clang", "internal"),
                    default="auto",
                    help="auto: libclang when importable, else the "
                         "built-in parser; clang: require libclang "
                         "(exit 3 with a loud SKIP if missing); "
                         "internal: never touch libclang")
    ap.add_argument("--only", default=None,
                    help="comma-separated subset of checks to run")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        for c in CHECKS:
            print(c)
        return 0

    root = pathlib.Path(args.root).resolve() if args.root else \
        pathlib.Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        print(f"wsqcheck: no src/ under {root}", file=sys.stderr)
        return 2

    only = None
    if args.only:
        only = {c.strip() for c in args.only.split(",") if c.strip()}
        unknown = only - set(CHECKS)
        if unknown:
            print(f"wsqcheck: unknown check(s): "
                  f"{', '.join(sorted(unknown))}", file=sys.stderr)
            return 2

    sources = gather_sources(root)
    if not sources:
        print(f"wsqcheck: no C++ sources under {root}/src",
              file=sys.stderr)
        return 2

    program = Program(root)
    frontend_used = None
    if args.frontend in ("auto", "clang"):
        try:
            cc_path = args.compile_commands or \
                _default_compile_commands(root)
            if cc_path is None:
                raise SkipError(
                    "no compile_commands.json found (configure with "
                    "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON or pass "
                    "--compile-commands)")
            entries = load_compile_commands(cc_path)
            fe = ClangFrontend(program, root, entries,
                               verbose=args.verbose)
            fe.run()
            frontend_used = "clang"
        except SkipError as e:
            if args.frontend == "clang":
                print(f"wsqcheck: SKIPPED — libclang frontend "
                      f"unavailable: {e}", file=sys.stderr)
                print("wsqcheck: this is a skip, NOT a pass; rerun "
                      "with --frontend internal for the built-in "
                      "parser", file=sys.stderr)
                return 3
            if args.verbose:
                print(f"wsqcheck: NOTE falling back to the internal "
                      f"frontend ({e})", file=sys.stderr)
            program = Program(root)   # discard partial clang state

    if frontend_used is None:
        fe = InternalFrontend(program)
        for path in sources:
            fe.add_file(path)
        fe.finish()
        frontend_used = "internal"

    sups = Suppressions(root)
    for path in sources:
        sups.scan_file(path)

    analysis = Analysis(program, root, sups)
    findings = analysis.run(only, sources)

    if args.verbose:
        print(f"wsqcheck: frontend={frontend_used} "
              f"classes={len(program.classes)} "
              f"functions={len(program.functions)} "
              f"files={len(sources)}", file=sys.stderr)

    for f in findings:
        print(f)
    if findings:
        counts = {}
        for f in findings:
            counts[f.check] = counts.get(f.check, 0) + 1
        summary = ", ".join(f"{k}: {v}"
                            for k, v in sorted(counts.items()))
        print(f"\nwsqcheck: {len(findings)} finding(s) "
              f"[{frontend_used} frontend] — {summary}",
              file=sys.stderr)
        return 1
    if args.verbose:
        print("wsqcheck: clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
