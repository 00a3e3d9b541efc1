#!/usr/bin/env python3
"""Repo-specific lint rules that clang-tidy cannot express.

Usage: tools/lint.py [PATH ...]
  PATH defaults to `src/ tests/`. Directories are walked for .h/.cc files.

Rules
-----
  naked-valueordie      `x.ValueOrDie()` must be dominated by an `x.ok()`
                        (or `!x.ok()`) check in the same function, or come
                        from MLCS_ASSIGN_OR_RETURN.
  naked-mutex-lock      Direct `.Lock()` / `.Unlock()` / `.TryLock()` (or
                        the std:: spellings) on a mutex member — use the
                        RAII `mlcs::MutexLock` from common/mutex.h so an
                        early return or exception cannot leave the mutex
                        held, and so the deadlock detector sees balanced
                        scopes. common/mutex.{h,cc} implement the facade
                        and are exempt.
  raw-mutex             `std::mutex` / `std::lock_guard` / `std::unique_lock`
                        / `std::condition_variable` (or their includes) in
                        src/ outside common/mutex.{h,cc}. All locking goes
                        through the `mlcs::Mutex` / `MutexLock` / `CondVar`
                        facade (common/mutex.h) so thread-safety annotations
                        apply and Debug builds run lock-order deadlock
                        detection (DESIGN.md §11).
  guarded-member        A class declaring an `mlcs::Mutex` member must
                        annotate every mutable data member with
                        `MLCS_GUARDED_BY(<mutex>)`. Exempt: const members,
                        std::atomic, obs counter handles (atomic by design),
                        Mutex/CondVar themselves. Members intentionally
                        outside the mutex (single-thread-owned, set before
                        sharing) opt out per line with
                        `// lint:allow(guarded-member)` plus a reason.
  guarded-access        Heuristic: a member annotated MLCS_GUARDED_BY may
                        only be touched in a scope that constructed a
                        `MutexLock` (or in a function carrying
                        MLCS_REQUIRES / MLCS_ACQUIRE). Checked within the
                        declaring header and its paired .cc. Constructor
                        warm-up touches (object not yet shared) opt out with
                        `// lint:allow(guarded-access)`.
  include-guard         Headers under src/ use `#ifndef MLCS_<PATH>_H_`
                        guards derived from their path (Google style), with
                        a matching `#define` and trailing `#endif` comment.
  include-hygiene       Repo headers are included as "subdir/file.h" —
                        no "../" relative paths, no <angle> form for repo
                        files, no <bits/...> internals.
  using-namespace-std   `using namespace std;` is forbidden in headers.
  naked-thread          Constructing `std::thread` outside common/thread_pool
                        (and tests/) — operators and library code must run
                        work on the shared ThreadPool (ParallelMorsels /
                        Submit) so MLCS_THREADS stays the one parallelism
                        knob. Dedicated long-lived loops (e.g. a server's
                        I/O thread) opt out with
                        `// lint:allow(naked-thread)`.
  exec-operator-call    Calling the relational operator entry points
                        (`exec::FilterTable` / `HashJoin` / `HashGroupBy` /
                        `SortTable`) outside src/exec/ and the plan layer
                        (src/sql/plan*, src/sql/optimizer*) — SQL execution
                        must flow through physical operators so EXPLAIN,
                        the optimizer, and the plan cache see every
                        operation. tests/ are exempt; deliberate embedded
                        uses (e.g. the DataFrame API) opt out with
                        `// lint:allow(exec-operator-call)`.
  blk-io                Mentioning the on-disk block-file extension `.blk`
                        in src/ outside src/bufpool/ — every block read
                        must go through the buffer pool (StoredTable /
                        BufferPool, src/bufpool/) so pin accounting, LRU
                        eviction, and the mlcs.bufpool.* metrics see it.
                        Deliberate exceptions (e.g. a recovery tool) opt
                        out with `// lint:allow(blk-io)`.
  row-decode            Calling `.Decode()` / `->Decode()` inside a for/
                        while loop body under src/exec/ — decoding per row
                        (or per morsel iteration) throws away compressed
                        execution; operate on codes / run values, or decode
                        the column once before the loop (DESIGN.md §13).
                        Deliberate per-iteration decodes opt out with
                        `// lint:allow(row-decode)` plus a reason.
  matrix-materialize    Dense-matrix materialization (`Matrix::FromColumns`
                        / `Matrix::FromTable`, `DecodeTable`, `.ToMatrix(`)
                        inside src/ml/ outside matrix.{h,cc} — trainers
                        consume `ml::TrainingSource` (per-key LUTs behind a
                        shared key column, DESIGN.md §14) so dimension
                        features are never gathered per fact row. The dense
                        fallback funnels through TrainingSource::FromMatrix,
                        which borrows an already-built matrix. Deliberate
                        conversions (e.g. a UDF boundary that receives
                        columns) opt out with
                        `// lint:allow(matrix-materialize)` plus a reason.
  signal-unsafe         Async-signal-unsafe construct in the crash-handler
                        translation unit (src/obs/crash_dump.cc): heap
                        allocation (malloc/new/std::string/containers),
                        locks, printf-family / stdio / iostream formatting.
                        Everything there must stay callable from a SIGSEGV
                        handler — only atomics, byte copies into static
                        buffers, and raw open()/write()/close() (DESIGN.md
                        §15). A deliberate exception opts out with
                        `// lint:allow(signal-unsafe)` plus a reason.
  getenv                `std::getenv` / `getenv(` under src/ outside
                        common/settings.cc. Every MLCS_* knob is an entry
                        of the one settings table (common/settings.h,
                        DESIGN.md §18): one grammar, read at first use,
                        surfaced as mlcs_settings(). A new knob becomes an
                        entry there, not a parser of its own.
  adhoc-stats           Declaring a `struct <Name>Stats` outside src/obs/ —
                        new counters belong on the metrics registry
                        (obs::MetricsRegistry, `mlcs.<subsystem>.<series>`)
                        so mlcs_metrics() and the bench JSON metrics block
                        see them. Plain snapshot structs copied from
                        registry-backed counters opt out with
                        `// lint:allow(adhoc-stats)`.

Exit status is 0 when clean, 1 when any violation is found.
A line can opt out with a trailing `// lint:allow(<rule>)` comment.
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

VALUEORDIE_RE = re.compile(
    r"(?:std::move\(\s*(?P<m>[A-Za-z_]\w*)\s*\)|(?P<v>[A-Za-z_]\w*))"
    r"\s*\.\s*ValueOrDie\s*\(")
MUTEX_CALL_RE = re.compile(
    r"\b(?P<recv>[A-Za-z_]\w*(?:mutex|mtx|Mutex|_mu)\w*|mu_?)\s*"
    r"(?:\.|->)\s*(?P<op>lock|unlock|try_lock|Lock|Unlock|TryLock)\s*\(")
FUNC_TOP_RE = re.compile(r"^\}")  # closing brace at column 0 ends a function
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(?P<form>["<])(?P<path>[^">]+)[">]')
ALLOW_RE = re.compile(r"//\s*lint:allow\((?P<rules>[\w,\- ]+)\)")

violations = []


def report(path, lineno, rule, msg):
    violations.append(f"{path}:{lineno}: [{rule}] {msg}")


def allowed(line, rule):
    m = ALLOW_RE.search(line)
    if not m:
        return False
    rules = {r.strip() for r in m.group("rules").split(",")}
    return rule in rules


def strip_comments_and_strings(line):
    """Best-effort removal of string literals and // comments."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    return line.split("//")[0]


def check_valueordie(path, lines):
    """Each ValueOrDie() needs a dominating ok() check on the same variable
    earlier in the same function (function boundary ~= closing brace at
    column 0, or a `}` line at the receiver's declaration depth)."""
    for i, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        for m in VALUEORDIE_RE.finditer(line):
            var = m.group("m") or m.group("v")
            if allowed(raw, "naked-valueordie"):
                continue
            # MLCS_ASSIGN_OR_RETURN expands to a checked ValueOrDie; the
            # macro body in status.h is the one legitimate naked use.
            if "MLCS_CONCAT" in line or "#define" in line:
                continue
            ok_re = re.compile(r"\b" + re.escape(var) + r"\s*(?:\.|->)\s*ok\s*\(")
            status_re = re.compile(
                r"\b(?:MLCS_CHECK_OK|ASSERT_TRUE|EXPECT_TRUE|MLCS_RETURN_IF_ERROR)\s*\(\s*"
                + re.escape(var))
            found = False
            for j in range(i, max(-1, i - 200), -1):
                prev = strip_comments_and_strings(lines[j])
                if j < i and FUNC_TOP_RE.match(lines[j]):
                    break  # left the enclosing function
                if ok_re.search(prev) or status_re.search(prev):
                    found = True
                    break
            if not found:
                report(path, i + 1, "naked-valueordie",
                       f"`{var}.ValueOrDie()` without a dominating "
                       f"`{var}.ok()` check in the same function")


MUTEX_FACADE_FILES = ("src/common/mutex.h", "src/common/mutex.cc")


def is_facade_file(relpath):
    return relpath.replace(os.sep, "/") in MUTEX_FACADE_FILES


def check_mutex_calls(path, relpath, lines):
    if is_facade_file(relpath):
        return  # the facade's own implementation drives the raw primitives
    for i, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        m = MUTEX_CALL_RE.search(line)
        if not m:
            continue
        if allowed(raw, "naked-mutex-lock"):
            continue
        report(path, i + 1, "naked-mutex-lock",
               f"direct `.{m.group('op')}()` on `{m.group('recv')}`; use the "
               "RAII `mlcs::MutexLock` (common/mutex.h) instead")


RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(?P<sym>mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")
RAW_MUTEX_INCLUDES = ("mutex", "condition_variable", "shared_mutex")


def check_raw_mutex(path, relpath, lines):
    rel = relpath.replace(os.sep, "/")
    if not rel.startswith("src/") or is_facade_file(rel):
        return
    for i, raw in enumerate(lines):
        if allowed(raw, "raw-mutex"):
            continue
        inc = INCLUDE_RE.match(raw)
        if inc and inc.group("form") == "<" and \
                inc.group("path") in RAW_MUTEX_INCLUDES:
            report(path, i + 1, "raw-mutex",
                   f"<{inc.group('path')}> included outside common/mutex.h; "
                   "use the mlcs::Mutex facade (common/mutex.h)")
            continue
        line = strip_comments_and_strings(raw)
        m = RAW_MUTEX_RE.search(line)
        if m:
            report(path, i + 1, "raw-mutex",
                   f"`std::{m.group('sym')}` outside common/mutex.h; use "
                   "mlcs::Mutex / MutexLock / CondVar (common/mutex.h) so "
                   "annotations and deadlock detection apply")


# --- guarded-member / guarded-access -------------------------------------

GUARDED_BY_RE = re.compile(r"\bMLCS_(?:PT_)?GUARDED_BY\s*\(")
MUTEX_MEMBER_RE = re.compile(
    r"\b(?:mutable\s+)?(?:mlcs::)?Mutex\s+\w+\s*[;{]")
CLASS_HEADER_RE = re.compile(r"\b(?:class|struct)\b")
# Member types that are safe without the mutex: synchronization primitives
# themselves, atomics, and the obs counter handles (internally atomic).
EXEMPT_TYPE_RE = re.compile(
    r"^(?:mutable\s+)?(?:"
    r"(?:mlcs::)?(?:Mutex|CondVar)\b"
    r"|std::atomic\b"
    r"|std::once_flag\b"
    r"|(?:obs::)?(?:Mirrored)?(?:Counter|Gauge|Histogram|WaitSite)\s*[*&]?\s*\w+"
    r")")


def strip_templates(s):
    prev = None
    while prev != s:
        prev = s
        s = re.sub(r"<[^<>]*>", "", s)
    return s


def parse_class_blocks(lines):
    """Best-effort brace matcher. Returns a list of class bodies, each a list
    of (lineno, raw) for lines whose *innermost* enclosing block is that
    class/struct body (function bodies nested inside are excluded)."""
    stack = []  # entries: {"kind": "class"|"other", "lines": [...]}
    blocks = []
    pending = ""  # text since the last '{', '}' or ';' — the block header
    for i, raw in enumerate(lines):
        code = strip_comments_and_strings(raw)
        if code.lstrip().startswith("#"):
            continue
        if stack and stack[-1]["kind"] == "class":
            stack[-1]["lines"].append((i, raw))
        for ch in code:
            if ch == "{":
                is_class = (CLASS_HEADER_RE.search(pending)
                            and not re.search(r"\benum\b", pending)
                            and "=" not in pending)
                entry = {"kind": "class" if is_class else "other",
                         "lines": []}
                stack.append(entry)
                if is_class:
                    blocks.append(entry)
                pending = ""
            elif ch == "}":
                if stack:
                    stack.pop()
                pending = ""
            elif ch == ";":
                pending = ""
            else:
                pending += ch
    return [b["lines"] for b in blocks]


def member_statements(child_lines):
    """Groups a class body's direct lines into statements (a statement ends
    at ';', '{', '}' or an access label)."""
    stmts, cur = [], []
    for ln, raw in child_lines:
        code = strip_comments_and_strings(raw).strip()
        if not cur and not code:
            continue
        cur.append((ln, raw))
        if code.endswith((";", "{", "}", ":")) or code.startswith("}"):
            stmts.append(cur)
            cur = []
    if cur:
        stmts.append(cur)
    return stmts


MEMBER_SKIP_RE = re.compile(
    r"^(?:public|private|protected)\s*:|"
    r"^(?:using|typedef|friend|static|enum|class|struct|union|template|"
    r"MLCS_\w+|~)\b|^\}|^\{")


def check_guarded_member(path, relpath, lines):
    rel = relpath.replace(os.sep, "/")
    if not rel.startswith("src/") or is_facade_file(rel):
        return
    for body in parse_class_blocks(lines):
        text = " ".join(strip_comments_and_strings(raw) for _ln, raw in body)
        if not MUTEX_MEMBER_RE.search(text):
            continue  # class holds no mlcs::Mutex — nothing to guard
        for stmt in member_statements(body):
            if any(allowed(raw, "guarded-member") for _ln, raw in stmt):
                continue
            joined = " ".join(
                strip_comments_and_strings(raw).strip() for _ln, raw in stmt)
            joined = joined.strip()
            if not joined or MEMBER_SKIP_RE.search(joined):
                continue
            if GUARDED_BY_RE.search(joined):
                continue
            flat = strip_templates(joined)
            if "(" in flat:
                continue  # function declaration / definition / ctor
            if EXEMPT_TYPE_RE.search(joined):
                continue
            if re.match(r"^const\b", joined) or \
                    re.search(r"\*\s*const\s+\w+", flat):
                continue  # immutable after construction
            name_m = re.search(r"(\w+)\s*(?:\{[^{}]*\}|=[^;]*)?\s*;\s*$",
                               flat)
            if not name_m:
                continue
            report(path, stmt[0][0] + 1, "guarded-member",
                   f"member `{name_m.group(1)}` of a mutex-holding class "
                   "lacks MLCS_GUARDED_BY(...); annotate it or justify with "
                   "`// lint:allow(guarded-member)`")


GUARDED_NAME_RE = re.compile(r"(\w+)\s+MLCS_(?:PT_)?GUARDED_BY\s*\(")
LOCK_EVIDENCE_RE = re.compile(
    r"\bMutexLock\b|\bMLCS_REQUIRES\b|\bMLCS_ACQUIRE\b|"
    r"\bMLCS_NO_THREAD_SAFETY_ANALYSIS\b")


def sibling_pair(path):
    base, ext = os.path.splitext(path)
    other = base + (".cc" if ext == ".h" else ".h")
    return other if os.path.isfile(other) else None


def check_guarded_access(path, relpath, lines):
    """Heuristic echo of clang's -Wthread-safety for g++-only builds: a use
    of an MLCS_GUARDED_BY member must be preceded, within the enclosing
    function, by a MutexLock construction or an MLCS_REQUIRES/ACQUIRE
    annotation."""
    rel = relpath.replace(os.sep, "/")
    if not rel.startswith("src/") or is_facade_file(rel):
        return
    texts = ["".join(lines)]
    pair = sibling_pair(path)
    if pair:
        try:
            with open(pair, encoding="utf-8", errors="replace") as f:
                texts.append(f.read())
        except OSError:
            pass
    names = set()
    for text in texts:
        names.update(GUARDED_NAME_RE.findall(text))
    if not names:
        return
    name_re = re.compile(r"\b(" + "|".join(re.escape(n) for n in names)
                         + r")\b")
    for i, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        if GUARDED_BY_RE.search(line) or line.lstrip().startswith("#"):
            continue
        # A declaration whose MLCS_GUARDED_BY wrapped onto the next line.
        if i + 1 < len(lines) and \
                GUARDED_BY_RE.search(strip_comments_and_strings(lines[i + 1])):
            continue
        m = name_re.search(line)
        if not m:
            continue
        if allowed(raw, "guarded-access"):
            continue
        found = False
        for j in range(i, max(-1, i - 200), -1):
            prev = strip_comments_and_strings(lines[j])
            if j < i and FUNC_TOP_RE.match(lines[j]):
                break  # left the enclosing function
            if LOCK_EVIDENCE_RE.search(prev):
                found = True
                break
        if not found:
            report(path, i + 1, "guarded-access",
                   f"guarded member `{m.group(1)}` used without a MutexLock "
                   "in scope (and no MLCS_REQUIRES on the function)")


def expected_guard(relpath):
    # src/common/status.h -> MLCS_COMMON_STATUS_H_
    parts = relpath.split(os.sep)
    if parts[0] == "src":
        parts = parts[1:]
    token = "_".join(p.upper().replace(".", "_").replace("-", "_")
                     for p in parts)
    return f"MLCS_{token}_"


def check_include_guard(path, relpath, lines):
    if not relpath.startswith("src") or not relpath.endswith(".h"):
        return
    guard = expected_guard(relpath)
    text = "".join(lines)
    ifndef_m = re.search(r"^#ifndef\s+(\S+)", text, re.M)
    if not ifndef_m:
        report(path, 1, "include-guard", f"missing `#ifndef {guard}` guard")
        return
    if ifndef_m.group(1) != guard:
        report(path, 1, "include-guard",
               f"guard `{ifndef_m.group(1)}` should be `{guard}`")
        return
    if not re.search(r"^#define\s+" + re.escape(guard) + r"\s*$", text, re.M):
        report(path, 1, "include-guard", f"missing `#define {guard}`")
    if not re.search(r"^#endif\s*//\s*" + re.escape(guard), text, re.M):
        report(path, len(lines), "include-guard",
               f"missing `#endif  // {guard}` trailer")


def repo_headers():
    out = set()
    src = os.path.join(REPO_ROOT, "src")
    for dirpath, _dirs, files in os.walk(src):
        for f in files:
            if f.endswith(".h"):
                rel = os.path.relpath(os.path.join(dirpath, f), src)
                out.add(rel.replace(os.sep, "/"))
    return out


def check_includes(path, lines, headers):
    for i, raw in enumerate(lines):
        m = INCLUDE_RE.match(raw)
        if not m:
            continue
        if allowed(raw, "include-hygiene"):
            continue
        inc = m.group("path")
        if inc.startswith("bits/"):
            report(path, i + 1, "include-hygiene",
                   f"<{inc}> is a libstdc++ internal; include the public "
                   "header instead")
            continue
        if "../" in inc:
            report(path, i + 1, "include-hygiene",
                   f'"{inc}" uses a relative path; include repo headers as '
                   '"subdir/file.h" from the src/ root')
            continue
        if m.group("form") == "<" and inc in headers:
            report(path, i + 1, "include-hygiene",
                   f"repo header <{inc}> must use the quoted form")
        elif m.group("form") == '"' and inc not in headers:
            report(path, i + 1, "include-hygiene",
                   f'"{inc}" does not resolve from the src/ root '
                   "(quoted includes are reserved for repo headers)")


NAKED_THREAD_RE = re.compile(r"\bstd\s*::\s*thread\s*[({]")
NAKED_THREAD_ALLOWED_PATHS = ("common/thread_pool",)


def check_naked_thread(path, relpath, lines):
    rel = relpath.replace(os.sep, "/")
    if rel.startswith("tests/"):
        return
    if any(p in rel for p in NAKED_THREAD_ALLOWED_PATHS):
        return
    for i, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        if not NAKED_THREAD_RE.search(line):
            continue
        if allowed(raw, "naked-thread"):
            continue
        report(path, i + 1, "naked-thread",
               "`std::thread` constructed outside common/thread_pool; run "
               "work on the shared ThreadPool so MLCS_THREADS governs it")


EXEC_OPERATOR_RE = re.compile(
    r"\bexec\s*::\s*(?P<fn>FilterTable|HashJoin|HashGroupBy|SortTable)\s*\(")
EXEC_OPERATOR_ALLOWED_PATHS = ("src/exec/", "src/sql/plan",
                               "src/sql/optimizer")


def check_exec_operator_call(path, relpath, lines):
    rel = relpath.replace(os.sep, "/")
    if rel.startswith("tests/"):
        return
    if any(rel.startswith(p) for p in EXEC_OPERATOR_ALLOWED_PATHS):
        return
    for i, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        m = EXEC_OPERATOR_RE.search(line)
        if not m:
            continue
        if allowed(raw, "exec-operator-call"):
            continue
        report(path, i + 1, "exec-operator-call",
               f"`exec::{m.group('fn')}` called outside src/exec/ and the "
               "plan layer; route query execution through the physical "
               "operators (src/sql/planner.h)")


BLK_IO_RE = re.compile(r"\.blk\b")


def check_blk_io(path, relpath, lines):
    rel = relpath.replace(os.sep, "/")
    if not rel.startswith("src/") or rel.startswith("src/bufpool/"):
        return
    for i, raw in enumerate(lines):
        # Match the raw line before string-stripping: the extension only
        # ever appears inside a path literal (`"block_0001.blk"`), which
        # strip_comments_and_strings would erase. Plain comments are fine.
        if not BLK_IO_RE.search(raw.split("//")[0]):
            continue
        if allowed(raw, "blk-io"):
            continue
        report(path, i + 1, "blk-io",
               "direct `.blk` block-file I/O outside src/bufpool/; go "
               "through StoredTable / BufferPool so pins, eviction, and "
               "mlcs.bufpool.* metrics stay accurate")


DECODE_CALL_RE = re.compile(r"(?:\.|->)\s*Decode\s*\(")
LOOP_HEADER_RE = re.compile(r"\b(?:for|while)\s*\(")


def check_row_decode(path, relpath, lines):
    """Brace-depth heuristic: track the depths at which for/while bodies
    open; a Decode() call while any loop body is open re-expands a column
    per iteration. A decode hoisted above the loop (or running once on a
    whole column) is fine and never matches."""
    rel = relpath.replace(os.sep, "/")
    if not rel.startswith("src/exec/"):
        return
    depth = 0
    loop_depths = []   # brace depths at which a loop body opened
    pending_loop = False  # loop header seen, its '{' not yet
    for i, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        if loop_depths and DECODE_CALL_RE.search(line) and \
                not allowed(raw, "row-decode"):
            report(path, i + 1, "row-decode",
                   "`Decode()` inside a loop body in src/exec/ re-expands "
                   "the column every iteration; operate on codes/run values "
                   "or hoist the decode above the loop")
        if LOOP_HEADER_RE.search(line):
            pending_loop = True
        for ch in line:
            if ch == "{":
                depth += 1
                if pending_loop:
                    loop_depths.append(depth)
                    pending_loop = False
            elif ch == "}":
                if loop_depths and loop_depths[-1] == depth:
                    loop_depths.pop()
                depth -= 1
        if pending_loop and line.strip().endswith(";"):
            pending_loop = False  # brace-less single-statement body


MATRIX_MATERIALIZE_RE = re.compile(
    r"\bMatrix\s*::\s*(?:FromColumns|FromTable)\s*\(|\bDecodeTable\s*\(|"
    r"(?:\.|->)\s*ToMatrix\s*\(")
MATRIX_MATERIALIZE_EXEMPT = ("src/ml/matrix.h", "src/ml/matrix.cc")


def check_matrix_materialize(path, relpath, lines):
    rel = relpath.replace(os.sep, "/")
    if not rel.startswith("src/ml/") or rel in MATRIX_MATERIALIZE_EXEMPT:
        return
    for i, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        if not MATRIX_MATERIALIZE_RE.search(line):
            continue
        if allowed(raw, "matrix-materialize"):
            continue
        report(path, i + 1, "matrix-materialize",
               "dense-matrix materialization in ML training code; consume "
               "an ml::TrainingSource (DESIGN.md §14) instead of gathering "
               "the join output, or justify with "
               "`// lint:allow(matrix-materialize)`")


# --- signal-unsafe --------------------------------------------------------
# The crash handler runs with arbitrary locks held and the heap possibly
# corrupt, so its whole TU is restricted to the async-signal-safe set.
SIGNAL_UNSAFE_FILES = ("src/obs/crash_dump.cc",)
SIGNAL_UNSAFE_PATTERNS = (
    (re.compile(r"\b(?:malloc|calloc|realloc|free|aligned_alloc)\s*\("),
     "heap allocation"),
    (re.compile(r"\bnew\b(?!\s*\()"), "operator new allocates"),
    (re.compile(r"\bstd\s*::\s*(?:string|vector|deque|map|unordered_map|"
                r"set|unordered_set|list|ostringstream|stringstream|"
                r"function)\b"),
     "allocating std:: type"),
    (re.compile(r"\b(?:printf|fprintf|sprintf|snprintf|vsnprintf|vprintf|"
                r"vfprintf|puts|fputs|fwrite|fread|fopen|fclose|fflush|"
                r"perror)\s*\("),
     "stdio/printf-family call"),
    (re.compile(r"\bstd\s*::\s*(?:cout|cerr|clog|format|to_string)\b"),
     "iostream/format call"),
    (re.compile(r"\b(?:MutexLock|lock_guard|unique_lock|scoped_lock|"
                r"pthread_mutex_\w+)\b|(?:\.|->)\s*(?:lock|Lock)\s*\("),
     "lock acquisition (handler may interrupt the holder)"),
    (re.compile(r'^\s*#\s*include\s+<(?:cstdio|stdio\.h|iostream|sstream|'
                r'ostream|string|vector|mutex|format)>'),
     "header pulls in allocating/locking machinery"),
)


def check_signal_unsafe(path, relpath, lines):
    rel = relpath.replace(os.sep, "/")
    if rel not in SIGNAL_UNSAFE_FILES:
        return
    for i, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        for pat, why in SIGNAL_UNSAFE_PATTERNS:
            m = pat.search(line)
            if not m:
                continue
            if allowed(raw, "signal-unsafe"):
                continue
            report(path, i + 1, "signal-unsafe",
                   f"`{m.group(0).strip()}` in the crash-handler TU: {why}; "
                   "the handler must stay async-signal-safe (atomics, "
                   "static buffers, raw write() only)")
            break


GETENV_RE = re.compile(r"\bgetenv\s*\(")
GETENV_ALLOWED = ("src/common/settings.cc",)


def check_getenv(path, relpath, lines):
    rel = relpath.replace(os.sep, "/")
    if not rel.startswith("src/") or rel in GETENV_ALLOWED:
        return
    for i, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        if not GETENV_RE.search(line):
            continue
        if allowed(raw, "getenv"):
            continue
        report(path, i + 1, "getenv",
               "`getenv` outside common/settings.cc; add an entry to the "
               "settings table (common/settings.h) instead of parsing a "
               "knob here")


ADHOC_STATS_RE = re.compile(r"^\s*struct\s+\w*Stats\b")


def check_adhoc_stats(path, relpath, lines):
    rel = relpath.replace(os.sep, "/")
    if not rel.startswith("src/") or rel.startswith("src/obs/"):
        return
    for i, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        if not ADHOC_STATS_RE.search(line):
            continue
        if allowed(raw, "adhoc-stats"):
            continue
        report(path, i + 1, "adhoc-stats",
               "ad-hoc `struct *Stats` outside src/obs/; register the "
               "counters on obs::MetricsRegistry instead so mlcs_metrics() "
               "exports them")


def check_using_namespace(path, relpath, lines):
    if not relpath.endswith(".h"):
        return
    for i, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        if re.search(r"\busing\s+namespace\s+std\b", line):
            if allowed(raw, "using-namespace-std"):
                continue
            report(path, i + 1, "using-namespace-std",
                   "`using namespace std;` in a header pollutes every "
                   "includer")


def lint_file(path, headers):
    relpath = os.path.relpath(path, REPO_ROOT)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.readlines()
    except OSError as e:
        report(path, 0, "io", str(e))
        return
    check_valueordie(path, lines)
    check_mutex_calls(path, relpath, lines)
    check_raw_mutex(path, relpath, lines)
    check_guarded_member(path, relpath, lines)
    check_guarded_access(path, relpath, lines)
    check_include_guard(path, relpath, lines)
    check_includes(path, lines, headers)
    check_using_namespace(path, relpath, lines)
    check_naked_thread(path, relpath, lines)
    check_exec_operator_call(path, relpath, lines)
    check_blk_io(path, relpath, lines)
    check_row_decode(path, relpath, lines)
    check_matrix_materialize(path, relpath, lines)
    check_adhoc_stats(path, relpath, lines)
    check_getenv(path, relpath, lines)
    check_signal_unsafe(path, relpath, lines)


def collect(paths):
    for p in paths:
        if os.path.isdir(p):
            for dirpath, dirs, files in os.walk(p):
                dirs[:] = [d for d in dirs
                           if not d.startswith("build") and d != ".git"]
                for f in sorted(files):
                    if f.endswith((".h", ".cc", ".cpp")):
                        yield os.path.join(dirpath, f)
        elif os.path.isfile(p):
            yield p
        else:
            print(f"lint.py: no such path: {p}", file=sys.stderr)
            sys.exit(2)


def main(argv):
    paths = argv[1:] or [os.path.join(REPO_ROOT, "src"),
                         os.path.join(REPO_ROOT, "tests")]
    headers = repo_headers()
    count = 0
    for path in collect(paths):
        lint_file(path, headers)
        count += 1
    if violations:
        print("\n".join(violations))
        print(f"\nlint.py: {len(violations)} violation(s) in {count} files")
        return 1
    print(f"lint.py: OK ({count} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
