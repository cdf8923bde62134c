#!/usr/bin/env python3
"""Repo-invariant linter for the vdbms tree.

Checks invariants the compiler cannot see (run from the repo root, or
pass --root):

  1. Failpoint sites: every name passed to FailpointFires /
     FailpointDelayMs / FailpointCrashSite in src/ is compiled in at
     exactly one call site, and is documented in DESIGN.md §5.
  2. Telemetry names: every `vdb_*` metric registered via GetCounter /
     GetGauge / GetHistogram uses exactly one metric kind tree-wide,
     matches the naming scheme of DESIGN.md §7, and carries the
     kind-specific suffix (counters `_total`, histograms `_seconds`).
  3. Raw durability I/O (`::write`, `fsync`, `fdatasync`, `pwrite`) is
     confined to src/storage/ — every other layer must go through the
     storage abstractions so failpoints and short-write handling stay
     on every durability path.
  4. Raw network I/O (socket/epoll/recv/send syscalls) is confined to
     src/net/ — the serving layer owns every socket, so its failpoint
     sites and vdb_server_* accounting cannot be bypassed.
  5. Subsystem prefix ownership: `net.*` failpoints and `vdb_server_*`
     metrics may only be compiled under src/net/, and src/net/ may only
     register names under those prefixes — the serving subsystem's
     observable surface stays in one place.
  6. Metric documentation closure: every registered `vdb_*` metric name
     appears (backticked) in the DESIGN.md §7 metric table, and every
     `vdb_*` name that table documents is registered somewhere in src/
     — the dashboard reference can neither lag the code nor advertise
     metrics that no longer exist. And every registered name has a
     reader: it is spelled, outside comments, in a file under tests/
     or perfbench/ — a metric nothing reads cannot come back.
  7. SIMD confinement: `_mm*` intrinsics, `__m128/256/512` vector
     types, and `target(...)` function attributes live only in
     src/core/simd.cc (one TU owns every kernel, so the portable build
     and the dispatch contract cannot be bypassed). One prefetch policy:
     `__builtin_prefetch` is spelled only in src/core/simd.h (the
     simd::Prefetch* helpers), and those helpers are called only from
     src/core/simd.cc and src/index/graph_util.h (graph beam search
     prefetches for every graph family at one fixed depth).
  8. Sync-primitive confinement, both directions: raw std
     synchronization types (`std::mutex`, `std::shared_mutex`,
     `std::lock_guard`, `std::unique_lock`, `std::scoped_lock`,
     `std::shared_lock`, `std::condition_variable`...) appear only in
     src/core/sync.h — everything else uses the annotated vdb::Mutex /
     MutexLock / ... wrappers so Clang Thread Safety Analysis sees
     every acquisition; and raw `__attribute__` thread-safety spellings
     (`guarded_by`, `capability`, ...) also live only in core/sync.h —
     annotations go through the VDB_* macros, which no-op on non-Clang
     compilers.
  9. One JSON mechanism: JSON string escaping (the `\\u%04x` control-
     byte spelling, or any `Escape`/`escape` helper function or lambda)
     lives only in src/core/json.*, and so does the JSON number
     formatter (the `%.9g` conversion); the one other `%.9g` is the
     Prometheus sample formatter `PrometheusValue` in
     src/core/telemetry.cc. Each allowed file spells its conversion
     once. Scans src/, bench/ and examples/ (not perfbench/, the
     benchmark's own code) — every JSON producer quotes and formats
     through core/json so the renders cannot drift apart again.
 10. One row-identity mechanism: a map from `VectorId` to a row number
     (`std::uint32_t` or `std::size_t`) is declared only in
     src/core/row_ids.h, exactly once — the vector store and every index
     family hold a RowIds instead of their own id→row map, so the re-add
     and tombstone rule cannot fork again. Maps from ids to anything
     else (Collection's entity maps) are not row maps. And one copy of
     each row: a `RowIds` is declared only as a member of VectorStore
     (the one in-memory row container: the growing rows and every
     in-memory index's rows) or of the disk-resident DiskAnnIndex and
     SpannIndex, whose rows live in their pages — a second row copy in
     an index base or the collection cannot come back.
 11. One index per row: a `std::unique_ptr<VectorIndex>` member, bare or
     inside a container, is declared in src/ only by `Segment` — a
     collection's index structures are its sealed segments' indexes, one
     per row, so a second index over the same rows (as per-value
     partition sub-indexes once were) cannot come back.

Exit status 0 when clean; 1 with one "file:line: message" per violation
otherwise. Run by the `lint` CI job and locally via
`python3 tools/lint_vdb.py`.
"""

import argparse
import re
import sys
from pathlib import Path

FAILPOINT_CALL = re.compile(
    r"\b(?:FailpointFires|FailpointDelayMs|FailpointCrashSite|"
    r"FailpointCrashNow)\s*\(\s*\"([^\"]+)\"")
METRIC_CALL = re.compile(r"\bGet(Counter|Gauge|Histogram)\s*\(\s*\"([^\"]+)")
# Labeled per-tenant counters go through the TenantCounter helper (the
# label is computed, so the name literal is not a GetCounter argument).
LABELED_COUNTER_CALL = re.compile(r"\bTenantCounter\s*\(\s*\"([^\"]+)\"")
METRIC_NAME = re.compile(r"^vdb_[a-z0-9_]+$")
# A backticked metric mention in DESIGN.md §7 (labels / recording-rule
# suffixes may follow the base name inside the backticks).
DESIGN_METRIC = re.compile(r"`(vdb_[a-z0-9_]+)")
RAW_IO = re.compile(r"(::write\s*\(|\b(?:fsync|fdatasync|pwrite)\s*\()")
# x86 vector intrinsics / types / per-function target attributes
# (invariant 7). A leading \b would not work (_ is a word char), so
# anchor on a non-word character or start-of-text instead.
SIMD_INTRINSIC = re.compile(
    r"(?:^|[^\w])(_mm\d*_\w+\s*\(|__m(?:128|256|512)[di]?\b|"
    r"target\s*\(\s*\")")
PREFETCH = re.compile(r"__builtin_prefetch\s*\(")
PREFETCH_CALL = re.compile(r"\bPrefetch(?:Bytes|Floats)\s*\(")
NET_IO = re.compile(
    r"::(?:socket|bind|listen|accept4?|connect|recv|send|"
    r"epoll_(?:create1|ctl|wait)|eventfd(?:_read|_write)?)\s*\(")

# Invariant 6: where a registered metric must have a reader.
READER_DIRS = ("tests", "perfbench")

# Files allowed to issue raw durability syscalls. core/failpoint.cc uses
# only _exit (not matched); everything else routes through storage/.
RAW_IO_ALLOWED_PREFIX = "src/storage/"
# Files allowed to issue socket/epoll syscalls.
NET_IO_ALLOWED_PREFIX = "src/net/"

# Invariant 7: the one TU allowed to spell intrinsics, the one header
# allowed to spell __builtin_prefetch (it defines the simd::Prefetch*
# helpers), and the only files allowed to call those helpers.
SIMD_IMPL = "src/core/simd.cc"
SIMD_HEADER = "src/core/simd.h"
PREFETCH_CALLERS = (SIMD_IMPL, "src/index/graph_util.h")

# Subsystem prefix ownership (invariant 5): name prefix <-> source dir.
FAILPOINT_OWNERS = {"net.": "src/net/"}
METRIC_OWNERS = {"vdb_server_": "src/net/"}

# Invariant 8: the one header allowed to spell raw std sync primitives
# and raw thread-safety attributes.
SYNC_IMPL = "src/core/sync.h"
RAW_SYNC = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock|condition_variable(?:_any)?)\b")
RAW_TSA_ATTR = re.compile(
    r"__attribute__\s*\(\(\s*(?:capability|scoped_lockable|lockable|"
    r"(?:pt_)?guarded_by|(?:acquire|release|try_acquire)_(?:shared_)?"
    r"capability|requires_(?:shared_)?capability|acquired_(?:before|after)|"
    r"locks_excluded|lock_returned|assert_capability|"
    r"no_thread_safety_analysis)\b")

# Invariant 9: where JSON escaping and number formatting may be spelled.
JSON_IMPL_PREFIX = "src/core/json."
JSON_SCAN_DIRS = ("src", "bench", "examples")
JSON_UNICODE_ESCAPE = re.compile(r"\\\\u%")
ESCAPE_HELPER = re.compile(r"\b\w*[Ee]scape\w*\s*(?:\(|=\s*\[)")
NUMBER_FORMAT = re.compile(r"%\.9g")
# file -> what its one %.9g is for
NUMBER_FORMAT_OWNERS = {
    "src/core/json.cc": "the JSON number formatter",
    "src/core/telemetry.cc": "the Prometheus sample formatter",
}

# Invariant 10: the one file allowed to declare a VectorId -> row map.
ROW_IDS_IMPL = "src/core/row_ids.h"
ROW_MAP = re.compile(
    r"\b(?:unordered_)?map\s*<\s*(?:VectorId|(?:std::)?uint64_t)\s*,\s*"
    r"(?:std::)?(?:uint32_t|size_t)\s*>")
# ... and the classes that may hold a RowIds: the row container and the
# two families whose rows live in their pages.
ROW_IDS_HOLDERS = {"VectorStore", "DiskAnnIndex", "SpannIndex"}
ROW_IDS_DECL = re.compile(r"^\s*(?:mutable\s+)?RowIds\s+\w+\s*[;{=]", re.M)
CLASS_OPEN = re.compile(r"\b(?:class|struct)\s+(\w+)[^;{()]*\{")

# Invariant 11: the one class that may hold a VectorIndex, and a member
# declaration of one (bare, or inside a container type).
INDEX_HOLDER = "Segment"
INDEX_MEMBER = re.compile(
    r"^[ \t]*(?:mutable[ \t]+)?[\w:<>, \t]*\bunique_ptr[ \t]*<[ \t]*"
    r"VectorIndex[ \t]*>[\w:<>, \t]*?[ \t]\w+[ \t]*[;{=]", re.M)


def strip_comments(text):
    """Removes // and /* */ comments (keeps line count: block comments
    are replaced newline-for-newline) so doc mentions of fsync etc.
    don't trip the raw-I/O check. String literals are left intact."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append(text[i:j + 1])
            i = j + 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i)
            j = n if j == -1 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def source_files(root, subs=("src",)):
    for sub in subs:
        for path in sorted((root / sub).rglob("*")):
            if path.suffix in (".cc", ".cpp", ".h"):
                yield path


def design_section(root, header_prefix):
    """Returns the DESIGN.md section starting at `header_prefix` (e.g.
    '## 5.') up to the next '## ' header."""
    design = (root / "DESIGN.md").read_text()
    lines = design.splitlines()
    start = next((i for i, l in enumerate(lines)
                  if l.startswith(header_prefix)), None)
    if start is None:
        return ""
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].startswith("## ")), len(lines))
    return "\n".join(lines[start:end])


def check_failpoints(root, errors):
    sites = {}  # name -> [(file, line)]
    for path in source_files(root):
        text = strip_comments(path.read_text())
        for m in FAILPOINT_CALL.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            sites.setdefault(m.group(1), []).append(
                (path.relative_to(root), line))
    section = design_section(root, "## 5.")
    for name, locs in sorted(sites.items()):
        if len(locs) > 1:
            where = ", ".join(f"{f}:{l}" for f, l in locs)
            errors.append(f"failpoint '{name}' compiled at {len(locs)} "
                          f"sites ({where}); site names must be unique")
        if name not in section:
            f, l = locs[0]
            errors.append(f"{f}:{l}: failpoint '{name}' is not documented "
                          f"in DESIGN.md §5 site inventory")
        for f, l in locs:
            check_prefix_ownership(FAILPOINT_OWNERS, "failpoint", name,
                                   f, l, errors)
    return sites


def check_prefix_ownership(owners, what, name, f, l, errors):
    rel = Path(f).as_posix()
    for prefix, owner_dir in owners.items():
        if name.startswith(prefix) and not rel.startswith(owner_dir):
            errors.append(f"{f}:{l}: {what} '{name}' uses the '{prefix}' "
                          f"prefix owned by {owner_dir}")
        if rel.startswith(owner_dir) and not name.startswith(prefix):
            errors.append(f"{f}:{l}: {what} '{name}' in {owner_dir} must "
                          f"use the '{prefix}' prefix")


def check_telemetry(root, errors):
    kinds = {}  # base name -> {kind: [(file, line)]}
    for path in source_files(root):
        text = strip_comments(path.read_text())
        registrations = [(m.group(1), m.group(2), m.start())
                         for m in METRIC_CALL.finditer(text)]
        registrations += [("Counter", m.group(1), m.start())
                          for m in LABELED_COUNTER_CALL.finditer(text)]
        for kind, name, start in registrations:
            base = name.split("{", 1)[0]
            line = text.count("\n", 0, start) + 1
            loc = (path.relative_to(root), line)
            kinds.setdefault(base, {}).setdefault(kind, []).append(loc)
            if not METRIC_NAME.match(base):
                errors.append(f"{loc[0]}:{loc[1]}: metric '{base}' violates "
                              f"naming scheme vdb_<subsystem>_<what>")
            check_prefix_ownership(METRIC_OWNERS, "metric", base,
                                   loc[0], loc[1], errors)
    for base, by_kind in sorted(kinds.items()):
        if len(by_kind) > 1:
            detail = "; ".join(
                f"{kind} at {f}:{l}"
                for kind, locs in sorted(by_kind.items()) for f, l in locs)
            errors.append(f"metric '{base}' registered as multiple kinds "
                          f"({detail}); a name must map to one metric kind")
        (kind,) = list(by_kind)[:1] or [None]
        f, l = by_kind[kind][0]
        if kind == "Counter" and not base.endswith("_total"):
            errors.append(f"{f}:{l}: counter '{base}' must end in _total")
        if kind == "Histogram" and not base.endswith("_seconds"):
            errors.append(f"{f}:{l}: histogram '{base}' must end in _seconds")
    return kinds


def check_metric_docs(root, kinds, errors):
    """Invariant 6: registered vdb_* names <-> DESIGN.md §7 table."""
    section = design_section(root, "## 7.")
    documented = set(DESIGN_METRIC.findall(section))
    for base, by_kind in sorted(kinds.items()):
        if base in documented:
            continue
        kind = sorted(by_kind)[0]
        f, l = by_kind[kind][0]
        errors.append(f"{f}:{l}: metric '{base}' is not documented in the "
                      f"DESIGN.md §7 metric table")
    for base in sorted(documented - set(kinds)):
        errors.append(f"DESIGN.md §7 documents metric '{base}' which is "
                      f"not registered anywhere under src/")


def check_metric_readers(root, kinds, errors):
    """Invariant 6, second half: every registered name is read by a test
    or the benchmark."""
    texts = []
    for sub in READER_DIRS:
        for path in sorted((root / sub).rglob("*")):
            if path.suffix in (".cc", ".cpp", ".h"):
                texts.append(strip_comments(path.read_text()))
            elif path.suffix == ".py":
                texts.append(path.read_text())
    corpus = "\n".join(texts)
    for base, by_kind in sorted(kinds.items()):
        if re.search(r"(?<![a-z0-9_])" + re.escape(base) + r"(?![a-z0-9_])",
                     corpus):
            continue
        kind = sorted(by_kind)[0]
        f, l = by_kind[kind][0]
        errors.append(f"{f}:{l}: metric '{base}' is read by no file under "
                      f"{' or '.join(READER_DIRS)}; pin it in a test or "
                      f"delete it")


def check_raw_io(root, errors):
    for path in source_files(root):
        rel = path.relative_to(root).as_posix()
        text = strip_comments(path.read_text())
        if not rel.startswith(RAW_IO_ALLOWED_PREFIX):
            for m in RAW_IO.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                errors.append(f"{rel}:{line}: raw durability I/O "
                              f"('{m.group(0).strip()}...') outside "
                              f"{RAW_IO_ALLOWED_PREFIX} — use the storage "
                              f"layer")
        if not rel.startswith(NET_IO_ALLOWED_PREFIX):
            for m in NET_IO.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                errors.append(f"{rel}:{line}: raw network I/O "
                              f"('{m.group(0).strip()}...') outside "
                              f"{NET_IO_ALLOWED_PREFIX} — go through the "
                              f"serving layer")


def check_simd_confinement(root, errors):
    """Invariant 7, both directions: intrinsics/target attrs only in
    src/core/simd.cc; __builtin_prefetch only in src/core/simd.h; and
    the simd::Prefetch* helpers called only from simd.cc and the graph
    beam search."""
    for path in source_files(root):
        rel = path.relative_to(root).as_posix()
        text = strip_comments(path.read_text())
        if rel != SIMD_IMPL:
            for m in SIMD_INTRINSIC.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                errors.append(f"{rel}:{line}: SIMD intrinsic/target attr "
                              f"('{m.group(1)}...') outside {SIMD_IMPL} — "
                              f"kernels live in one TU")
        if rel != SIMD_HEADER:
            for m in PREFETCH.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                errors.append(f"{rel}:{line}: __builtin_prefetch outside "
                              f"{SIMD_HEADER} — use the simd::Prefetch* "
                              f"helpers")
        if rel not in PREFETCH_CALLERS and rel != SIMD_HEADER:
            for m in PREFETCH_CALL.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                errors.append(f"{rel}:{line}: simd::Prefetch* call outside "
                              f"{', '.join(PREFETCH_CALLERS)} — graph "
                              f"beam search owns the prefetch policy")


def check_sync_confinement(root, errors):
    """Invariant 8, both directions: raw std sync primitives only in
    core/sync.h (everything else holds locks the analysis can see);
    raw thread-safety attribute spellings only in core/sync.h
    (annotations go through the VDB_* macros)."""
    for path in source_files(root):
        rel = path.relative_to(root).as_posix()
        if rel == SYNC_IMPL:
            continue
        text = strip_comments(path.read_text())
        for m in RAW_SYNC.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            errors.append(f"{rel}:{line}: raw '{m.group(0)}' outside "
                          f"{SYNC_IMPL} — use the annotated vdb:: sync "
                          f"wrappers")
        for m in RAW_TSA_ATTR.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            errors.append(f"{rel}:{line}: raw thread-safety attribute "
                          f"outside {SYNC_IMPL} — use the VDB_* macros")


def check_json_confinement(root, errors):
    """Invariant 9: JSON escaping only in src/core/json.*; `%.9g` only
    once in each of NUMBER_FORMAT_OWNERS."""
    for path in source_files(root, JSON_SCAN_DIRS):
        rel = path.relative_to(root).as_posix()
        text = strip_comments(path.read_text())

        def report(m, what):
            line = text.count("\n", 0, m.start()) + 1
            errors.append(f"{rel}:{line}: {what} ('{m.group(0)}') outside "
                          f"{JSON_IMPL_PREFIX}* — quote and format JSON "
                          f"through core/json")

        if not rel.startswith(JSON_IMPL_PREFIX):
            for m in JSON_UNICODE_ESCAPE.finditer(text):
                report(m, "JSON string escaping")
            for m in ESCAPE_HELPER.finditer(text):
                report(m, "JSON string escaper")
        formats = list(NUMBER_FORMAT.finditer(text))
        allowed = 1 if rel in NUMBER_FORMAT_OWNERS else 0
        for m in formats[allowed:]:
            if allowed:
                line = text.count("\n", 0, m.start()) + 1
                errors.append(f"{rel}:{line}: second '%.9g' formatter; "
                              f"{rel} owns one "
                              f"({NUMBER_FORMAT_OWNERS[rel]})")
            else:
                report(m, "number formatter")


def check_row_maps(root, errors):
    """Invariant 10: exactly one VectorId -> row map, in core/row_ids.h."""
    in_impl = 0
    for path in source_files(root):
        rel = path.relative_to(root).as_posix()
        text = strip_comments(path.read_text())
        for m in ROW_MAP.finditer(text):
            if rel == ROW_IDS_IMPL:
                in_impl += 1
                continue
            line = text.count("\n", 0, m.start()) + 1
            errors.append(f"{rel}:{line}: id->row map ('{m.group(0)}') "
                          f"outside {ROW_IDS_IMPL} — hold a RowIds")
    if in_impl != 1:
        errors.append(f"{ROW_IDS_IMPL}: declares {in_impl} id->row maps; "
                      f"RowIds owns exactly one")
    for path in source_files(root):
        rel = path.relative_to(root).as_posix()
        text = strip_comments(path.read_text())
        for m in ROW_IDS_DECL.finditer(text):
            owner = enclosing_class(text, m.start())
            if owner in ROW_IDS_HOLDERS:
                continue
            line = text.count("\n", 0, m.start()) + 1
            errors.append(f"{rel}:{line}: RowIds held by "
                          f"{owner or 'no class'} — a second copy of the "
                          f"rows; only {', '.join(sorted(ROW_IDS_HOLDERS))} "
                          f"hold one")


def check_index_holders(root, errors):
    """Invariant 11: only Segment holds a VectorIndex."""
    for path in source_files(root):
        rel = path.relative_to(root).as_posix()
        text = strip_comments(path.read_text())
        for m in INDEX_MEMBER.finditer(text):
            owner = enclosing_class(text, m.start())
            if owner is None or owner == INDEX_HOLDER:
                continue
            line = text.count("\n", 0, m.start()) + 1
            errors.append(f"{rel}:{line}: VectorIndex held by {owner} — a "
                          f"second index over a segment's rows; only "
                          f"{INDEX_HOLDER} holds one")


def enclosing_class(text, pos):
    """Name of the innermost class/struct whose body contains `pos`."""
    owner = None
    for m in CLASS_OPEN.finditer(text, 0, pos):
        depth = 0
        for i in range(m.end() - 1, len(text)):
            depth += {"{": 1, "}": -1}.get(text[i], 0)
            if depth == 0:
                break
        if i > pos:
            owner = m.group(1)  # later openings are nested deeper
    return owner


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repo root (default: this script's parent/..)")
    args = parser.parse_args()

    errors = []
    sites = check_failpoints(args.root, errors)
    metrics = check_telemetry(args.root, errors)
    check_metric_docs(args.root, metrics, errors)
    check_metric_readers(args.root, metrics, errors)
    check_raw_io(args.root, errors)
    check_simd_confinement(args.root, errors)
    check_sync_confinement(args.root, errors)
    check_json_confinement(args.root, errors)
    check_row_maps(args.root, errors)
    check_index_holders(args.root, errors)

    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        print(f"lint_vdb: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint_vdb: OK ({len(sites)} failpoint sites, "
          f"{len(metrics)} telemetry names)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
