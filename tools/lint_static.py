#!/usr/bin/env python3
"""Static lint: determinism hazards plus dimensional-unit discipline.

The repo's core contract is that a simulation is a pure function of its
seed (audit_fuzz_test's same-seed digest check).  That property is easy
to lose one innocent line at a time, and so is the strong-typed boundary
of src/util/units.h; this lint fails CI the moment either erodes.

Determinism rules
-----------------
  libc-rand            `rand(` / `srand(` — unseeded global PRNG; use
                       bolot::util::Rng (per-stream, splittable).
  wall-clock-seed      `time(nullptr)` / `time(NULL)` / `::time(0)` —
                       wall-clock seeding destroys replayability.
  random-device        `std::random_device` — hardware entropy in the
                       sim means no two runs agree.
  unordered-iteration  a `std::unordered_map`/`set` in src/sim,
                       src/analysis or src/scenario — iteration order is
                       implementation-defined, so keep the containers
                       out of those directories entirely.
  pointer-ordering     ordered containers keyed on raw pointer value —
                       allocation addresses differ run to run.
  build-timestamp      `__DATE__` / `__TIME__` / `__TIMESTAMP__` —
                       bakes the build time into outputs.

Unit rules
----------
New code in the unit-typed layers must traffic in Bandwidth / ByteSize /
BitSize / Probability, not in raw scalars with a suffix naming the
unit.

  raw-unit-param       a function signature in src/sim or src/scenario
                       declares `double <name>_bps` or an integer
                       `<name>_bytes` parameter.  Pass Bandwidth /
                       ByteSize / BitSize instead; the suffix convention
                       is exactly what units.h replaces.
  raw-unit-member      a header in src/sim or src/scenario declares a raw
                       scalar field with a _bps/_bytes suffix.  The two
                       seeded exceptions are Packet::size_bytes, the
                       wire-format endpoint of the datapath slab, and the
                       packet-log record that copies it verbatim.
  narrowing-unit-cast  a static_cast of a unit accessor (.bps(),
                       .count(), .bit_count(), .value()) to a narrower
                       arithmetic type anywhere in src/.  Narrowing a
                       dimensioned quantity is a precision decision that
                       must be visible in review; deliberate ones go in
                       the allowlist with a justification.
  unchecked-probability  a Probability constructed directly from a raw
                       scalar (`Probability(x)` / `Probability{x}`)
                       outside src/util/units.h.  All probability values
                       must come through Probability::checked / zero /
                       one so the [0,1] + NaN rejection cannot be
                       bypassed.

Ownership rules
---------------
A field with exactly one writer in src/ may be written nowhere else.

  hop-start-write      `.hop_start =` outside src/sim/link.cpp.
                       Link::enqueue stamps every admitted packet's
                       hop_start, and the mesh's delay ground truth
                       reads delivery - hop_start as the sojourn at that
                       link; a creator-side stamp is dead code that
                       suggests otherwise.

Build-flag rules
----------------
The pinned outputs must depend on the source, not on how it is compiled.

  fast-math-flag       `-ffast-math`, `-Ofast`,
                       `-funsafe-math-optimizations` or `-ffp-contract=fast`
                       in any CMakeLists.txt or *.cmake file.  Each lets
                       the compiler reassociate or fuse floating-point
                       arithmetic, so a pinned digit can move with the
                       compiler or the -march; the tree builds with
                       -ffp-contract=off instead.

The legacy batch-analysis layer (src/analysis) is deliberately outside
the scope of the raw-unit rules: it is the serialization/estimation
boundary, where traces and estimators exchange plain scalars by design
(LindleyOptions::bottleneck_bps, BottleneckEstimate::mu_bps,
ProbeTrace::probe_wire_bytes).
The *streaming* estimator layer (src/analysis/streaming.{h,cpp}) is the
exception: it was written against the typed units (the StreamingLindley
and StreamingPacketPair constructors take their probe spacing and size
as Duration / ByteSize beside the batch WorkloadOptions), so it is
enrolled in the raw-unit rules via UNIT_FILES and must stay typed.  Extending the typed
layer across the rest of the batch boundary is future work; when it
happens, those names move into the allowlist here.

Engines
-------
When python3-clang (libclang) is importable AND its shared library
loads, the raw-unit-param / raw-unit-member rules run as an AST pass:
parameters and fields are resolved from clang cursors, so formatting
cannot produce false positives or negatives.  Otherwise a regex engine
with the same rule names runs; it is the engine CI exercises and the
self-test validates, so both paths are load-bearing.  The
narrowing-unit-cast and unchecked-probability rules are textual in both
modes (a cast's value category is visible in the token stream; the AST
adds nothing for them).

Allowlist: tools/lint_static_allow.txt, `<path> <rule>` lines, each with
a trailing comment justifying it.  The lint fails on new findings only;
allowlisted ones are reported as "allowed", and stale entries fail it.

It scans the sources under src/ and every CMake file of the tree.

Usage:  python3 tools/lint_static.py [--root DIR] [--self-test]
Exit 0 when clean, 1 on findings, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

# (rule, regex, dirs-restriction-or-None, advice)
DETERMINISM_RULES = [
    ("libc-rand", re.compile(r"(?<![\w:])s?rand\s*\("), None,
     "use bolot::util::Rng with a derived stream seed"),
    ("wall-clock-seed",
     re.compile(r"(?<![\w:])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"), None,
     "seeds must come from the scenario config, never the wall clock"),
    ("random-device", re.compile(r"std::random_device"), None,
     "hardware entropy is not replayable; derive seeds with "
     "derive_stream_seed()"),
    ("unordered-iteration",
     re.compile(r"std::unordered_(?:map|set|multimap|multiset)\b"),
     ("src/sim", "src/analysis", "src/scenario"),
     "iteration order is implementation-defined; use std::map, a "
     "sorted vector, or index by dense id"),
    ("pointer-ordering",
     re.compile(
         r"std::(?:map|set)\s*<\s*(?:const\s+)?\w+(?:::\w+)*\s*\*\s*[,>]"),
     None, "pointer keys order by allocation address; key on a stable id"),
    ("build-timestamp", re.compile(r"__(?:DATE|TIME|TIMESTAMP)__"), None,
     "build timestamps make otherwise identical runs differ"),
]

# (rule, regex, the one file allowed to match, advice)
OWNERSHIP_RULES = [
    ("hop-start-write",
     re.compile(r"(?:\.|->)\s*hop_start\s*=(?!=)"), "src/sim/link.cpp",
     "Link::enqueue stamps hop_start on admission; a write anywhere "
     "else is overwritten before anything reads it"),
]

# (rule, regex, advice) over CMake files, # comments stripped.
CMAKE_RULES = [
    ("fast-math-flag",
     re.compile(r"(?<![\w-])(?:-ffast-math|-Ofast|-funsafe-math-optimizations"
                r"|-ffp-contract=fast)(?![\w-])"),
     "value-changing float flags move pinned bits with the compiler and "
     "the -march; the tree builds with -ffp-contract=off"),
]

SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}


def is_cmake(rel: str) -> bool:
    return rel.endswith("CMakeLists.txt") or rel.endswith(".cmake")


def cmake_files(root: Path) -> list[Path]:
    """Every CMake file of the tree, minus hidden dirs and build trees."""
    found: list[Path] = []
    for dirpath, dirnames, filenames in os.walk(root):
        here = Path(dirpath)
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".")
            and not (here / d / "CMakeCache.txt").exists())
        found += [here / f for f in sorted(filenames) if is_cmake(f)]
    return found


def load_allowlist(path: Path) -> set[tuple[str, str]]:
    allowed: set[tuple[str, str]] = set()
    if not path.exists():
        return allowed
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            print(f"lint_static: malformed allowlist line: {raw!r}",
                  file=sys.stderr)
            sys.exit(2)
        allowed.add((parts[0], parts[1]))
    return allowed


def in_restricted_dirs(rel: str, dirs: tuple[str, ...] | None) -> bool:
    if dirs is None:
        return True
    return any(rel.startswith(d + "/") for d in dirs)


def strip_comments(line: str) -> str:
    """Drop // comments so documentation may name the hazards."""
    # Good enough for this tree: no multi-line /* */ spans hazard text.
    cut = line.find("//")
    return line if cut < 0 else line[:cut]

# Directories where the strong-typed units layer is mandatory.
UNIT_DIRS = ("src/sim", "src/scenario")

# Individual files outside UNIT_DIRS that opted into the typed layer and
# must not regress to raw-scalar signatures.  The streaming estimators
# take Bandwidth / ByteSize / Duration in their configs by construction.
UNIT_FILES = ("src/analysis/streaming.h", "src/analysis/streaming.cpp")


def in_unit_scope(rel: str, dirs: tuple[str, ...] | None) -> bool:
    """UNIT_DIRS membership, extended by the UNIT_FILES enrollment."""
    if dirs is None:
        return True
    return in_restricted_dirs(rel, dirs) or rel in UNIT_FILES

INT_TYPES = r"(?:(?:std::)?u?int(?:8|16|32|64)?_t|int|long|(?:std::)?size_t|unsigned)"

# (rule, regex, dirs-restriction-or-None, header-only, advice)
UNIT_RULES = [
    (
        "raw-unit-param",
        re.compile(
            r"\([^)]*?\b(?:double\s+\w*_bps\b|" + INT_TYPES + r"\s+\w*_bytes\b)"
        ),
        UNIT_DIRS,
        False,
        "pass Bandwidth / ByteSize / BitSize (src/util/units.h), not a "
        "raw scalar with the unit in the name",
    ),
    (
        "raw-unit-member",
        re.compile(
            r"^\s*(?:double\s+\w*_bps\b|" + INT_TYPES
            + r"\s+\w*_bytes\b)\s*(?:=[^;]*)?;"
        ),
        UNIT_DIRS,
        True,
        "store Bandwidth / ByteSize / BitSize; raw fields reintroduce "
        "unit confusion at every use site",
    ),
    (
        "narrowing-unit-cast",
        re.compile(
            r"static_cast<\s*(?:float|short|int|long|unsigned(?:\s+\w+)?"
            r"|std::u?int(?:8|16|32)_t)\s*>\s*\([^()]*"
            r"\.(?:bps|count|bit_count|value)\(\)"
        ),
        None,
        False,
        "narrowing a dimensioned quantity loses precision silently; if "
        "deliberate, allowlist it with a justification",
    ),
    (
        "unchecked-probability",
        re.compile(r"\bProbability\s*[({](?!\s*[)}])"),
        None,
        False,
        "construct through Probability::checked / zero / one so the "
        "[0,1] and NaN checks cannot be bypassed",
    ),
]

# Files whose job is to define the guarded constructors themselves.
UNIT_RULE_EXEMPT_FILES = {"src/util/units.h"}


def scan_lines(rel: str, lines: list[str],
               skip_rules: set[str] = frozenset()) -> list[tuple[str, int, str, str]]:
    """Apply every textual rule to one file's lines.

    Returns (rule, lineno, stripped-line, advice) tuples.  Shared by the
    real scan and --self-test so the self-test exercises the production
    rule logic, not a copy.
    """
    findings: list[tuple[str, int, str, str]] = []
    if is_cmake(rel):
        for lineno, line in enumerate(lines, start=1):
            code = line.split("#", 1)[0]
            for rule, pattern, advice in CMAKE_RULES:
                if pattern.search(code):
                    findings.append((rule, lineno, line.strip(), advice))
        return findings
    is_header = rel.endswith((".h", ".hpp"))
    for lineno, line in enumerate(lines, start=1):
        code = strip_comments(line)
        for rule, pattern, dirs, advice in DETERMINISM_RULES:
            if not in_restricted_dirs(rel, dirs):
                continue
            if pattern.search(code):
                findings.append((rule, lineno, line.strip(), advice))
        for rule, pattern, owner, advice in OWNERSHIP_RULES:
            if rel != owner and rel.startswith("src/") \
                    and pattern.search(code):
                findings.append((rule, lineno, line.strip(), advice))
        if rel in UNIT_RULE_EXEMPT_FILES:
            continue
        for rule, pattern, dirs, header_only, advice in UNIT_RULES:
            if rule in skip_rules:
                continue
            if not in_unit_scope(rel, dirs):
                continue
            if header_only and not is_header:
                continue
            if pattern.search(code):
                findings.append((rule, lineno, line.strip(), advice))
    return findings


# ---------------------------------------------------------------------------
# Optional AST engine (libclang).  Replaces the two declaration rules with
# cursor walks; the textual rules still run alongside.
# ---------------------------------------------------------------------------

def try_libclang():
    try:
        from clang import cindex  # type: ignore
        index = cindex.Index.create()
        return cindex, index
    except Exception:
        return None, None


def ast_scan(cindex, index, root: Path, path: Path,
             rel: str) -> list[tuple[str, int, str, str]]:
    """AST pass for raw-unit-param / raw-unit-member on one file."""
    findings: list[tuple[str, int, str, str]] = []
    args = ["-std=c++20", f"-I{root / 'src'}", "-x", "c++"]
    tu = index.parse(str(path), args=args)
    K = cindex.CursorKind
    for cursor in tu.cursor.walk_preorder():
        loc = cursor.location
        if loc.file is None or Path(loc.file.name).resolve() != path.resolve():
            continue
        name = cursor.spelling or ""
        raw_scalar = cursor.type.get_canonical().kind.name in (
            "DOUBLE", "FLOAT", "INT", "UINT", "LONG", "ULONG", "LONGLONG",
            "ULONGLONG", "SHORT", "USHORT",
        )
        if not raw_scalar:
            continue
        if cursor.kind == K.PARM_DECL and (
                name.endswith("_bps") or name.endswith("_bytes")):
            findings.append((
                "raw-unit-param", loc.line, f"parameter '{name}'",
                "pass Bandwidth / ByteSize / BitSize (src/util/units.h)"))
        elif cursor.kind == K.FIELD_DECL and (
                name.endswith("_bps") or name.endswith("_bytes")):
            findings.append((
                "raw-unit-member", loc.line, f"field '{name}'",
                "store Bandwidth / ByteSize / BitSize"))
    return findings


# ---------------------------------------------------------------------------
# Self-test: the acceptance check that a synthetic raw-unit signature is
# rejected and idiomatic typed code is not.
# ---------------------------------------------------------------------------

SELF_TEST_CASES = [
    # (description, pseudo-path, snippet, rules expected to fire)
    ("raw double _bps parameter is rejected",
     "src/sim/synthetic.h",
     "void configure(double rate_bps, int retries);",
     {"raw-unit-param"}),
    ("raw integer _bytes parameter is rejected",
     "src/scenario/synthetic.cpp",
     "static Duration service(std::int64_t frame_bytes) { return {}; }",
     {"raw-unit-param"}),
    ("typed signature is clean",
     "src/sim/synthetic.h",
     "void configure(Bandwidth rate, ByteSize frame);",
     set()),
    ("raw _bytes field in a sim header is rejected",
     "src/sim/synthetic.h",
     "  std::int64_t payload_bytes = 0;",
     {"raw-unit-member"}),
    ("same field outside the typed dirs is out of scope",
     "src/analysis/synthetic.h",
     "  std::int64_t payload_bytes = 0;",
     set()),
    ("streaming estimator header is enrolled despite living in analysis",
     "src/analysis/streaming.h",
     "  std::int64_t probe_wire_bytes = 0;",
     {"raw-unit-member"}),
    ("streaming estimator impl rejects raw-unit parameters too",
     "src/analysis/streaming.cpp",
     "void rebase(double mu_bps) {}",
     {"raw-unit-param"}),
    ("narrowing cast of a unit accessor is flagged",
     "src/sim/synthetic.cpp",
     "const float f = static_cast<float>(rate.bps());",
     {"narrowing-unit-cast"}),
    ("widening cast of a unit accessor is fine",
     "src/sim/synthetic.cpp",
     "const double d = static_cast<double>(frame.count());",
     set()),
    ("raw Probability construction is rejected",
     "src/sim/synthetic.cpp",
     "channel.drop = Probability(0.5);",
     {"unchecked-probability"}),
    ("checked Probability construction is fine",
     "src/sim/synthetic.cpp",
     "channel.drop = Probability::checked(0.5);",
     set()),
    ("libc rand is rejected",
     "src/sim/synthetic.cpp",
     "int jitter = rand() % 7;",
     {"libc-rand"}),
    ("wall-clock seeding is rejected",
     "src/runner/synthetic.cpp",
     "Rng rng(time(nullptr));",
     {"wall-clock-seed"}),
    ("hardware entropy is rejected",
     "src/scenario/synthetic.cpp",
     "std::random_device entropy;",
     {"random-device"}),
    ("unordered container in analysis is rejected",
     "src/analysis/synthetic.cpp",
     "std::unordered_map<int, double> by_flow;",
     {"unordered-iteration"}),
    ("unordered container in scenario is rejected",
     "src/scenario/synthetic.cpp",
     "std::unordered_map<std::uint64_t, SimTime> last;",
     {"unordered-iteration"}),
    ("same container outside sim/analysis/scenario is out of scope",
     "src/runner/synthetic.cpp",
     "std::unordered_map<int, double> by_flow;",
     set()),
    ("pointer-keyed ordering is rejected",
     "src/sim/synthetic.cpp",
     "std::map<const Link*, int> order;",
     {"pointer-ordering"}),
    ("creator-side hop_start stamp is rejected",
     "src/sim/traffic.cpp",
     "  p.hop_start = sim_.now();",
     {"hop-start-write"}),
    ("the link's own hop_start stamp is fine",
     "src/sim/link.cpp",
     "  packet.hop_start = sim_.now();",
     set()),
    ("reading hop_start is fine",
     "src/scenario/synthetic.cpp",
     "sum += (at - p.hop_start).millis(); ok = p.hop_start == at;",
     set()),
    ("build timestamp is rejected",
     "src/obs/synthetic.cpp",
     "const char* built = __DATE__;",
     {"build-timestamp"}),
    ("-ffast-math in a CMake file is rejected",
     "CMakeLists.txt",
     "add_compile_options(-ffast-math)",
     {"fast-math-flag"}),
    ("-Ofast in a build-type flag string is rejected",
     "src/CMakeLists.txt",
     'set(CMAKE_CXX_FLAGS_RELEASE "-Ofast -DNDEBUG")',
     {"fast-math-flag"}),
    ("-funsafe-math-optimizations on a target is rejected",
     "bench/perf_ledger/CMakeLists.txt",
     "target_compile_options(perf_ledger PRIVATE -funsafe-math-optimizations)",
     {"fast-math-flag"}),
    ("-ffp-contract=fast in a .cmake module is rejected",
     "cmake/flags.cmake",
     'string(APPEND CMAKE_CXX_FLAGS " -ffp-contract=fast")',
     {"fast-math-flag"}),
    ("-ffp-contract=off is the fix, not a finding",
     "CMakeLists.txt",
     "add_compile_options(-ffp-contract=off)",
     set()),
    ("a CMake comment may name the hazard",
     "CMakeLists.txt",
     "# never -ffast-math: it moves pinned bits",
     set()),
    ("-fno-fast-math is not -ffast-math",
     "CMakeLists.txt",
     "add_compile_options(-fno-fast-math)",
     set()),
]


def self_test() -> int:
    failures = 0
    for desc, rel, snippet, expected in SELF_TEST_CASES:
        fired = {rule for rule, _, _, _ in scan_lines(rel, [snippet])}
        if fired != expected:
            failures += 1
            print(f"SELF-TEST FAIL: {desc}\n  snippet: {snippet}\n"
                  f"  expected {sorted(expected)}, got {sorted(fired)}",
                  file=sys.stderr)
        else:
            print(f"self-test ok: {desc}")
    if failures:
        print(f"\nlint_static --self-test: {failures} case(s) failed",
              file=sys.stderr)
        return 1
    print(f"lint_static --self-test: all {len(SELF_TEST_CASES)} cases pass")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent's parent)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the rule engine against synthetic snippets")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = (Path(args.root) if args.root
            else Path(__file__).resolve().parent.parent)
    src = root / "src"
    if not src.is_dir():
        print(f"lint_static: no src/ under {root}", file=sys.stderr)
        return 2

    allowed = load_allowlist(root / "tools" / "lint_static_allow.txt")
    used_allow: set[tuple[str, str]] = set()
    findings: list[str] = []
    allowed_hits: list[str] = []
    scanned = 0

    cindex, index = try_libclang()
    engine = "libclang AST + regex" if index else "regex"
    # With the AST engine, the two declaration rules come from cursors;
    # the textual pass skips them so a finding is never double-reported.
    textual_skip = {"raw-unit-param", "raw-unit-member"} if index else set()

    sources = [path for path in sorted(src.rglob("*"))
               if path.suffix in SOURCE_SUFFIXES and path.is_file()]
    for path in sources + cmake_files(root):
        rel = path.relative_to(root).as_posix()
        scanned += 1
        lines = path.read_text(errors="replace").splitlines()
        file_findings = scan_lines(rel, lines, skip_rules=textual_skip)
        if index and not is_cmake(rel) and in_unit_scope(rel, UNIT_DIRS) \
                and rel not in UNIT_RULE_EXEMPT_FILES:
            file_findings += ast_scan(cindex, index, root, path, rel)
        for rule, lineno, text, advice in file_findings:
            where = f"{rel}:{lineno}: [{rule}] {text}"
            if (rel, rule) in allowed:
                used_allow.add((rel, rule))
                allowed_hits.append(where)
            else:
                findings.append(f"{where}\n    -> {advice}")

    for hit in allowed_hits:
        print(f"allowed: {hit}")
    stale = allowed - used_allow
    for rel, rule in sorted(stale):
        print(f"stale allowlist entry (no longer matches): {rel} {rule}")

    if findings:
        print(f"\nlint_static ({engine}): {len(findings)} finding(s) in "
              f"{scanned} files:\n", file=sys.stderr)
        for finding in findings:
            print(finding, file=sys.stderr)
        print("\nEither fix the hazard or add '<path> <rule>' to "
              "tools/lint_static_allow.txt with a justifying comment.",
              file=sys.stderr)
        return 1

    print(f"lint_static ({engine}): clean ({scanned} files, "
          f"{len(allowed_hits)} allowlisted)")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
