#!/usr/bin/env python3
"""Reachability scan: every function defined in src/ is linked by a program.

The programs are the executables of the top-level build's bench/,
examples/ and tools/ directories, plus bench/perf_ledger's driver, which
builds as a project of its own.  Configure both trees with

    -DCMAKE_CXX_FLAGS="-O0 -fno-inline -ffunction-sections -fdata-sections"
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"

so that no function is inlined into its caller and the linker keeps only
the sections a program reaches.  The scan takes `nm -C --defined-only` of
every object under TOP_BUILD/src, subtracts the union of the programs'
symbols, and reports each `bolot::` function that is left, unless
tools/reachability_allow.txt lists its qualified name.

Out of reach: a template instantiation (a `<` before the parameter list)
is skipped, because a program links only the instantiations it uses; and
header-only inline code is never emitted where nothing calls it, so an
unused inline function is invisible to this scan.  A file-local helper
(anonymous namespace) is reported only when it is all that its object
leaves unreached; next to an unreached or allowlisted function of its
own file, it is taken to be that function's helper.

Allowlist: one qualified name per line (`bolot::sim::Link::audit_verify`,
no parameter list, so it covers every overload and the lambdas inside),
each with a `#` reason.  A listed name that every program already links,
or that no object defines, is stale and fails the scan.

Usage:  python3 tools/reachability.py TOP_BUILD LEDGER_BUILD
        python3 tools/reachability.py --self-test
Exit 0 when clean, 1 on findings or stale entries, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REQUIRED_CXX_FLAGS = ("-O0", "-fno-inline", "-ffunction-sections",
                      "-fdata-sections")
REQUIRED_LINK_FLAG = "-Wl,--gc-sections"
PROGRAM_DIRS = ("bench", "examples", "tools")
LEDGER_PROGRAM = "perf_ledger"
TEXT_TYPES = set("TtW")
LOCAL = "(anonymous namespace)"
# Spellings whose brackets are not nesting: `operator<` and friends,
# `operator()`, and the anonymous namespace.
PLAIN_SPELLINGS = re.compile(
    r"operator(<=>|<<=|<<|<=|<|\(\))|" + re.escape(LOCAL))


def split_symbol(symbol: str) -> tuple[str, bool]:
    """The qualified name of a demangled symbol (`ns::Class::fn` of
    `ns::Class::fn(args) const`; a lambda's is the function it is defined
    in), and whether it carries template arguments outside every (), {}
    and <>, as each instantiation of a function template does."""
    plain = PLAIN_SPELLINGS.sub(lambda m: "#" * len(m.group(0)), symbol)
    name, templated, depth = None, False, 0
    for at, ch in enumerate(plain):
        if ch in "({<":
            if depth == 0 and ch == "(" and name is None:
                name = symbol[:at]
            templated |= depth == 0 and ch == "<"
            depth += 1
        elif ch in ")}>" and depth > 0:
            depth -= 1
    return symbol if name is None else name, templated


def text_symbols(path: Path) -> set[str]:
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    symbols = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in TEXT_TYPES:
            symbols.add(parts[2])
    return symbols


def is_executable(path: Path) -> bool:
    if not path.is_file() or not os.access(path, os.X_OK):
        return False
    with path.open("rb") as f:
        return f.read(4) == b"\x7fELF"


def unreached(objects: list[Path], programs: list[Path]) -> dict[str, set]:
    """Qualified name -> the symbols under it that no program links.  A
    file-local helper (anonymous namespace) counts only where nothing
    else in its object is unreached: otherwise it is a helper of the
    unreached function the scan already names."""
    linked: set[str] = set()
    for program in programs:
        linked |= text_symbols(program)
    found: dict[str, set] = {}
    for obj in objects:
        names: dict[str, set] = {}
        for symbol in text_symbols(obj) - linked:
            name, templated = split_symbol(symbol)
            if name.startswith("bolot::") and not templated:
                names.setdefault(name, set()).add(symbol)
        public = {n: s for n, s in names.items() if LOCAL not in n}
        for name, symbols in (public or names).items():
            found.setdefault(name, set()).update(symbols)
    return found


def load_allowlist(path: Path) -> set[str]:
    allowed: set[str] = set()
    for raw in path.read_text().splitlines():
        name, _, reason = raw.partition("#")
        name = name.strip()
        if not name:
            continue
        if " " in name or not reason.strip():
            print(f"reachability: allowlist line needs one name and a "
                  f"# reason: {raw!r}", file=sys.stderr)
            sys.exit(2)
        allowed.add(name)
    return allowed


def check_flags(build: Path) -> None:
    cache = build / "CMakeCache.txt"
    if not cache.is_file():
        print(f"reachability: {build} is not a CMake build directory",
              file=sys.stderr)
        sys.exit(2)
    settings = dict(re.findall(r"^(CMAKE_(?:CXX|EXE_LINKER)_FLAGS):\w+=(.*)$",
                               cache.read_text(), re.MULTILINE))
    cxx = settings.get("CMAKE_CXX_FLAGS", "").split()
    link = settings.get("CMAKE_EXE_LINKER_FLAGS", "").split()
    missing = [f for f in REQUIRED_CXX_FLAGS if f not in cxx]
    if REQUIRED_LINK_FLAG not in link:
        missing.append(REQUIRED_LINK_FLAG)
    if missing:
        print(f"reachability: {build} was configured without "
              f"{' '.join(missing)}; see --help", file=sys.stderr)
        sys.exit(2)


def scan(top: Path, ledger: Path, allow_path: Path) -> int:
    for build in (top, ledger):
        check_flags(build)
    objects = sorted((top / "src").rglob("*.o"))
    programs = [p for d in PROGRAM_DIRS for p in sorted((top / d).iterdir())
                if is_executable(p)]
    programs.append(ledger / LEDGER_PROGRAM)
    if not objects or not all(is_executable(p) for p in programs):
        print("reachability: build the programs and perf_ledger first",
              file=sys.stderr)
        return 2

    found = unreached(objects, programs)
    allowed = load_allowlist(allow_path)
    unlisted = sorted(set(found) - allowed)
    stale = sorted(allowed - set(found))
    for name in unlisted:
        print(f"unreached: {name}")
        for symbol in sorted(found[name]):
            print(f"    {symbol}")
    for name in stale:
        print(f"stale allowlist entry (linked or gone): {name}")
    print(f"reachability: {len(objects)} objects, {len(programs)} programs, "
          f"{len(found)} unreached names, {len(found) - len(unlisted)} "
          f"allowlisted, {len(unlisted)} unlisted, {len(stale)} stale")
    return 1 if unlisted or stale else 0


SELF_TEST_LIB = """
namespace bolot {
int used(int x) { return x + 1; }
int planted(int x) { return x * 2; }
}  // namespace bolot
"""
SELF_TEST_MAIN = """
namespace bolot { int used(int x); }
int main() { return bolot::used(-1); }
"""


def self_test() -> int:
    """A library of two functions and a main that calls one of them: the
    scan must report exactly the other."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "lib.cpp").write_text(SELF_TEST_LIB)
        (root / "main.cpp").write_text(SELF_TEST_MAIN)
        obj, main_obj, program = root / "lib.o", root / "main.o", root / "prog"
        cxx = os.environ.get("CXX", "c++")
        for source, target in (("lib.cpp", obj), ("main.cpp", main_obj)):
            subprocess.run([cxx, *REQUIRED_CXX_FLAGS, "-c",
                            str(root / source), "-o", str(target)],
                           check=True)
        subprocess.run([cxx, REQUIRED_LINK_FLAG, str(main_obj), str(obj),
                        "-o", str(program)], check=True)
        found = unreached([obj], [program])
    if set(found) != {"bolot::planted"}:
        print(f"SELF-TEST FAIL: expected only bolot::planted unreached, "
              f"got {sorted(found)}", file=sys.stderr)
        return 1
    print("reachability --self-test: the planted function is reported")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("top_build", nargs="?", type=Path,
                        help="the top-level build directory")
    parser.add_argument("ledger_build", nargs="?", type=Path,
                        help="the bench/perf_ledger build directory")
    parser.add_argument("--self-test", action="store_true",
                        help="plant an unused function and expect a report")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.top_build is None or args.ledger_build is None:
        parser.print_usage(sys.stderr)
        return 2
    allow = Path(__file__).resolve().parent / "reachability_allow.txt"
    return scan(args.top_build, args.ledger_build, allow)


if __name__ == "__main__":
    sys.exit(main())
