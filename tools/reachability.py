#!/usr/bin/env python3
"""Reachability scan: every function defined in src/ is linked by a program.

The programs are the executables of the top-level build's bench/,
examples/ and tools/ directories, plus bench/perf_ledger's driver, which
builds as a project of its own.  Configure both trees with

    -DCMAKE_CXX_FLAGS="-O0 -fno-inline -ffunction-sections -fdata-sections
                       -fkeep-inline-functions"
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"

so that no function is inlined into its caller, every inline function a
header defines is emitted in its own section even where nothing calls
it, and the linker keeps only the sections a program reaches.  The scan
takes `nm -C --defined-only` of every object under TOP_BUILD/src,
subtracts the union of the programs' symbols, and reports each `bolot::`
function that is left, unless tools/reachability_allow.txt lists its
qualified name.

Skipped, because no one wrote them as functions of their own:
- a template instantiation (a `<` before the parameter list), since a
  program links only the instantiations it uses;
- a constructor or destructor that is not a strong global (`T`)
  symbol.  The compiler writes implicit ones (a result struct's default,
  copy and move constructors) as weak symbols, or as local ones inside
  an anonymous namespace, and keeps them wherever a kept inline function
  uses them.  A user-written out-of-line constructor is a `T` symbol and
  is still reported; one written inline in a header is weak as well, so
  it goes unscanned;
- a captureless lambda's static invoker `_FUN` and its conversion to a
  function pointer.  The closure type declares both implicitly, and
  `-fkeep-inline-functions` emits them even where no program converts
  the lambda; the lambda's body, its `operator()`, is still scanned.

Blind spot: code that never reaches an object file cannot be scanned.
A consteval function is evaluated at compile time and never emitted,
and a member of a class template is emitted only for the instantiations
some translation unit uses, so an unused consteval guard or an unused
member of a template (RingBuffer<T>, say) leaves no symbol to report.
Such code has to be found by reading: grep for callers before keeping
it.

A file-local helper (anonymous namespace) is reported only when it is
all that its object leaves unreached; next to an unreached or
allowlisted function of its own file, it is taken to be that function's
helper.

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
                      "-fdata-sections", "-fkeep-inline-functions")
REQUIRED_LINK_FLAG = "-Wl,--gc-sections"
PROGRAM_DIRS = ("bench", "examples", "tools")
LEDGER_PROGRAM = "perf_ledger"
TEXT_TYPES = set("TtW")
LOCAL = "(anonymous namespace)"
# Spellings whose brackets are not nesting: `operator<` and friends,
# `operator()`, and the anonymous namespace.
PLAIN_SPELLINGS = re.compile(
    r"operator(<=>|<<=|<<|<=|<|\(\))|" + re.escape(LOCAL))
# A closure type's implicit members: the static invoker of a captureless
# lambda and its conversion to a function pointer (`operator()` has no
# space after `operator`, so the lambda's body does not match).
LAMBDA_IMPLICIT = re.compile(r"\}::(?:_FUN\(|operator )")


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


def is_special_member(name: str) -> bool:
    """Whether a qualified name (`ns::Class::Class`, `ns::Class::~Class`)
    is a constructor or destructor."""
    scope, _, member = name.rpartition("::")
    return bool(scope) and (member.startswith("~")
                            or scope.rpartition("::")[2] == member)


def text_symbols(path: Path) -> dict[str, str]:
    """Demangled symbol -> its nm type letter, for the text symbols."""
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    symbols = {}
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in TEXT_TYPES:
            symbols[parts[2]] = parts[1]
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
        linked |= text_symbols(program).keys()
    found: dict[str, set] = {}
    for obj in objects:
        names: dict[str, set] = {}
        for symbol, kind in text_symbols(obj).items():
            if symbol in linked or LAMBDA_IMPLICIT.search(symbol):
                continue
            name, templated = split_symbol(symbol)
            if not name.startswith("bolot::") or templated:
                continue
            if kind != "T" and is_special_member(name):
                continue
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
#include <vector>
namespace bolot {
struct Holder {  // its constructor and destructor are compiler-written
  std::vector<int> values;
};
struct Planted {
  Planted();
  int value = 0;
};
Planted::Planted() : value(3) {}
inline int planted_inline(int x) { return x - 1; }
int used(int x) { return x + 1; }
int planted(int x) {
  Holder holder;
  holder.values.push_back(x);
  return static_cast<int>(holder.values.size());
}
}  // namespace bolot
"""
SELF_TEST_MAIN = """
namespace bolot { int used(int x); }
int main() { return bolot::used(-1); }
"""
SELF_TEST_EXPECTED = {"bolot::planted", "bolot::planted_inline",
                      "bolot::Planted::Planted"}


def self_test() -> int:
    """A library and a main that calls one of its functions: the scan must
    report the uncalled function, the uncalled inline function and the
    uncalled out-of-line constructor, and not the compiler-written
    constructor and destructor of Holder that the uncalled function
    uses."""
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
        holder = {s for s in text_symbols(obj) if "Holder::" in s}
        found = unreached([obj], [program])
    if len(holder) < 2 or set(found) != SELF_TEST_EXPECTED:
        print(f"SELF-TEST FAIL: expected {sorted(SELF_TEST_EXPECTED)} "
              f"unreached beside two emitted Holder members, got "
              f"{sorted(found)} and {sorted(holder)}", file=sys.stderr)
        return 1
    print("reachability --self-test: the planted functions are reported, "
          "the compiler-written ones are not")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("top_build", nargs="?", type=Path,
                        help="the top-level build directory")
    parser.add_argument("ledger_build", nargs="?", type=Path,
                        help="the bench/perf_ledger build directory")
    parser.add_argument("--self-test", action="store_true",
                        help="plant unused functions and expect a report")
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
