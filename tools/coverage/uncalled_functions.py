#!/usr/bin/env python3
"""List the functions under src/ that no run of a coverage build called.

Build with coverage, run every ctest, then:

    cmake -B build-cov -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov && ctest --test-dir build-cov
    python3 tools/coverage/uncalled_functions.py build-cov

The script runs `gcov --json-format` once per .gcda file, each in a
directory of its own (a source compiled into two targets, such as
src/json/json.cc, has two .gcda files whose gcov outputs would
otherwise overwrite each other), and sums every function's call count
over all of them.  The instantiations of a template count as one
function, the one at their source location: it is called when any of
them is (a test that instantiates a kernel template with a lambda it
never lets run adds no uncalled function).  A function of src/ whose
sum is zero must be an entry of the allowlist
(tools/coverage/uncalled_allowlist.json), each entry with the reason
it stays; an allowlist entry whose function is now called, or no
longer exists, fails too, so the list only shrinks.

gcov sees only the functions the compiler emitted: an inline function
that no translation unit uses is never emitted, and so never listed.

Exit status: 0 when the uncalled functions are exactly the allowlist,
1 otherwise, 2 on a usage error.
"""

import argparse
import gzip
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
ALLOWLIST = Path(__file__).resolve().with_name("uncalled_allowlist.json")


def gcov_functions(gcda, scratch):
    """Yield (source, line, column, function, count) for every function
    of one .gcda."""
    subprocess.run(
        ["gcov", "--json-format", "--demangled-names",
         "--object-directory", str(gcda.parent), str(gcda)],
        cwd=scratch, check=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    for report in Path(scratch).glob("*.gcov.json.gz"):
        with gzip.open(report, "rt") as f:
            data = json.load(f)
        cwd = Path(data.get("current_working_directory", scratch))
        for entry in data["files"]:
            source = (cwd / entry["file"]).resolve()
            for fn in entry["functions"]:
                yield (source, fn["start_line"], fn["start_column"],
                       fn["demangled_name"], fn["execution_count"])
        report.unlink()


def call_counts(build, src):
    """Map each function of @p src, keyed (path under the repo, line,
    column), to its summed call count and the names it was emitted
    under (one per template instantiation)."""
    counts = {}
    names = {}
    gcdas = sorted(Path(build).rglob("*.gcda"))
    if not gcdas:
        sys.exit(f"no .gcda files under {build}: run the tests of a "
                 "coverage build first")
    for gcda in gcdas:
        with tempfile.TemporaryDirectory() as scratch:
            for source, line, column, name, count in gcov_functions(
                    gcda.resolve(), scratch):
                if src not in source.parents:
                    continue
                key = (str(source.relative_to(REPO)), line, column)
                counts[key] = counts.get(key, 0) + count
                names.setdefault(key, set()).add(name)
    return counts, names


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build", help="coverage build directory whose "
                        "tests have run")
    args = parser.parse_args()

    counts, names = call_counts(args.build, REPO / "src")
    uncalled = set()
    for key, count in counts.items():
        if count == 0:
            uncalled |= {(key[0], name) for name in names[key]}
    emitted = {(key[0], name) for key in names for name in names[key]}
    with open(ALLOWLIST) as f:
        allowed = json.load(f)
    allowed_keys = set()
    for entry in allowed:
        if not entry.get("reason", "").strip():
            print(f"allowlist entry without a reason: {entry}")
            return 1
        allowed_keys.add((entry["file"], entry["function"]))

    called = sum(1 for count in counts.values() if count > 0)
    print(f"{len(counts)} functions under src/, {called} called, "
          f"{len(counts) - called} never called")
    failed = False
    for file, name in sorted(uncalled - allowed_keys):
        failed = True
        print(f"UNCALLED {file}: {name}")
    for file, name in sorted(allowed_keys - uncalled):
        failed = True
        state = "now called" if (file, name) in emitted else "gone"
        print(f"STALE ALLOWLIST ENTRY ({state}) {file}: {name}")
    if failed:
        print("Test or delete each uncalled function, or allowlist it "
              f"with its reason in {ALLOWLIST.relative_to(REPO)}; "
              "remove stale entries.")
        return 1
    for file, name in sorted(allowed_keys):
        print(f"allowed {file}: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
