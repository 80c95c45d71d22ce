#!/usr/bin/env python3
"""Fails when a src/ function is linked only into test binaries.

    python3 tools/surface_check.py <build tree> <perfbench build tree>

Both trees must be built with -O0 -ffunction-sections -fdata-sections and
linked with -Wl,--gc-sections (./ci.sh surface does this), so each binary
keeps exactly the functions reachable from its own code. -O0 keeps a src/
function that every src/ caller would inline linked where those callers
are, so only functions with no caller outside the tests show up.

A function is test-only when it is linked into some test binary (those
under tests/ and perfbench_tests) but into no binary under bench/,
examples/ or perfbench itself. Each test-only function must be on KEPT
below with the reason a test of a non-test path needs it; an entry that
is no longer test-only fails too, so the list cannot go stale. A src/
function that no binary links at all fails as well: once its last test
stops calling it, it is dead code.
"""

import glob
import os
import re
import subprocess
import sys

KEPT = {
    "nagano::odg::ObjectDependenceGraph::HasEdge":
        "renderer and Olympic-site tests assert the edges a render records",
    "nagano::odg::ObjectDependenceGraph::kind":
        "renderer and DUP property tests assert the kind of each vertex",
    "nagano::db::Database::HasIndex":
        "recovery tests assert a recovered store rebuilt its indexes",
    "nagano::db::Database::TableNames":
        "recovery tests compare every table of a recovered store",
    "nagano::wal::WriteAheadLog::last_lsn":
        "WAL tests assert the LSN a reopen or a torn-tail cut leaves",
    "nagano::replication::ReplicationTopology::MarkDown":
        "chaos and replication drills take a replica down; a fault plan "
        "cannot stop the pulls of a node whose database is destroyed",
    "nagano::replication::ReplicationTopology::MarkUp":
        "brings the replica of the MarkDown drills back",
    "nagano::replication::ReplicationTopology::ReattachNode":
        "the warm-restart chaos drill rejoins the recovered replica",
}


def defined_functions(path, kinds):
    """Mangled names of the functions `path` defines with an nm type in
    `kinds`."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[1] in kinds:
            names.add(fields[2])
    return names


def executables(directory):
    return sorted(p for p in glob.glob(os.path.join(directory, "*"))
                  if os.path.isfile(p) and os.access(p, os.X_OK))


def qualified_name(demangled):
    """'ns::Class::Fn[abi:cxx11](args) const' -> 'ns::Class::Fn'."""
    return re.sub(r"\[abi:[^\]]*\]", "", demangled).split("(")[0]


def demangle(names):
    if not names:
        return []
    return subprocess.run(["c++filt"], input="\n".join(names), check=True,
                          capture_output=True, text=True).stdout.splitlines()


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    tree, perf_tree = sys.argv[1:]
    src = set()
    for lib in glob.glob(os.path.join(tree, "src", "*", "*.a")):
        src |= defined_functions(lib, "T")
    tests = (executables(os.path.join(tree, "tests")) +
             [os.path.join(perf_tree, "perfbench_tests")])
    others = (executables(os.path.join(tree, "bench")) +
              executables(os.path.join(tree, "examples")) +
              [os.path.join(perf_tree, "perfbench")])
    if not src or not all(os.path.isfile(p) for p in tests + others):
        sys.exit("surface: build both trees first (see ./ci.sh surface)")

    in_tests, in_others = set(), set()
    for path in tests:
        in_tests |= defined_functions(path, "Tt") & src
    for path in others:
        in_others |= defined_functions(path, "Tt") & src
    test_only = sorted(in_tests - in_others)
    unlinked = sorted(src - in_tests - in_others)

    found = {}
    for name in demangle(test_only):
        found.setdefault(qualified_name(name), []).append(name)
    failed = bool(unlinked)
    print("surface: %d src functions; %d linked only into tests; "
          "%d linked into no binary"
          % (len(src), len(test_only), len(unlinked)))
    for name in demangle(unlinked):
        print("  FAIL    %s: no caller at all" % name)
    for name in sorted(found):
        if name in KEPT:
            print("  kept    %s -- %s" % (name, KEPT[name]))
        else:
            failed = True
            for full in found[name]:
                print("  FAIL    %s: no caller outside tests/" % full)
    for name in sorted(set(KEPT) - set(found)):
        failed = True
        print("  STALE   %s: kept but no longer test-only" % name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
