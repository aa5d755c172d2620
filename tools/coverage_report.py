#!/usr/bin/env python3
"""Prints gcov line coverage per src/ layer of a --coverage build.

    python3 tools/coverage_report.py --build build-coverage
    python3 tools/coverage_report.py --build build-coverage \
        --functions 'ClassScan|Partition|LeafFromTotals'

Runs gcov in JSON mode over every .gcda file in the build (library and
test objects alike), keeps the lines of files under src/, and merges
each file's line counts across translation units: a header line inlined
into many objects counts once, covered if any object ran it. Prints one
row per layer (src/<layer>/) and a total. With --functions, it also
prints the execution count of every src/
function whose demangled name matches the regex (one row per template
instantiation), so a reader can see which code a test run reached.

Report-only: it exits 0 whatever the coverage, and nonzero only when it
finds no coverage data.
"""

import argparse
import collections
import json
import os
import re
import subprocess
import sys


def gcda_dirs(build):
    """Object directories of the build that hold .gcda files."""
    dirs = collections.defaultdict(list)
    for parent, _, files in os.walk(build):
        for name in files:
            if name.endswith(".gcda"):
                dirs[parent].append(os.path.join(parent, name))
    return dirs


def gcov_json(directory, gcdas):
    """Yields gcov's JSON document for each .gcda in one object directory."""
    command = ["gcov", "--json-format", "--stdout", "--demangled-names",
               "--object-directory", directory] + sorted(gcdas)
    result = subprocess.run(command, cwd=directory, capture_output=True,
                            text=True, check=True)
    for line in result.stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            yield json.loads(line)


def relative_source(path, root):
    """`path` relative to the repo root when it lies under src/, else None."""
    absolute = os.path.realpath(path)
    source_root = os.path.join(root, "src") + os.sep
    if not absolute.startswith(source_root):
        return None
    return os.path.relpath(absolute, root)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True,
                        help="build tree configured with --coverage")
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
                        help="repository root (default: this checkout)")
    parser.add_argument("--functions", default="",
                        help="regex of demangled function names to list")
    args = parser.parse_args()
    root = os.path.realpath(args.root)
    build = os.path.realpath(args.build)

    # file -> line number -> execution count summed over objects.
    lines = collections.defaultdict(collections.Counter)
    # (file, demangled name) -> execution count summed over objects.
    functions = collections.Counter()
    pattern = re.compile(args.functions) if args.functions else None
    dirs = gcda_dirs(build)
    if not dirs:
        sys.exit("coverage_report: no .gcda files under %s "
                 "(build with --coverage and run the tests first)" % build)
    for directory, gcdas in sorted(dirs.items()):
        for document in gcov_json(directory, gcdas):
            for entry in document.get("files", []):
                source = relative_source(
                    os.path.join(document.get("current_working_directory",
                                              directory), entry["file"]),
                    root)
                if source is None:
                    continue
                counts = lines[source]
                for line in entry.get("lines", []):
                    counts[line["line_number"]] += line["count"]
                if pattern is None:
                    continue
                for function in entry.get("functions", []):
                    name = function.get("demangled_name", function["name"])
                    if pattern.search(name):
                        functions[(source, name)] += function[
                            "execution_count"]

    per_layer = collections.defaultdict(lambda: [0, 0])
    for source, counts in lines.items():
        layer = source.split(os.sep)[1]
        per_layer[layer][0] += sum(1 for c in counts.values() if c > 0)
        per_layer[layer][1] += len(counts)
    print("%-10s %10s %10s %8s" % ("layer", "covered", "lines", "percent"))
    total_covered = total_lines = 0
    for layer in sorted(per_layer):
        covered, count = per_layer[layer]
        total_covered += covered
        total_lines += count
        print("%-10s %10d %10d %7.1f%%" %
              (layer, covered, count, 100.0 * covered / max(count, 1)))
    print("%-10s %10d %10d %7.1f%%" %
          ("total", total_covered, total_lines,
           100.0 * total_covered / max(total_lines, 1)))
    if pattern is not None:
        print()
        print("%12s  %s" % ("calls", "function"))
        for (source, name), count in sorted(functions.items()):
            print("%12d  %s  [%s]" % (count, name, source))
    return 0


if __name__ == "__main__":
    sys.exit(main())
