#!/usr/bin/env python3
"""Print every JSON path where two report files differ.

List indices are folded into ``[*]``, so one line stands for all elements
of an array: how many numbers differ there, out of how many, and the largest
absolute difference.  Arrays of different lengths (with both lengths, A's
first), keys present on one side only and changes of type are printed as
such, without descending further.

Usage: python scripts/report_diff.py A.json B.json
Exit status: 0 if the files hold the same JSON, 1 if they differ.
"""

import argparse
import json
import sys
from collections import defaultdict


def _key(path: str, key: str) -> str:
    if not key.isidentifier():
        return f"{path}[{json.dumps(key)}]"
    return f"{path}.{key}" if path else key


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def diff(a, b, path: str, out: dict) -> None:
    """Accumulate per-path differences of ``a`` and ``b`` into ``out``."""
    entry = out[path or "."]
    if _is_number(a) and _is_number(b):
        entry["numbers"] += 1
        if a != b:
            entry["differ"] += 1
            entry["max_abs"] = max(entry["max_abs"], abs(a - b))
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in b or key not in a:
                out[_key(path, key)]["notes"].add("only in " + ("A" if key in a else "B"))
            else:
                diff(a[key], b[key], _key(path, key), out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            entry["notes"].add(f"lengths differ ({len(a)} vs {len(b)})")
            return
        for x, y in zip(a, b):
            diff(x, y, f"{path}[*]", out)
    elif type(a) is not type(b):
        entry["notes"].add(f"type {type(a).__name__} vs {type(b).__name__}")
    elif a != b:
        entry["notes"].add("values differ")


def report_lines(a, b) -> list[str]:
    out: dict = defaultdict(lambda: {"numbers": 0, "differ": 0, "max_abs": 0.0, "notes": set()})
    diff(a, b, "", out)
    lines = []
    for path, entry in sorted(out.items()):
        parts = sorted(entry["notes"])
        if entry["differ"]:
            parts.append(f"{entry['differ']} of {entry['numbers']} numbers differ, "
                         f"max |diff| {entry['max_abs']:.6g}")
        if parts:
            lines.append(f"{path}: {'; '.join(parts)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first report.json")
    parser.add_argument("b", help="second report.json")
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        lines = report_lines(json.load(fa), json.load(fb))
    print("\n".join(lines) if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
