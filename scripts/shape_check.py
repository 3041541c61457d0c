#!/usr/bin/env python3
"""Check the shape of `crates/core/src` (ROADMAP item 3).

usage: shape_check.py [CORE_SRC_DIR]

Fails if a non-test `fn` is longer than MAX_FN_LINES (signature to
closing brace; the code above a file's `#[cfg(test)]` is what counts),
or if a file declared sans-IO names the simulator, the tracer, a
process context or a WAL append. The source is rustfmt's output, so a
function ends at the first `}` on the indentation of its `fn`.
"""
import pathlib
import re
import sys

MAX_FN_LINES = 80
# Flat tables, one arm per `Msg` variant: splitting them would hide that.
LONG_FN_ALLOWED = {("wire.rs", "encode"), ("wire.rs", "decode")}
SANS_IO = ["parked.rs", "coordination.rs", "fence.rs"]
IO_NAMES = re.compile(r"mdcc_sim|mdcc_trace|\bCtx\b|wal::append")
FN = re.compile(r"^(\s*)(?:pub(?:\([a-z]+\))? )?(?:const )?fn (\w+)")


def product_lines(path):
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("#[cfg(test)]"):
            return lines[:i]
    return lines


def functions(lines):
    """Yields (name, first line number, length) of every fn with a body."""
    for start, line in enumerate(lines):
        found = FN.match(line)
        if not found:
            continue
        indent, name = found.groups()
        opened = False
        for end in range(start, len(lines)):
            text = lines[end]
            if end == start and text.endswith("}"):
                yield name, start + 1, 1
                break
            if not opened and text.endswith(";"):
                break  # a declaration without a body
            opened = opened or text.endswith("{")
            if text == indent + "}":
                yield name, start + 1, end - start + 1
                break


def main(argv):
    src = pathlib.Path(argv[0] if argv else "crates/core/src")
    failures = []
    longest = ("", "", 0)
    for path in sorted(src.rglob("*.rs")):
        for name, line, length in functions(product_lines(path)):
            if (path.name, name) in LONG_FN_ALLOWED:
                continue
            if length > longest[2]:
                longest = (path.name, name, length)
            if length > MAX_FN_LINES:
                failures.append(f"{path}:{line}: fn {name} is {length} lines (max {MAX_FN_LINES})")
    for name in SANS_IO:
        path = src / name
        if not path.exists():
            failures.append(f"{path}: declared sans-IO but missing")
            continue
        for number, text in enumerate(path.read_text().splitlines(), 1):
            found = IO_NAMES.search(text)
            if found:
                failures.append(f"{path}:{number}: sans-IO file names `{found.group()}`")
    print("longest fn: {} {} ({} lines)".format(*longest))
    if failures:
        sys.exit("FAIL:\n" + "\n".join(failures))


if __name__ == "__main__":
    main(sys.argv[1:])
