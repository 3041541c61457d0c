#!/usr/bin/env python3
"""Check the shape of the product crates (ROADMAP item 4(d)).

usage: shape_check.py [SRC_DIR ...]

Fails if a non-test `fn` under a root is longer than MAX_FN_LINES
(signature to closing brace; the code above a file's `#[cfg(test)]` is
what counts), or if a file the root declares sans-IO names the
simulator, the tracer, a process context or a WAL append — and, where
the root says so, a lock. The source is rustfmt's output, so a function
ends at the first `}` on the indentation of its `fn`. Without arguments
it checks every root it knows.

Whatever the arguments, it also fails if a crate under `crates/` has
more panic sites than its ceiling in PANIC_CEILINGS (zero for a crate
not listed): `.unwrap()`, `.expect(`, `panic!(`, `unreachable!(`,
`todo!(` and `unimplemented!(` on the non-comment lines above each
file's `#[cfg(test)]` under its `src/` (for `bench`, `src/lib.rs` only;
its binaries are drivers). And it fails if a file under any crate's
`src/` has more product lines (the lines above its `#[cfg(test)]`) than
MAX_FILE_LINES.
"""
import pathlib
import re
import sys

MAX_FN_LINES = 80
IO_NAMES = r"mdcc_sim|mdcc_trace|\bCtx\b|wal::append"
# Per root: the files declared sans-IO (`*` = every file) and what such
# a file may not name.
ROOTS = {
    "crates/core/src": (
        ["parked.rs", "coordination.rs", "node/dangling.rs", "node/repair.rs"],
        IO_NAMES,
    ),
    "crates/paxos/src": (["*"], IO_NAMES),
    "crates/mastership/src": (
        [
            "lib.rs",
            "ballot.rs",
            "election.rs",
            "lease.rs",
            "migration.rs",
            "msg.rs",
            "shard.rs",
            "table.rs",
        ],
        IO_NAMES + r"|\bMutex\b",
    ),
    "crates/cluster/src": ([], IO_NAMES),
    "crates/sim/src": ([], IO_NAMES),
    "crates/recovery/src": ([], IO_NAMES),
    "crates/storage/src": ([], IO_NAMES),
    "crates/common/src": ([], IO_NAMES),
    "crates/baselines/src": ([], IO_NAMES),
    "crates/trace/src": ([], IO_NAMES),
}
FN = re.compile(r"^(\s*)(?:pub(?:\([a-z]+\))? )?(?:const )?fn (\w+)")
# Panic sites per crate as of the last change that removed one: lower a
# ceiling when a site goes, never raise one to let a new site in.
PANIC_CEILINGS = {
    "baselines": 3,
    "bench": 5,
    "cluster": 9,
    "mastership": 1,
    "sim": 1,
    "storage": 2,
    "trace": 10,
}
MAX_FILE_LINES = 800
PANIC = re.compile(r"\.unwrap\(\)|\.expect\(|\b(?:panic|unreachable|todo|unimplemented)!\(")
CRATES = pathlib.Path(__file__).resolve().parent.parent / "crates"


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


def check(src, sans_io, forbidden):
    """Returns the failures under root `src` and its longest function."""
    failures = []
    longest = ("", "", 0)
    files = sorted(src.rglob("*.rs"))
    for path in files:
        for name, line, length in functions(product_lines(path)):
            if length > longest[2]:
                longest = (path.name, name, length)
            if length > MAX_FN_LINES:
                failures.append(f"{path}:{line}: fn {name} is {length} lines (max {MAX_FN_LINES})")
    declared = files if sans_io == ["*"] else [src / name for name in sans_io]
    names = re.compile(forbidden)
    for path in declared:
        if not path.exists():
            failures.append(f"{path}: declared sans-IO but missing")
            continue
        for number, text in enumerate(path.read_text().splitlines(), 1):
            found = names.search(text)
            if found:
                failures.append(f"{path}:{number}: sans-IO file names `{found.group()}`")
    return failures, longest


def panic_sites(crate):
    """Counts the panic sites in the product code of `crate`'s dir."""
    src = crate / "src"
    files = [src / "lib.rs"] if crate.name == "bench" else sorted(src.rglob("*.rs"))
    lines = [line for path in files for line in product_lines(path)]
    return sum(len(PANIC.findall(line)) for line in lines if not line.lstrip().startswith("//"))


def check_panics():
    """Returns a failure per crate over its panic-site ceiling."""
    failures = []
    counts = []
    for crate in sorted(p for p in CRATES.iterdir() if (p / "src").is_dir()):
        found, ceiling = panic_sites(crate), PANIC_CEILINGS.get(crate.name, 0)
        counts.append(f"{crate.name} {found}")
        if found > ceiling:
            failures.append(f"crates/{crate.name}: {found} panic sites (ceiling {ceiling})")
    print("panic sites: " + ", ".join(counts))
    return failures


def check_file_lines():
    """Returns a failure per file over MAX_FILE_LINES product lines."""
    failures = []
    for path in sorted(CRATES.glob("*/src/**/*.rs")):
        found = len(product_lines(path))
        if found > MAX_FILE_LINES:
            name = path.relative_to(CRATES).as_posix()
            failures.append(f"crates/{name}: {found} product lines (max {MAX_FILE_LINES})")
    return failures


def main(argv):
    failures = check_panics() + check_file_lines()
    for root in argv or ROOTS:
        key = root.rstrip("/")
        if key not in ROOTS:
            sys.exit(f"unknown root {root}: add it to ROOTS with its sans-IO list")
        found, longest = check(pathlib.Path(root), *ROOTS[key])
        failures += found
        print("{}: longest fn {} {} ({} lines)".format(key, *longest))
    if failures:
        sys.exit("FAIL:\n" + "\n".join(failures))


if __name__ == "__main__":
    main(sys.argv[1:])
