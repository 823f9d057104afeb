#!/usr/bin/env python3
"""Count production lines and public items, per crate and in total.

Production lines: every line of each `.rs` file under `crates/` and
`src/`, up to (not including) the file's first line that starts with
`#[cfg(test)]`; a file without one counts whole. A crate's integration
tests and benches (`crates/*/tests/`, `crates/*/benches/`) are test
code and are not counted.

Public items: production lines matching
`^\\s*pub (fn|struct|enum|trait|type|const|static|mod) `.

A crate is a directory under `crates/` holding a `Cargo.toml`, named by
its package name; `src/` is the root package. Report only: the exit
status is 0 whatever the counts.
"""

import pathlib
import re

PUB_ITEM = re.compile(r"^\s*pub (fn|struct|enum|trait|type|const|static|mod) ")
PACKAGE_NAME = re.compile(r'^name\s*=\s*"([^"]+)"', re.M)


def package_name(manifest):
    return PACKAGE_NAME.search(manifest.read_text()).group(1)


def count_file(path):
    lines = 0
    items = 0
    for line in path.read_text().splitlines():
        if line.startswith("#[cfg(test)]"):
            break
        lines += 1
        if PUB_ITEM.match(line):
            items += 1
    return lines, items


NOT_PRODUCTION = ("tests", "benches")


def count_tree(root):
    lines = items = 0
    for path in sorted(root.rglob("*.rs")):
        if path.relative_to(root).parts[0] in NOT_PRODUCTION:
            continue
        file_lines, file_items = count_file(path)
        lines += file_lines
        items += file_items
    return lines, items


def main():
    repo = pathlib.Path(__file__).resolve().parent.parent
    crates = [(package_name(repo / "Cargo.toml"), repo / "src")]
    crates += [
        (package_name(d / "Cargo.toml"), d)
        for d in sorted((repo / "crates").iterdir())
        if (d / "Cargo.toml").is_file()
    ]
    total_lines = total_items = 0
    print(f"{'crate':<24} {'lines':>7} {'pub items':>9}")
    for name, root in crates:
        lines, items = count_tree(root)
        total_lines += lines
        total_items += items
        print(f"{name:<24} {lines:>7,} {items:>9}")
    print(f"{'total':<24} {total_lines:>7,} {total_items:>9}")


if __name__ == "__main__":
    main()
