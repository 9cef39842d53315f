#!/usr/bin/env python3
"""Fail on references to repository files that do not exist.

Docstrings, comments, shipped notes and docs point readers at files such as
``EXPERIMENTS.md``, ``docs/knobs.md`` or ``tests/parity/test_parity.py``; a
reference to a file that was never written (or has since moved or been
deleted) is a dead end.  This tool scans ``src/``, ``examples/``,
``benchmarks/``, ``docs/`` and ``README.md`` for every ``*.md`` reference
and every path-qualified ``tests/**/*.py`` reference, and checks that it
resolves, either relative to the referencing file's directory or to the
repository root.  A bare test-module name (``test_parity.py``) is not
checked: only a path says where the file should be.

Output paths are not references: a name that follows an ``--out`` flag
(``repro run all --out results.md``) is what a command writes, so it is
skipped, as is anything inside a URL.

Usage::

    python tools/check_doc_links.py [--repo-root DIR]
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Iterator, List, Tuple

#: Where references are checked.
SCANNED = ("src", "examples", "benchmarks", "docs", "README.md")

#: A whitespace/quote/bracket-delimited token ending in ``.md``, or a test
#: module path starting at ``tests/`` (a ``::test`` suffix is not part of it).
REF_RE = re.compile(r"[^\s`'\"()<>\[\]{}|,;=*]+\.md\b"
                    r"|(?<![\w/.-])tests/[\w/.-]+\.py\b")
OUTPUT_FLAG_RE = re.compile(r"--out[=\s]+$")


def scanned_files(root: str) -> Iterator[str]:
    """Every text file under the scanned roots, in a stable order."""
    for entry in SCANNED:
        path = os.path.join(root, entry)
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                yield os.path.join(dirpath, filename)


def references(text: str) -> Iterator[Tuple[int, str]]:
    """``(line number, target)`` for every checked reference in ``text``."""
    for number, line in enumerate(text.splitlines(), start=1):
        for match in REF_RE.finditer(line):
            if "://" in match.group(0):
                continue
            if OUTPUT_FLAG_RE.search(line[:match.start()]):
                continue
            yield number, match.group(0)


def resolves(root: str, referrer: str, target: str) -> bool:
    """Whether ``target`` names a file next to ``referrer`` or at the root."""
    return any(os.path.isfile(os.path.normpath(os.path.join(base, target)))
               for base in (os.path.dirname(referrer), root))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="check that referenced repository *.md files and "
                    "tests/**/*.py modules exist")
    parser.add_argument("--repo-root", default=None,
                        help="repository root (default: this script's "
                             "parent's parent)")
    args = parser.parse_args(argv)
    root = args.repo_root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    errors: List[str] = []
    checked = 0
    for path in scanned_files(root):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (UnicodeDecodeError, OSError):
            continue  # binary fixtures carry no references
        for number, target in references(text):
            checked += 1
            if not resolves(root, path, target):
                relative = os.path.relpath(path, root)
                errors.append(f"{relative}:{number}: {target} does not exist")
    if errors:
        for error in errors:
            print(f"check_doc_links: {error}", file=sys.stderr)
        return 1
    print(f"doc links OK: {checked} reference(s) resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
