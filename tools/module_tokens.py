#!/usr/bin/env python3
"""Token count of each ``src/netkalman`` module, against the compile-peak steps.

Run from anywhere in a checkout::

    python3 tools/module_tokens.py
    python3 tools/module_tokens.py ../parent/src/netkalman

The optional argument names the package directory to count; it defaults
to this checkout's ``src/netkalman``.  A directory that does not exist,
or holds no module, is an error, so two checkouts are never measured as one.

A module's count is what ``tokenize.tokenize`` yields for it, less its
COMMENT and NL tokens (the ENCODING token counts).  On CPython 3.11 the
peak memory of ``compile()`` steps up where the count passes a power of
two: by 0.23 MB at 4096 tokens for ``analysis.py``, and by 0.13 MB at 4096
and 0.64 MB at 8192 for a file of one-line assignments, which shows no
step at 12288.  With ``PYTHONDONTWRITEBYTECODE=1`` that peak is what an
import adds to a process's high-water mark.  Comments, docstrings and line
breaks inside brackets cost nearly nothing.  Each row gives the module's
lines, its tokens and the tokens left before the next step (4096, 8192,
16384, ...); a last row totals the lines and tokens.
"""

import argparse
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "netkalman"
FIRST_STEP = 4096
SKIPPED = (tokenize.COMMENT, tokenize.NL)


def module_tokens(path: Path) -> int:
    """Tokens of one source file, less comments and non-logical line breaks."""
    with open(path, "rb") as fh:
        return sum(tok.type not in SKIPPED for tok in tokenize.tokenize(fh.readline))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE,
                        help="package directory to count (default: %(default)s)")
    package = parser.parse_args().package
    paths = sorted(package.glob("*.py")) if package.is_dir() else []
    if not paths:
        parser.error(f"{package} is not a directory of Python modules")
    print(f"{'module':<16}{'lines':>7}{'tokens':>8}{'to next step':>14}")
    total_lines = total_tokens = 0
    for path in paths:
        tokens = module_tokens(path)
        lines = len(path.read_text(encoding="utf-8").splitlines())
        step = FIRST_STEP
        while step <= tokens:
            step *= 2
        print(f"{path.name:<16}{lines:>7}{tokens:>8}{step - tokens:>14}")
        total_lines += lines
        total_tokens += tokens
    print(f"{'total':<16}{total_lines:>7}{total_tokens:>8}")


if __name__ == "__main__":
    main()
