#!/usr/bin/env python3
"""Regenerate the vendored b-files under tests/data/.

Values come from the trial-division oracle, not the segmented sieves, so the
files stay an independent cross-check.  Run from the repository root:

    python3 tools/make_bfiles.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sievestats.kinds import MOEBIUS, SQUAREFREE  # noqa: E402
from sievestats.oeis import BFile  # noqa: E402
from sievestats.sieves import oracle_value  # noqa: E402

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"


def prefix_entries(kind, n_max):
    total = 0
    entries = []
    for n in range(1, n_max + 1):
        total += oracle_value(kind, n)
        entries.append((n, total))
    return tuple(entries)


def write_bfile(bfile, path):
    """`bfile` as b-file text, one `index value` line per entry, with Unix line ends."""
    pathlib.Path(path).write_text("".join(f"{i} {v}\n" for i, v in bfile.entries), newline="\n")


def main():
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    # Mertens function prefix (OEIS A002321).
    write_bfile(BFile("A002321", prefix_entries(MOEBIUS, 2000)), DATA_DIR / "b002321.txt")
    # Squarefree counting function Q(n); kept under a descriptive name because
    # the matching OEIS id could not be confirmed offline.
    write_bfile(
        BFile("squarefree_count", prefix_entries(SQUAREFREE, 2000)),
        DATA_DIR / "squarefree_count.txt",
    )
    print(f"wrote b-files to {DATA_DIR}")


if __name__ == "__main__":
    main()
