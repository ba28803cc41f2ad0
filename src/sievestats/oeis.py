"""OEIS b-file parsing and cross-checking of computed series against them.

The b-file format is plain text: data lines `index value` separated by
whitespace, optional comment lines starting with '#', blank lines ignored.
Indices must be strictly increasing and everything must fit in 64 bits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class BFile:
    sequence_id: str
    entries: tuple[tuple[int, int], ...]

    def as_map(self) -> dict[int, int]:
        return dict(self.entries)


def parse_bfile(text: str, sequence_id: str = "") -> BFile:
    entries: list[tuple[int, int]] = []
    last = None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {number}: expected 'index value', got {raw!r}")
        try:
            idx, val = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {number}: malformed integer in {raw!r}") from None
        if not (_INT64_MIN <= idx <= _INT64_MAX and _INT64_MIN <= val <= _INT64_MAX):
            raise ValueError(f"line {number}: integer outside the 64-bit range")
        if last is not None and idx <= last:
            raise ValueError(
                f"line {number}: indices must be strictly increasing "
                f"({idx} after {last})"
            )
        last = idx
        entries.append((idx, val))
    return BFile(sequence_id, tuple(entries))


def read_bfile(path) -> BFile:
    path = Path(path)
    match = re.fullmatch(r"b(\d+)\.txt", path.name)
    sequence_id = f"A{match.group(1)}" if match else path.stem
    return parse_bfile(path.read_text(), sequence_id)


def oeis_check(computed, bfile: BFile) -> list[tuple[int, int, int]]:
    """Every (n, computed, expected) disagreement on the shared indices.

    `computed` is a SummationSeries or any index -> value mapping.  An empty
    result means full agreement on the overlap; no overlap at all is an error.
    """
    from .sums import SummationSeries

    if isinstance(computed, SummationSeries):
        mapping = computed.as_map()
    elif isinstance(computed, Mapping):
        mapping = computed
    else:
        raise TypeError("computed must be a SummationSeries or a mapping")
    mismatches = []
    overlap = 0
    for idx, expected in bfile.entries:
        if idx in mapping:
            overlap += 1
            got = mapping[idx]
            if got != expected:
                mismatches.append((idx, int(got), expected))
    if overlap == 0:
        raise ValueError("no overlapping indices between the series and the b-file")
    return mismatches
