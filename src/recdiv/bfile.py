"""OEIS b-file interchange: one "index value" pair per line.

Parsing accepts the conventions found in real downloaded files, leading
'#' comment lines and blank lines, but emission produces bare data lines
only.  Indices must be positive and strictly increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

__all__ = ["BFile", "BFileParseError", "parse_bfile", "parse_bfile_text", "format_bfile"]


class BFileParseError(ValueError):
    """Malformed b-file content; carries the offending 1-based line number."""

    def __init__(self, message: str, line_number: int):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


@dataclass(frozen=True)
class BFile:
    """Parsed b-file: (index, value) entries plus where they came from."""

    entries: tuple[tuple[int, int], ...]
    source_name: str = ""

    def __post_init__(self):
        prev = 0
        for i, (idx, _) in enumerate(self.entries):
            if idx <= prev:
                raise ValueError(
                    f"entry {i}: index {idx} not strictly increasing (after {prev})"
                )
            prev = idx

    def __len__(self) -> int:
        return len(self.entries)


def parse_bfile_text(text: str, source_name: str = "") -> BFile:
    """Parse b-file content from a string.

    Blank lines and lines starting with '#' are skipped.  Every other
    line must be exactly two integer tokens; the first token (the index)
    must be positive and strictly greater than the previous index.
    """
    entries = []
    prev_index = 0
    for line_number, raw in enumerate(text.splitlines(), start=1):
        try:
            index_token, value_token = raw.split()
            index, value = int(index_token), int(value_token)
        except ValueError:
            # Not a data line: find out which case, off the hot path.
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise BFileParseError(
                    f"expected 'index value', got {len(tokens)} tokens", line_number
                ) from None
            raise BFileParseError(
                f"non-integer token in {line!r}", line_number
            ) from None
        if index <= prev_index:
            if index < 1:
                raise BFileParseError(f"index {index} is not positive", line_number)
            raise BFileParseError(
                f"index {index} does not increase past {prev_index}", line_number
            )
        entries.append((index, value))
        prev_index = index
    return BFile(tuple(entries), source_name)


def parse_bfile(path: str | Path) -> BFile:
    path = Path(path)
    return parse_bfile_text(path.read_text(encoding="ascii"), source_name=path.name)


def format_bfile(values: Iterable[int]) -> str:
    """Render values as b-file lines "n value" from n = 1, newline-terminated."""
    lines = [f"{i} {v}" for i, v in enumerate(values, start=1)]
    return "\n".join(lines) + "\n" if lines else ""
