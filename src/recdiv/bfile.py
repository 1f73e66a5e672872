"""OEIS b-file interchange: one "index value" pair per line.

Parsing accepts the conventions found in real downloaded files, leading
'#' comment lines and blank lines, but emission produces bare data lines
only.  Indices must be positive and strictly increasing.

The parser builds a `BFile`: two parallel columns, ``indices`` and
``values``, not a tuple per line.  Indices that run 1..n, as in every
file `format_bfile` writes, are stored as ``range(1, n + 1)``, so a
dense file costs one int object per line, its value.  Parsing splits
the text into lines about 1 MiB at a time, so the per-line strings of a
whole file never exist at once.

Formatting fills in a template of the 1000 lines "@000 %d\\n" to
"@999 %d\\n", built on first use: the lines of indices k*1000 to
k*1000 + 999 are a slice of it with '@' replaced by k, and one ``%``
with a tuple of their values makes them all.  Indices below 1000 take
one f-string each.  One loop, `_batches`, cuts a table into strings of
4096 lines, so a slice may start in the middle of a block: b-file lines
through `format_bfile`, csv rows from the same template with ',' for the
space.  `recdiv gen` writes those batches one at a time.

A text can also be checked against values without parsing it:
`_canonical_rows` reads n from the newline count and the last line, and
`_is_formatted` tells whether the text is exactly `format_bfile` of the
values, comparing it with one of `_batches` at a time.  Only text byte
for byte as `format_bfile` writes it passes; anything else (a comment,
a leading zero, a short file, a wrong value) needs the parser.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = ["BFile", "BFileParseError", "parse_bfile", "parse_bfile_text", "format_bfile"]

# Characters of text per parse batch (about 1 MiB), and the lines of a
# table per string of `_batches` (about 64 KiB of a 10^6-line kappa_1
# file); within a batch, `_format_lines` fills in the template a block of
# 1000 at a time.
_BATCH_CHARS = 1 << 20
_BATCH_LINES = 1 << 12


class BFileParseError(ValueError):
    """Malformed b-file content; carries the offending 1-based line number."""

    def __init__(self, message: str, line_number: int):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class BFile:
    """Parsed b-file: parallel index and value columns plus where they came from.

    `parse_bfile` and `parse_bfile_text` build it, after checking that the
    indices are positive and strictly increasing.  The columns are shared,
    not copied: treat them as read-only.
    """

    __slots__ = ("indices", "values", "source_name")

    def __init__(self, indices: Sequence[int], values: list[int], source_name: str = ""):
        self.indices, self.values, self.source_name = indices, values, source_name

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """The (index, value) pairs, built on each access."""
        return tuple(zip(self.indices, self.values))

    def __len__(self) -> int:
        return len(self.values)


def _line_batches(text: str) -> Iterator[list[str]]:
    """``text.splitlines()`` in consecutive pieces of about _BATCH_CHARS each.

    Each cut falls just after a "\\n", which ends a line whether it stands
    alone or closes "\\r\\n", so the pieces split into exactly the lines of
    the whole text.
    """
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _BATCH_CHARS) + 1 or len(text)
        yield text[start:cut].splitlines()
        start = cut


def parse_bfile_text(text: str, source_name: str = "") -> BFile:
    """Parse b-file content from a string.

    Blank lines and lines starting with '#' are skipped.  Every other
    line must be exactly two integer tokens; the first token (the index)
    must be positive and strictly greater than the previous index.
    """
    indices, values = [], []
    add_index, add_value = indices.append, values.append
    prev_index = 0
    lines = chain.from_iterable(_line_batches(text))
    for line_number, raw in enumerate(lines, start=1):
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
        add_index(index)
        add_value(value)
        prev_index = index
    if prev_index == len(indices):
        # n strictly increasing positive indices ending at n are exactly 1..n.
        indices = range(1, prev_index + 1)
    return BFile(indices, values, source_name)


def parse_bfile(path: str | Path) -> BFile:
    path = Path(path)
    return parse_bfile_text(path.read_text(encoding="ascii"), source_name=path.name)


def format_bfile(values: Iterable[int], start: int = 1) -> str:
    """Render int values as b-file lines "n value" from n = start, newline-terminated.

    ``start`` lets a writer format a long table a slice at a time.
    """
    return _format_lines(values, start, " ")


@cache
def _template(sep: str) -> str:
    """The lines "@000{sep}%d\\n" to "@999{sep}%d\\n" of one block of 1000 indices."""
    return "".join([f"@{j:03d}{sep}%d\n" for j in range(1000)])


def _format_lines(values: Iterable[int], start: int, sep: str) -> str:
    """Lines "n{sep}value" from n = start, for a one-character ``sep``.

    Indices below 1000 take one f-string each.  From 1000 on, the lines of
    one block of 1000 indices are a slice of `_template` with '@' replaced
    by the thousands, filled in by one ``%``.
    """
    values = iter(values)
    # zip ends with the range before it takes a value, leaving values at index 1000.
    parts = [f"{i}{sep}{v}\n" for i, v in zip(range(start, 1000), values)]
    template = _template(sep)
    width = len(template) // 1000
    i = max(start, 1000)
    while chunk := tuple(islice(values, 1000 - i % 1000)):
        off = i % 1000
        block = template[width * off : width * (off + len(chunk))]
        parts.append(block.replace("@", str(i // 1000)) % chunk)
        i += len(chunk)
    return "".join(parts)


def _canonical_rows(text: str) -> int:
    """The n of a text that may be `format_bfile` of n values, else 0.

    n is the number of newlines in the text, and its last line must start
    "n ", so a table built to n is never longer than the file.
    """
    n = text.count("\n")
    return n if text.startswith(f"{n} ", text.rfind("\n", 0, -1) + 1) else 0


def _batches(values: Iterable[int], sep: str = " ") -> Iterator[str]:
    """Lines "n{sep}value" from n = 1, _BATCH_LINES per string, via format_bfile for " "."""
    values, start = iter(values), 1
    while chunk := list(islice(values, _BATCH_LINES)):
        yield format_bfile(chunk, start) if sep == " " else _format_lines(chunk, start, sep)
        start += len(chunk)


def _is_formatted(text: str, values: Iterable[int]) -> bool:
    """Whether `text` is exactly `format_bfile(values)`.

    It compares one of `_batches` at a time, in place in `text`, and
    stops at the first batch that differs.
    """
    pos = 0
    for batch in _batches(values):
        if not text.startswith(batch, pos):
            return False
        pos += len(batch)
    return pos == len(text)
