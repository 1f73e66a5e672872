import tracemalloc
from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import given

from recdiv import bfile
from recdiv.bfile import (
    BFileParseError,
    format_bfile,
    parse_bfile,
    parse_bfile_text,
)
from recdiv.sequences import gen_builtin


class TestParse:
    def test_plain_lines(self):
        bf = parse_bfile_text("1 1\n2 3\n3 4\n")
        assert bf.entries == ((1, 1), (2, 3), (3, 4))
        assert len(bf) == 3

    def test_comments_and_blanks_are_skipped(self):
        text = "# header comment\n\n1 5\n\n# middle\n2 7\n   \n"
        bf = parse_bfile_text(text)
        assert bf.entries == ((1, 5), (2, 7))

    def test_negative_values_and_gaps_are_fine(self):
        bf = parse_bfile_text("1 -2\n5 0\n9 -100\n")
        assert bf.entries == ((1, -2), (5, 0), (9, -100))

    def test_whitespace_tolerant(self):
        bf = parse_bfile_text("  1    4  \n\t2\t9\n")
        assert bf.entries == ((1, 4), (2, 9))

    def test_huge_values_stay_exact(self):
        big = 10**40 + 7
        bf = parse_bfile_text(f"1 {big}\n")
        assert bf.entries[0][1] == big

    def test_empty_input(self):
        assert parse_bfile_text("").entries == ()
        assert parse_bfile_text("# only a comment\n").entries == ()

    def test_wrong_token_count(self):
        with pytest.raises(BFileParseError) as exc_info:
            parse_bfile_text("1 1\n2 2 2\n")
        assert exc_info.value.line_number == 2

    def test_non_integer_token(self):
        with pytest.raises(BFileParseError) as exc_info:
            parse_bfile_text("1 1\n2 x\n")
        assert exc_info.value.line_number == 2

    def test_nonpositive_index(self):
        with pytest.raises(BFileParseError):
            parse_bfile_text("0 1\n")
        with pytest.raises(BFileParseError):
            parse_bfile_text("-3 1\n")

    def test_non_increasing_index(self):
        with pytest.raises(BFileParseError) as exc_info:
            parse_bfile_text("1 1\n3 1\n2 1\n")
        assert exc_info.value.line_number == 3
        with pytest.raises(BFileParseError):
            parse_bfile_text("1 1\n1 1\n")

    def test_line_numbers_count_comments(self):
        # the reported line number is the physical line in the file
        with pytest.raises(BFileParseError) as exc_info:
            parse_bfile_text("# one\n# two\n\nbroken\n")
        assert exc_info.value.line_number == 4

    def test_from_path(self, tmp_path):
        path = tmp_path / "b000001.txt"
        path.write_text("# c\n1 10\n2 20\n")
        bf = parse_bfile(path)
        assert bf.entries == ((1, 10), (2, 20))
        assert bf.source_name == "b000001.txt"


class TestFormat:
    def test_basic(self):
        assert format_bfile([4, 5, 6]) == "1 4\n2 5\n3 6\n"

    def test_empty(self):
        assert format_bfile([]) == ""

    def test_numbering_from_start(self):
        assert format_bfile([4, 5], start=9) == "9 4\n10 5\n"

    def test_round_trip(self):
        values = [3, -1, 0, 10**30, 42]
        bf = parse_bfile_text(format_bfile(values))
        assert [v for _, v in bf.entries] == values
        assert [i for i, _ in bf.entries] == [1, 2, 3, 4, 5]


def reference_format(values, start, sep=" "):
    """The one-f-string-per-line formatter that the block template replaced."""
    return "".join(f"{i}{sep}{v}\n" for i, v in enumerate(values, start))


class TestBlockTemplate:
    # Starts at and around every block edge and every change in index width
    # (999 -> 1000, 9999 -> 10000, 999999 -> 1000000), and 13-digit indices.
    STARTS = [-1, 0, 1, 2, *range(998, 1002), *range(9998, 10002), *range(999_999, 1_000_002), 10**12]

    @given(
        st.sampled_from(STARTS),
        st.lists(st.integers() | st.integers(-(2**80), 2**80), min_size=1, max_size=8),
        st.integers(0, 2100),
    )
    def test_matches_one_f_string_per_line(self, start, pool, n):
        # n lines cycling through pool: up to 2100 reach two block edges past any start.
        # Compared as lists of lines, so a failure names its first wrong line at once.
        values = [pool[i % len(pool)] for i in range(n)]
        for sep, text in ((" ", format_bfile(values, start)), (",", bfile._format_lines(iter(values), start, ","))):
            assert text.splitlines(True) == reference_format(values, start, sep).splitlines(True)


class TestCanonicalText:
    @given(
        st.lists(st.integers(), max_size=20),
        st.text(alphabet="0123456789 -\n", max_size=8),
        st.integers(0, 300),
    )
    def test_is_formatted_is_equality_with_format_bfile(self, values, junk, cut):
        text = format_bfile(values)
        # Batches of 3 lines, so short tables span several.
        with patch.object(bfile, "_BATCH_LINES", 3):
            assert bfile._is_formatted(text, values)
            for edited in (text[:cut] + junk + text[cut:], text[:cut] + text[cut + 1 :]):
                assert bfile._is_formatted(edited, values) == (edited == text)

    @pytest.mark.parametrize("text, rows", [
        ("", 0),
        ("1 4\n", 1),
        ("1 4\n2 5\n3 6\n", 3),
        ("1 4\n2 5\n3 6", 0),
        ("1 4\n2 5\n3 6\n\n", 0),
        ("1 4\n3 5\n", 0),
        ("1 4\n02 5\n", 0),
        ("# c\n2 5\n", 2),
        ("1 4\n2 5\n# 3\n", 0),
    ])
    def test_canonical_rows_reads_the_last_line(self, text, rows):
        assert bfile._canonical_rows(text) == rows


# Text made of b-file material (digits, signs, comments, blank lines), so
# most examples reach the integer and index checks, not only the token count.
bfile_like_text = st.text(alphabet="0123456789 -+_#x\t\r\n", max_size=200)


class TestFuzz:
    @given(st.one_of(st.text(), bfile_like_text))
    def test_any_text_parses_or_names_a_line(self, text):
        try:
            parse_bfile_text(text)
        except BFileParseError as exc:
            assert 1 <= exc.line_number <= len(text.splitlines())

    @given(st.lists(st.integers()))
    def test_format_parse_round_trip(self, values):
        bf = parse_bfile_text(format_bfile(values))
        assert bf.entries == tuple(enumerate(values, start=1))


def reference_parse(text):
    """The one-tuple-per-line parser that the column parser replaced.

    Returns the (index, value) entries or raises the same BFileParseError.
    """
    entries = []
    prev_index = 0
    for line_number, raw in enumerate(text.splitlines(), start=1):
        try:
            index_token, value_token = raw.split()
            index, value = int(index_token), int(value_token)
        except ValueError:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise BFileParseError(
                    f"expected 'index value', got {len(tokens)} tokens", line_number
                ) from None
            raise BFileParseError(f"non-integer token in {line!r}", line_number) from None
        if index <= prev_index:
            if index < 1:
                raise BFileParseError(f"index {index} is not positive", line_number)
            raise BFileParseError(
                f"index {index} does not increase past {prev_index}", line_number
            )
        entries.append((index, value))
        prev_index = index
    return tuple(entries)


def assert_parses_like_reference(text):
    try:
        expected = reference_parse(text)
    except BFileParseError as exc:
        with pytest.raises(BFileParseError) as exc_info:
            parse_bfile_text(text)
        assert str(exc_info.value) == str(exc)
        assert exc_info.value.line_number == exc.line_number
    else:
        bf = parse_bfile_text(text)
        assert bf.entries == expected
        assert list(bf.indices) == [i for i, _ in expected]
        assert len(bf) == len(expected)


# Every line boundary str.splitlines knows: "\r\n" arises from adjacent "\r" and "\n".
SEPARATORS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
separated_text = st.text(alphabet="0123456789-+_# \t" + SEPARATORS, max_size=200)


class TestAgainstReferenceParser:
    @given(separated_text, st.integers(min_value=1, max_value=16))
    def test_any_batch_size_parses_like_the_reference(self, text, batch_chars):
        with patch.object(bfile, "_BATCH_CHARS", batch_chars):
            assert_parses_like_reference(text)

    @given(separated_text)
    def test_default_batch_size_parses_like_the_reference(self, text):
        assert_parses_like_reference(text)

    @staticmethod
    def straddling(item, offset, after):
        """'1 1' and comment lines, then item with the first batch cut
        target offset characters into it, then after."""
        head = "1 1\n"
        pad = bfile._BATCH_CHARS - len(head) - offset
        comments = ["#" * 999 + "\n"] * (pad // 1000)
        if pad % 1000:
            comments.append("#" * (pad % 1000 - 1) + "\n")
        before = head + "".join(comments)
        assert len(before) + offset == bfile._BATCH_CHARS
        return before + item + after

    @pytest.mark.parametrize(
        "item",
        [
            "5 34\n",  # a data line
            "5 34\r\n",  # a data line ending in a CRLF pair
            "\r\n",  # a blank CRLF line
            "\n",  # a blank line
            "   \t\n",  # a blank line of spaces and a tab
            "5 34\r6 35\x0c7 36\n",  # lone "\r" and "\x0c" before the cut's "\n"
            "# note 5 34\n",  # a comment
            "5 x\n",  # a malformed line
            "5 34 1\n",  # three tokens
        ],
    )
    @pytest.mark.parametrize(
        "after",
        [
            "9 9\n10 10",  # data on, no final newline
            "9 9\n\n2 2\n",  # a decreasing index past the first batch
            "9 9\n9 y\n",  # a malformed line past the first batch
        ],
    )
    def test_lines_across_a_batch_cut_parse_like_the_reference(self, item, after):
        for offset in range(len(item) + 1):
            text = self.straddling(item, offset, after)
            assert len(text) > bfile._BATCH_CHARS
            assert_parses_like_reference(text)

    def test_errors_in_later_batches_name_their_line(self):
        lines = [f"{i} {i * i}" for i in range(1, 300_001)]
        lines[250_000] = "250001 x"
        text = "\r\n".join(lines)
        assert len(text) > 3 * bfile._BATCH_CHARS
        with pytest.raises(BFileParseError) as exc_info:
            parse_bfile_text(text)
        assert exc_info.value.line_number == 250_001
        assert_parses_like_reference(text)


class TestMemory:
    # Peak bytes allocated per line while parsing or formatting a 10^5-line
    # kappa_1 b-file (12.2 characters a line), the text itself excluded.
    # CPython 3.11: parse 188 before the column layout, 133 after; format
    # 94 before batching, 25 after, 25 with the block template.
    PARSE_BYTES_PER_LINE = 160
    FORMAT_BYTES_PER_LINE = 48

    @staticmethod
    def peak_per_line(call, arg, lines):
        tracemalloc.start()
        try:
            result = call(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del result
        return peak / lines

    def test_parse_and_format_peaks(self):
        n = 100_000
        values = gen_builtin("kappa", n, x=1).terms()
        text = format_bfile(values)
        assert self.peak_per_line(parse_bfile_text, text, n) < self.PARSE_BYTES_PER_LINE
        assert self.peak_per_line(format_bfile, values, n) < self.FORMAT_BYTES_PER_LINE
