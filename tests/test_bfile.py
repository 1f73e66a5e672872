import hypothesis.strategies as st
import pytest
from hypothesis import given

from recdiv.bfile import (
    BFile,
    BFileParseError,
    format_bfile,
    parse_bfile,
    parse_bfile_text,
)


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

    def test_round_trip(self):
        values = [3, -1, 0, 10**30, 42]
        bf = parse_bfile_text(format_bfile(values))
        assert [v for _, v in bf.entries] == values
        assert [i for i, _ in bf.entries] == [1, 2, 3, 4, 5]


class TestBFileType:
    def test_constructor_enforces_increasing_indices(self):
        with pytest.raises(ValueError):
            BFile(((2, 1), (2, 5)))
        with pytest.raises(ValueError):
            BFile(((0, 1),))


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
