"""File parsing, the SPARQL client, overrides, assembly, and persistence."""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contentcf import ingest
from contentcf.data import MovieProfile, ProfileSource, Rating, RatingColumns, usable_cpus
from contentcf.ingest import (
    FetchError,
    FetchLogEntry,
    FetchOutcome,
    assemble_profiles,
    build_sparql_query,
    fetch_all,
    fetch_profile,
    load_fetched,
    load_overrides,
    load_profiles,
    parse_movies,
    parse_ratings,
    parse_sparql_xml,
    save_fetched,
    save_profiles,
    strip_year,
)
from oracle import parse_rating_lines

RATINGS = "1::1193::5::978300760\n1::661::3::978302109\n2::1193::4::978300123\n"
MOVIES = (
    "1::Toy Story (1995)::Animation|Children's|Comedy\n"
    "2::Jumanji (1995)::Adventure|Children's|Fantasy\n"
    "661::James and the Giant Peach (1996)::Animation|Children's|Musical\n"
    "1193::One Flew Over the Cuckoo's Nest (1975)::Drama\n"
)


def sparql_xml(rows):
    """Standard SPARQL results XML with (title, director, star) rows."""
    body = []
    for title, director, star in rows:
        body.append(
            "<result>"
            f'<binding name="film_title"><literal xml:lang="en">{title}</literal></binding>'
            f'<binding name="star_name"><literal>{star}</literal></binding>'
            f'<binding name="nameDirector"><literal>{director}</literal></binding>'
            "</result>"
        )
    return (
        '<?xml version="1.0"?>\n'
        '<sparql xmlns="http://www.w3.org/2005/sparql-results#">'
        "<head>"
        '<variable name="film_title"/><variable name="star_name"/>'
        '<variable name="nameDirector"/>'
        "</head>"
        f"<results>{''.join(body)}</results></sparql>"
    ).encode()


class TestParseRatings:
    def test_single_line(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::1193::5::978300760\n")
        (r,) = parse_ratings(path)
        assert (r.user_id, r.item_id, r.value, r.timestamp) == (1, 1193, 5, 978300760)

    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text(RATINGS)
        rs = parse_ratings(path)
        assert [(r.user_id, r.item_id) for r in rs] == [(1, 1193), (1, 661), (2, 1193)]

    def test_out_of_range_rejected_with_line(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::1193::5::1\n1::661::9::2\n")
        with pytest.raises(ValueError, match="line 2.*out of range"):
            parse_ratings(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::1193::5::1\n1::661::3\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_ratings(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::x::5::1\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_ratings(path)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
PAST_INT64 = (INT64_MAX + 1, INT64_MIN - 1, 10**25)


@st.composite
def int_field(draw, values):
    """An integer field as ``int`` accepts it: plain, signed, padded or with underscores."""
    n = draw(values)
    text = str(n)
    form = draw(st.sampled_from(["plain", "plus", "padded", "underscore"]))
    if form == "plus" and n >= 0:
        text = "+" + text
    elif form == "padded":
        text = f" {text}\t"
    elif form == "underscore" and len(text.lstrip("-")) > 1:
        text = text[:-1] + "_" + text[-1]
    return text




@st.composite
def ids(draw):
    """Mostly ordinary ids; one in twenty at or past the int64 bounds."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from((INT64_MIN, INT64_MAX) + PAST_INT64))
    return draw(st.integers(-5, 10**7))


IDS = ids()
GOOD_LINE = st.tuples(
    int_field(IDS), int_field(IDS), int_field(st.integers(1, 5)), int_field(IDS)
).map("::".join)
ANY_FIELD = st.one_of(
    int_field(IDS),
    int_field(st.sampled_from([0, 6, 9, -1])),
    st.sampled_from(["", "x", "5.0", "1__0", "_1", "0x5", ":", "- 1", "\u0663", "\u00a05"]),
)
ANY_LINE = st.one_of(
    st.lists(ANY_FIELD, min_size=3, max_size=5).map("::".join),
    st.tuples(
        int_field(IDS), int_field(IDS), int_field(st.sampled_from([0, 6, 9])), int_field(IDS)
    ).map("::".join),
    st.sampled_from(["::::", ":::", " ", "1::2::3::4:", ":1::2::3::4"]),
)


@st.composite
def ratings_text(draw):
    """A ratings file: good and blank lines, some bad lines, any line ending."""
    lines = draw(st.lists(st.one_of(GOOD_LINE, st.just("")), max_size=25))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(ANY_LINE))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines)
    if lines and draw(st.booleans()):
        text += newline
    return text


def oracle_outcome(path):
    """The oracle's rows, or the message of the ValueError the parse must raise.

    A row whose id or timestamp does not fit in 64 bits fails at its line.
    """
    rows = []
    try:
        for lineno, row in parse_rating_lines(path):
            if not all(INT64_MIN <= f <= INT64_MAX for f in (row[0], row[1], row[3])):
                return f"{path}: line {lineno}: field out of 64-bit range in "
            rows.append(row)
    except ValueError as exc:
        return str(exc)
    return rows


BLOCK_CHARS = st.sampled_from([1, 7, 64, 1 << 20])


def parse_outcome(path):
    """``parse_ratings``' columns, or the ValueError it raised."""
    try:
        return parse_ratings(path)
    except ValueError as exc:
        return exc


def narrowest(values):
    """The dtype a parsed column must have: the narrowest of int8, int16,
    int32 and int64 whose range holds every one of ``values``."""
    for bits in (8, 16, 32, 64):
        if all(-(2 ** (bits - 1)) <= v < 2 ** (bits - 1) for v in values):
            return np.dtype(f"int{bits}")
    raise AssertionError("a value past int64")


def assert_matches_oracle(path, block_chars):
    """``parse_ratings`` at ``block_chars`` gives the oracle's rows or its error."""
    want = oracle_outcome(path)
    with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
        got = parse_outcome(path)
    if isinstance(want, list):
        assert isinstance(got, RatingColumns), got
        assert [(r.user_id, r.item_id, r.value, r.timestamp) for r in got] == want
        arrays = (got.user_ids, got.item_ids, got.values, got.timestamps)
        assert list(zip(*(a.tolist() for a in arrays))) == want
        assert [a.dtype for a in arrays] == [narrowest(col) for col in zip(*want)]
    else:
        assert type(got) is ValueError
        if "64-bit" in want:
            assert str(got).startswith(want)
        else:
            assert str(got) == want


@pytest.fixture(scope="module")
def ratings_file(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "ratings.dat"


class TestParseRatingsColumns:
    """``parse_ratings`` against the line-by-line oracle, over block sizes down
    to a few characters, so that blocks end inside and between lines."""

    @settings(max_examples=400, deadline=None)
    @given(text=ratings_text(), block_chars=BLOCK_CHARS)
    def test_same_rows_or_same_error_as_the_line_loop(self, ratings_file, text, block_chars):
        ratings_file.write_bytes(text.encode("utf-8"))
        assert_matches_oracle(ratings_file, block_chars)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="no ratings found"):
            parse_ratings(path)
        path.write_bytes(b"\n\r\n\n")
        with pytest.raises(ValueError, match="no ratings found"):
            parse_ratings(path)

    @pytest.mark.parametrize("field", [str(v) for v in PAST_INT64])
    @pytest.mark.parametrize("column", [0, 1, 3])
    def test_ids_and_timestamps_past_int64_fail_at_their_line(self, tmp_path, field, column):
        """No column is wider than int64: a wider id or timestamp is rejected, not parsed."""
        fields = ["1", "2", "3", "4"]
        fields[column] = field
        path = tmp_path / "ratings.dat"
        path.write_text("1::1::5::1\n\n" + "::".join(fields) + "\n")
        with pytest.raises(ValueError, match=r"ratings\.dat: line 3: field out of 64-bit range"):
            parse_ratings(path)

    def test_int64_bounds_parse(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text(f"{INT64_MIN}::{INT64_MAX}::1::{INT64_MAX}\n")
        (r,) = parse_ratings(path)
        assert (r.user_id, r.item_id, r.timestamp) == (INT64_MIN, INT64_MAX, INT64_MAX)

    def test_first_bad_line_of_a_later_block(self, tmp_path):
        path = tmp_path / "ratings.dat"
        good = "".join(f"{u}::{u + 1}::3::{u}\r\n" for u in range(1, 40))
        path.write_bytes((good + "40::41::7::0\r\n" + good + "x\r\n").encode())
        with mock.patch.object(ingest, "_BLOCK_CHARS", 50):
            with pytest.raises(ValueError, match=r"line 40: rating out of range: 7 for \(40, 41\)$"):
                parse_ratings(path)

    def test_field_counts_are_checked_per_line(self, tmp_path):
        """A 3-field and a 5-field line hold 8 valid fields between them."""
        path = tmp_path / "ratings.dat"
        path.write_text("1::1::1::1\n1::1::1\n1::1::1::1::1\n")
        with pytest.raises(ValueError, match="line 2: expected 4 '::' fields, got 3$"):
            parse_ratings(path)

    def test_error_is_not_chained_to_the_block_parse(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::2::3\n")
        with pytest.raises(ValueError) as info:
            parse_ratings(path)
        assert info.value.__context__ is None

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("40::41::7::0", r"line 40: rating out of range: 7 for \(40, 41\)$"),  # plain bytes
            ("40::x::3::0", "line 40: non-integer field"),
            (f"40::{INT64_MAX + 1}::3::0", "line 40: field out of 64-bit range"),
            ("40::41::3", "line 40: expected 4 '::' fields, got 3$"),
        ],
    )
    def test_a_failing_parse_opens_the_file_once(self, tmp_path, bad, message):
        """The line walk that finds the first bad line also parses its block:
        no second pass over the file names the error."""
        path = tmp_path / "ratings.dat"
        good = "".join(f"{u}::{u + 1}::3::{u}\n" for u in range(1, 40))
        path.write_text(good + bad + "\n" + good)
        with mock.patch.object(ingest, "_BLOCK_CHARS", 50):
            with mock.patch("builtins.open", wraps=open) as opened:
                with pytest.raises(ValueError, match=message):
                    parse_ratings(path)
        assert [c.args[0] for c in opened.call_args_list] == [path]


@st.composite
def digit_field(draw, values):
    """A plain-digit field: the value zero-padded to at most 18 digits."""
    text = str(draw(values))
    return text.zfill(draw(st.integers(len(text), 18)))


PLAIN_ID = digit_field(st.integers(0, 10**18 - 1))
PLAIN_LINE = st.tuples(PLAIN_ID, PLAIN_ID, digit_field(st.integers(1, 5)), PLAIN_ID).map(
    "::".join
)


@st.composite
def plain_digit_text(draw):
    """(text, plain): plain-digit lines with "\\n" or "\\r\\n" ends, with or
    without a final one; unless ``plain``, one line from ANY_LINE among them."""
    lines = draw(st.lists(PLAIN_LINE, min_size=1, max_size=25))
    plain = draw(st.booleans())
    if not plain:
        lines.insert(draw(st.integers(0, len(lines))), draw(ANY_LINE))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), plain


def columns_or_message(outcome):
    """A parse outcome as comparable values: each column's dtype and values, or the error."""
    if isinstance(outcome, ValueError):
        return type(outcome), str(outcome)
    arrays = (outcome.user_ids, outcome.item_ids, outcome.values, outcome.timestamps)
    return [(a.dtype, a.tolist()) for a in arrays]


class TestPlainDigitPath:
    """A block of plain-digit lines takes the checked byte path; any other
    block is walked line by line through ``int``, with the same outcome."""

    @settings(max_examples=300, deadline=None)
    @given(case=plain_digit_text(), block_chars=BLOCK_CHARS)
    def test_same_outcome_as_the_line_loop_and_plain_files_skip_int(
        self, ratings_file, case, block_chars
    ):
        text, plain = case
        ratings_file.write_bytes(text.encode("utf-8"))
        with mock.patch.object(ingest, "_line_table", wraps=ingest._line_table) as int_path:
            assert_matches_oracle(ratings_file, block_chars)
        if plain:
            int_path.assert_not_called()

    @pytest.mark.parametrize(
        "line",
        [
            "1234567890123456789::2::3::4",  # 19 digits, within int64
            "9999999999999999999::2::3::4",  # 19 digits, past int64
            f"{INT64_MIN}::2::3::4",
            "+1::2::3::4",
            "1::-2::3::4",
            "1:: 2::3::4",
            "1::2\t::3::4",
            "1:::2::3::4",
            "1::::3::4",
            "1::2::3::",
            "1::2::3::4:",
            "",
            "1::2::3::4\r\r",  # a lone carriage return before the line end: a blank line
            "1::2\r::3::4",  # one inside the line: two short lines
            "1::2::\u0663::4",
        ],
    )
    def test_other_lines_fall_back_to_the_int_path(self, tmp_path, line):
        path = tmp_path / "ratings.dat"
        path.write_bytes(f"1::1193::5::978300760\n{line}\n2::661::3::978302109\n".encode())
        with mock.patch.object(ingest, "_plain_table", return_value=None):
            want = parse_outcome(path)
        with mock.patch.object(ingest, "_line_table", wraps=ingest._line_table) as int_path:
            got = parse_outcome(path)
        int_path.assert_called_once()
        assert columns_or_message(got) == columns_or_message(want)

    @pytest.mark.parametrize(
        "data",
        [
            b"1:2:3::4::5\n",  # six colons, not in adjacent pairs
            b"1:::2::3::4\n1::2:3::4\n",  # six colons a line, not in pairs
            b"1::2::3::4::5\n1::2::3\n",  # six pairs, not three a line
            b"1::::3::4\n",
            b"1::2::3::4\n\n",
            b"\n",
            b"1234567890123456789::2::3::4\n",
            b"1::2::3::4 \n",
        ],
    )
    def test_layout_checks_reject_before_the_c_reader(self, data):
        assert ingest._plain_lines(data) is None

    @pytest.mark.parametrize(
        ("block", "rows"),
        [
            (
                "1::1193::5::978300760\n2::661::3::978302109\n",
                [(1, 1193, 5, 978300760), (2, 661, 3, 978302109)],
            ),
            ("1::1193::5::978300760", [(1, 1193, 5, 978300760)]),  # no final line end
            ("999999999999999999::2::1::4\n", [(999999999999999999, 2, 1, 4)]),  # 18 digits
            ("1::1193::0::978300760\n", None),  # rating below 1
            ("1::1193::6::978300760\n2::661::3::978302109\n", None),  # rating above 5
            ("1::1193::5::978300760\n1::٣::5::1\n", None),  # not ASCII
            ("1::1193::5\n", None),  # three fields
        ],
        ids=[
            "plain", "no-final-newline", "18-digits",
            "rating-0", "rating-6", "non-ascii", "3-fields",
        ],
    )
    def test_plain_table_alone_decides_a_block(self, block, rows):
        """One function says whether a block is plain: its table, or None."""
        table = ingest._plain_table(block)
        if rows is None:
            assert table is None
        else:
            assert table.dtype == np.int64 and table.T.tolist() == [list(r) for r in rows]

    def test_numpy_text_reader_serves_plain_files_with_warnings_as_errors(self, tmp_path):
        """A numpy that deprecates ``np.fromstring``'s text mode fails here,
        instead of silently sending every block to the ``int`` path."""
        path = tmp_path / "ratings.dat"
        path.write_text("1::1193::5::978300760\n0002::661::3::978302109\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(ingest, "_line_table", side_effect=AssertionError("int path")):
                got = parse_ratings(path)
        assert columns_or_message(got) == [
            (np.dtype(np.int8), [1, 2]),
            (np.dtype(np.int16), [1193, 661]),
            (np.dtype(np.int8), [5, 3]),
            (np.dtype(np.int32), [978300760, 978302109]),
        ]


# Values at the edges of each signed dtype, with the narrowest dtype that holds them.
DTYPE_EDGES = [
    (127, np.int8), (128, np.int16), (-128, np.int8), (-129, np.int16),
    (2**15 - 1, np.int16), (2**15, np.int32), (-(2**15), np.int16), (-(2**15) - 1, np.int32),
    (2**31 - 1, np.int32), (2**31, np.int64), (-(2**31), np.int32), (-(2**31) - 1, np.int64),
    (INT64_MAX, np.int64), (INT64_MIN, np.int64),
]


def parse_both_paths(path):
    """``parse_ratings``' outcome through the ``int`` path; a file the byte
    path takes gives the same outcome on the byte path alone."""
    with mock.patch.object(ingest, "_plain_table", return_value=None):
        through_int = columns_or_message(parse_ratings(path))
    if ingest._plain_table(path.read_text(encoding="utf-8")) is not None:
        with mock.patch.object(ingest, "_line_table", side_effect=AssertionError("int path")):
            assert columns_or_message(parse_ratings(path)) == through_int
    return through_int


class TestNarrowColumns:
    """Each parsed column is in the narrowest of int8, int16, int32 and int64
    that holds its values, the same on the byte path and the ``int`` path."""

    @pytest.mark.parametrize("value, dtype", DTYPE_EDGES)
    @pytest.mark.parametrize("column", [0, 1, 3])
    def test_a_column_at_the_edge_of_its_dtype(self, tmp_path, column, value, dtype):
        rows = [[5, 6, 1, 7], [1, 2, 5, 4]]
        rows[1][column] = value
        path = tmp_path / "ratings.dat"
        path.write_text("".join("::".join(map(str, row)) + "\n" for row in rows))
        want = [(np.dtype(np.int8), list(col)) for col in zip(*rows)]
        want[column] = (np.dtype(dtype), want[column][1])
        assert parse_both_paths(path) == want

    def test_one_block_narrows_and_a_later_one_does_not(self, tmp_path):
        rows = [(u, u + 1, 1 + u % 5, u) for u in range(1, 40)] + [(300, 40000, 2, 2**31)]
        path = tmp_path / "ratings.dat"
        path.write_text("".join("::".join(map(str, row)) + "\n" for row in rows))
        seen, narrowest = [], ingest._narrowest

        def recording(col):
            seen.append(narrowest(col))
            return seen[-1]

        with mock.patch.object(ingest, "_BLOCK_CHARS", 64):
            with mock.patch.object(ingest, "_narrowest", recording):
                got = parse_ratings(path)
            assert parse_both_paths(path) == columns_or_message(got)
        # Each block narrows its own four columns, in column order.
        seen = [seen[i : i + 4] for i in range(0, len(seen), 4)]
        assert len(seen) > 2
        assert seen[0] == [np.dtype(np.int8)] * 4
        assert seen[-1] == [np.dtype(t) for t in (np.int16, np.int32, np.int8, np.int64)]
        assert columns_or_message(got) == [
            (np.dtype(t), list(col))
            for t, col in zip((np.int16, np.int32, np.int8, np.int64), zip(*rows))
        ]

    def test_nine_bytes_a_rating(self, tmp_path):
        """Ids below 32,768 and timestamps below 2**31: int16, int16, int8, int32."""
        rows = [(u, 32767 - u, 1 + u % 5, 2**31 - 1 - u) for u in range(1000)]
        path = tmp_path / "ratings.dat"
        path.write_text("".join("::".join(map(str, row)) + "\n" for row in rows))
        cols = parse_ratings(path)
        assert cols == [Rating(*row) for row in rows]
        arrays = (cols.user_ids, cols.item_ids, cols.values, cols.timestamps)
        assert sum(a.nbytes for a in arrays) == 9 * len(rows)

    @pytest.mark.parametrize("line_end", ["\n", " \n"], ids=["plain", "line-walk"])
    def test_parse_peak_stays_below_one_int64_table_of_the_file(self, tmp_path, line_end):
        """The bound: while the blocks are joined, their narrow columns and the
        joined ones are alive, 2 x 9 bytes a rating, and the 1-5 check adds 3
        bytes of masks; 24 leaves room for the blocks' array headers (under 1
        byte a rating at 16 KiB blocks). A whole-file int64 table is 32 bytes a
        rating on its own, so building one breaks the bound. Lines with a
        trailing space take the line walk, whose lists live one block at a time."""
        n = 40_000
        path = tmp_path / "ratings.dat"
        path.write_text(
            "".join(f"{u % 6040 + 1}::{u % 3706 + 1}::{1 + u % 5}::{978300000 + u}{line_end}"
                    for u in range(n))
        )
        with mock.patch.object(ingest, "_BLOCK_CHARS", 1 << 14):
            tracemalloc.start()
            try:
                cols = parse_ratings(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert path.stat().st_size > 50 * (1 << 14)  # many blocks
        assert len(cols) == n
        assert peak < 24 * n


def mixed_blocks_text(n=4000):
    """``\\r\\n``-ended plain lines, with a non-plain line (a trailing space, a
    timestamp past int32) in the middle and a blank line and a signed field at the end."""
    lines = [f"{u % 97 + 1}::{u % 31 + 1}::{1 + u % 5}::{978300000 + u}" for u in range(n)]
    lines[n // 2] = f"7::8::3::{2**40} "
    lines[-1:] = ["", "+9::10::2::11"]
    return "\r\n".join(lines) + "\r\n"


def pooled():
    """A mock whose calls are the parse's thread pools."""
    return mock.patch.object(ingest, "ThreadPoolExecutor", wraps=ingest.ThreadPoolExecutor)


class TestPooledParse:
    """A file of four blocks or more has its plain blocks parsed on a thread pool
    of two threads when more than one CPU is usable; the outcome is that of a
    one-thread parse."""

    @pytest.mark.parametrize("block_chars", [50, 64, 1 << 14])
    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_columns_and_dtypes_equal_a_one_thread_parse(self, tmp_path, cpus, block_chars):
        path = tmp_path / "ratings.dat"
        path.write_bytes(mixed_blocks_text().encode())
        with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
            with mock.patch.object(ingest, "usable_cpus", lambda: 1):
                want = columns_or_message(parse_ratings(path))
            with mock.patch.object(ingest, "usable_cpus", lambda: cpus):
                walk = mock.patch.object(ingest, "_line_table", wraps=ingest._line_table)
                with pooled() as pool, walk as walked:
                    got = columns_or_message(parse_ratings(path))
        assert got == want
        assert [dtype for dtype, _ in got] == [np.dtype(np.int8)] * 3 + [np.dtype(np.int64)]
        # A pool only when there is a CPU to spare, with a thread per block in flight.
        assert [c.args for c in pool.call_args_list] == [(ingest._IN_FLIGHT,)] * int(cpus > 1)
        assert walked.call_count >= 2  # the middle block and the last one

    def test_more_threads_than_cores_with_short_time_slices(self, tmp_path):
        """Blocks handed out of order, or a warning filter lost between threads,
        would change the columns or send a plain block down the line walk. The
        pool has a thread per block in flight, so more blocks in flight than
        cores give it more threads than cores."""
        path = tmp_path / "ratings.dat"
        path.write_bytes(mixed_blocks_text().encode())
        with mock.patch.object(ingest, "_BLOCK_CHARS", 50):
            with mock.patch.object(ingest, "usable_cpus", lambda: 1):
                want = columns_or_message(parse_ratings(path))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                many = mock.patch.object(ingest, "_IN_FLIGHT", 4 * (os.cpu_count() or 1))
                with mock.patch.object(ingest, "usable_cpus", lambda: 2), many:
                    walk = mock.patch.object(ingest, "_line_table", wraps=ingest._line_table)
                    with walk as walked, pooled() as pool:
                        for _ in range(3):
                            assert columns_or_message(parse_ratings(path)) == want
            finally:
                sys.setswitchinterval(interval)
        assert walked.call_count == 3 * 2  # the middle block and the last one, each run
        assert [c.args for c in pool.call_args_list] == [(4 * (os.cpu_count() or 1),)] * 3

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_a_file_of_fewer_than_four_blocks_parses_without_a_pool(self, tmp_path, cpus):
        path = tmp_path / "ratings.dat"
        path.write_text(RATINGS)  # a block a line at one character a block
        with mock.patch.object(ingest, "_BLOCK_CHARS", 1):
            with mock.patch.object(ingest, "usable_cpus", lambda: cpus):
                with pooled() as pool:
                    assert len(parse_ratings(path)) == 3
                pool.assert_not_called()
                path.write_text(RATINGS + "3::661::1::978300124\n")
                with pooled() as pool:
                    assert len(parse_ratings(path)) == 4
                assert pool.call_count == int(cpus > 1)

    def test_the_pool_follows_the_cpu_affinity_mask(self, tmp_path):
        """Unpatched: a pool of two threads when this process may run on more
        than one CPU, and none when it may run on one alone (as under ``taskset -c 0``)."""
        path = tmp_path / "ratings.dat"
        path.write_bytes(mixed_blocks_text().encode())
        with mock.patch.object(ingest, "_BLOCK_CHARS", 1 << 14):
            with pooled() as pool:
                parse_ratings(path)
        cpus = usable_cpus()
        assert [c.args for c in pool.call_args_list] == [(ingest._IN_FLIGHT,)] * int(cpus > 1)

    @pytest.mark.parametrize("cpus", [2, 8])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("40::41::7::0", r"line 40: rating out of range: 7 for \(40, 41\)$"),
            ("40::x::3::0", "line 40: non-integer field"),
            ("40::41::3", "line 40: expected 4 '::' fields, got 3$"),
        ],
    )
    def test_first_bad_line_of_a_later_block(self, tmp_path, cpus, bad, message):
        """The same error and line number as a one-thread parse, from one open of
        the file; no parse thread outlives the error."""
        path = tmp_path / "ratings.dat"
        good = "".join(f"{u}::{u + 1}::3::{u}\r\n" for u in range(1, 40))
        path.write_bytes((good + bad + "\r\n" + good * 3).encode())
        threads = threading.active_count()
        with mock.patch.object(ingest, "_BLOCK_CHARS", 50):
            with mock.patch.object(ingest, "usable_cpus", lambda: 1):
                want = parse_outcome(path)
            with mock.patch.object(ingest, "usable_cpus", lambda: cpus):
                with mock.patch("builtins.open", wraps=open) as opened:
                    with pytest.raises(ValueError, match=message) as got:
                        parse_ratings(path)
        assert str(got.value) == str(want)
        assert [c.args[0] for c in opened.call_args_list] == [path]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("outer", [None, "error"])
    def test_warning_filters_and_threads_are_as_before(self, tmp_path, outer):
        path = tmp_path / "ratings.dat"
        path.write_bytes(mixed_blocks_text().encode())
        with warnings.catch_warnings():
            if outer:
                warnings.simplefilter(outer)
            filters, threads = list(warnings.filters), threading.active_count()
            with mock.patch.object(ingest, "_BLOCK_CHARS", 1 << 12):
                with mock.patch.object(ingest, "usable_cpus", lambda: 4):
                    assert len(parse_ratings(path)) == 4000
            assert warnings.filters == filters
            assert threading.active_count() == threads

    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pooled"])
    def test_a_warning_raised_while_a_parse_runs_stays_a_warning(self, tmp_path, cpus):
        """The parse changes no process-wide warning filter: a warning that its
        caller ignores, raised in every block check, is not raised as an error."""
        path = tmp_path / "ratings.dat"
        path.write_bytes(mixed_blocks_text().encode())
        plain_lines, warned, raised = ingest._plain_lines, [], []

        def probe(data):
            try:
                warnings.warn("raised while a parse runs", UserWarning)
                warned.append(True)
            except UserWarning as exc:
                raised.append(exc)
            return plain_lines(data)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            filters = list(warnings.filters)
            with mock.patch.object(ingest, "_BLOCK_CHARS", 256):
                with mock.patch.object(ingest, "usable_cpus", lambda: cpus):
                    with mock.patch.object(ingest, "_plain_lines", probe):
                        assert len(parse_ratings(path)) == 4000
            assert warnings.filters == filters
        assert len(warned) >= ingest._POOL_MIN_BLOCKS
        assert raised == []

    @pytest.mark.parametrize("cpus", [2, 8])
    def test_at_most_two_blocks_parse_at_once(self, tmp_path, cpus):
        path = tmp_path / "ratings.dat"
        path.write_bytes(mixed_blocks_text().encode())
        lock, running, most = threading.Lock(), [0], [0]
        plain_table = ingest._plain_table

        def counted(block):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            time.sleep(0.002)
            try:
                return plain_table(block)
            finally:
                with lock:
                    running[0] -= 1

        with mock.patch.object(ingest, "_BLOCK_CHARS", 1 << 10):
            with mock.patch.object(ingest, "usable_cpus", lambda: cpus):
                with mock.patch.object(ingest, "_plain_table", counted):
                    parse_ratings(path)
        assert most[0] <= ingest._IN_FLIGHT == 2


class TestParseMovies:
    def test_genres_split(self, tmp_path):
        path = tmp_path / "movies.dat"
        path.write_text(MOVIES, encoding="latin-1")
        movies = parse_movies(path)
        title, genres = movies[1]
        assert title == "Toy Story (1995)"
        assert set(genres) == {"Animation", "Children's", "Comedy"}
        assert len(movies) == 4

    def test_empty_genres_rejected(self, tmp_path):
        path = tmp_path / "movies.dat"
        path.write_text("5::No Genres (1999)::\n")
        with pytest.raises(ValueError, match="line 1.*genres"):
            parse_movies(path)

    def test_unknown_genre_kept_with_warning(self, tmp_path, caplog):
        path = tmp_path / "movies.dat"
        path.write_text("5::Oddity (1999)::Mockumentary\n")
        with caplog.at_level("WARNING"):
            movies = parse_movies(path)
        assert movies[5][1] == ("Mockumentary",)
        assert "Mockumentary" in caplog.text

    def test_legacy_encoding_tolerated(self, tmp_path):
        path = tmp_path / "movies.dat"
        path.write_bytes("10::Les Mis\xe9rables (1995)::Drama\n".encode("latin-1"))
        movies = parse_movies(path)
        assert "Mis" in movies[10][0]

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "movies.dat"
        path.write_text("1::A (1990)::Drama\n1::B (1991)::Comedy\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_movies(path)


class TestStripYear:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Toy Story (1995)", "Toy Story"),
            ("Toy Story", "Toy Story"),
            ("Seven (a.k.a. Se7en) (1995)", "Seven (a.k.a. Se7en)"),
            ("(500) Days of Summer", "(500) Days of Summer"),
        ],
    )
    def test_cases(self, raw, expected):
        assert strip_year(raw) == expected


class TestBuildSparqlQuery:
    def test_title_substituted_into_filter(self):
        q = build_sparql_query("Toy Story")
        assert 'FILTER ((str(?film_title) IN ("Toy Story"))' in q
        assert "SELECT ?film_title ?star_name ?nameDirector {" in q
        assert "dbpedia-owl:starring ?star;" in q
        assert 'LANGMATCHES(LANG(?film_title),"en")' in q
        assert "ORDER BY ?film_title" in q

    def test_template_identical_modulo_title(self):
        a = build_sparql_query("Alpha").replace("Alpha", "@")
        b = build_sparql_query("Beta").replace("Beta", "@")
        assert a == b

    def test_empty_title_rejected(self):
        with pytest.raises(ValueError):
            build_sparql_query("")

    def test_quote_escaped(self):
        q = build_sparql_query('The "Best" Film')
        assert 'IN ("The \\"Best\\" Film")' in q

    def test_backslash_escaped(self):
        assert '\\\\' in build_sparql_query("a\\b")

    def test_control_character_rejected(self):
        with pytest.raises(ValueError, match="control"):
            build_sparql_query("bad\x01title")


class TestParseSparqlXml:
    def test_rows_aggregate(self):
        result = parse_sparql_xml(sparql_xml([("F", "D1", "A1"), ("F", "D1", "A2")]))
        assert result.director_names == {"D1"}
        assert result.star_names == {"A1", "A2"}
        assert result.film_title == "F"
        assert result.distinct_titles == 1

    def test_empty_results_not_found(self):
        assert parse_sparql_xml(sparql_xml([])) is None

    def test_multi_title_flagged(self):
        result = parse_sparql_xml(sparql_xml([("F", "D", "A"), ("F (film)", "D2", "A2")]))
        assert result.distinct_titles == 2

    def test_malformed_xml_reports_byte_offset(self):
        with pytest.raises(ValueError, match="^malformed XML: .*line 1, column 25$"):
            parse_sparql_xml(b"<sparql><results><result>")


class TestFetchProfile:
    def test_fixture_roundtrip(self):
        calls = []

        def transport(url, fields, headers):
            calls.append((url, fields, headers))
            return 200, sparql_xml([("F", "D1", "A1"), ("F", "D1", "A2")])

        result = fetch_profile("Some Film", "http://endpoint/sparql", transport)
        assert result.director_names == {"D1"}
        assert result.star_names == {"A1", "A2"}
        (url, fields, headers), = calls
        assert url == "http://endpoint/sparql"
        assert 'IN ("Some Film")' in fields["query"]
        assert headers["Accept"] == "application/sparql-results+xml"

    def test_deterministic_for_fixed_fixture(self):
        def transport(url, fields, headers):
            return 200, sparql_xml([("F", "D", "A")])

        first = fetch_profile("X", "http://e", transport)
        second = fetch_profile("X", "http://e", transport)
        assert first == second

    def test_error_status_raises(self):
        def transport(url, fields, headers):
            return 503, b"unavailable"

        with pytest.raises(FetchError, match="503"):
            fetch_profile("X", "http://e", transport)

    def test_not_found(self):
        def transport(url, fields, headers):
            return 200, sparql_xml([])

        assert fetch_profile("X", "http://e", transport) is None


class TestFetchAll:
    def test_year_stripped_then_raw_title(self, tmp_path):
        seen = []

        def transport(url, fields, headers):
            query = fields["query"]
            seen.append(query)
            if 'IN ("Weird Movie (1999)")' in query:
                return 200, sparql_xml([("Weird Movie (1999)", "D", "A")])
            return 200, sparql_xml([])

        movies = {7: ("Weird Movie (1999)", ("Drama",))}
        (outcome,) = fetch_all(movies, "http://e", transport=transport, delay=0)
        assert outcome.status == "ok"
        assert outcome.directors == {"D"}
        assert 'IN ("Weird Movie")' in seen[0]

    def test_failures_recorded_not_raised(self):
        def transport(url, fields, headers):
            raise FetchError("down")

        movies = {1: ("A (1990)", ("Drama",)), 2: ("B (1991)", ("Comedy",))}
        outcomes = fetch_all(movies, "http://e", transport=transport, delay=0, retries=1)
        assert [o.status for o in outcomes] == ["failed", "failed"]

    def test_failed_title_then_empty_answer_is_failed(self):
        # Every attempt at the stripped title fails; the raw title's empty
        # answer does not make the movie unknown to the endpoint.
        def transport(url, fields, headers):
            if 'IN ("Weird Movie")' in fields["query"]:
                raise FetchError("down")
            return 200, sparql_xml([])

        movies = {7: ("Weird Movie (1999)", ("Drama",))}
        (outcome,) = fetch_all(movies, "http://e", transport=transport, delay=0)
        assert outcome.status == "failed"

    @pytest.mark.parametrize(
        "fails, requests",
        [
            (lambda calls, query: calls == 1, 2),
            (lambda calls, query: 'IN ("Weird Movie")' in query, 4),  # 3 attempts, then raw
        ],
        ids=["first-attempt", "every-stripped-title-attempt"],
    )
    def test_answer_after_failures_is_ok(self, fails, requests):
        calls = []

        def transport(url, fields, headers):
            calls.append(fields["query"])
            if fails(len(calls), fields["query"]):
                raise FetchError("down")
            return 200, sparql_xml([("Weird Movie", "D", "A")])

        movies = {7: ("Weird Movie (1999)", ("Drama",))}
        (outcome,) = fetch_all(movies, "http://e", transport=transport, delay=0)
        assert (outcome.status, outcome.directors, outcome.actors) == ("ok", {"D"}, {"A"})
        assert len(calls) == requests

    def test_limit(self):
        def transport(url, fields, headers):
            return 200, sparql_xml([])

        movies = {i: (f"M{i} (2000)", ("Drama",)) for i in range(10)}
        outcomes = fetch_all(movies, "http://e", transport=transport, delay=0, limit=5)
        assert len(outcomes) == 5
        assert all(o.status == "not-found" for o in outcomes)

    def test_outcomes_come_in_query_order(self):
        # Numeric item order; ordering by str(item_id) would put 10 before 9.
        def transport(url, fields, headers):
            return 200, sparql_xml([])

        movies = {10: ("Ten", ("Drama",)), 9: ("Nine", ("Drama",))}
        outcomes = fetch_all(movies, "http://e", transport=transport, delay=0)
        assert [o.item_id for o in outcomes] == [9, 10]


    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"concurrency": 0}, "concurrency must be >= 1, got 0"),
            ({"retries": -1}, "retries must be >= 0, got -1"),
            ({"delay": -1}, "delay must be >= 0, got -1"),
            ({"delay": -0.5}, "delay must be >= 0, got -0.5"),
            ({"limit": -1}, "limit must be >= 0, got -1"),
            *(
                ({"endpoint": url}, f"endpoint must be an http or https URL with a host, got {url!r}")
                for url in ("", "dbpedia.org/sparql", "ftp://dbpedia.org/x", "http://", "http:///x",
                            "http://[dbpedia.org/sparql")
            ),
        ],
    )
    def test_bad_setting_rejected_before_any_request(self, setting, message):
        transport = mock.Mock(side_effect=AssertionError("request sent"))
        movies = {i: (f"Movie {i}", ("Drama",)) for i in range(1, 6)}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fetch_all(movies, **{"endpoint": "http://e", **setting}, transport=transport)
        transport.assert_not_called()

    def test_limit_zero_fetches_nothing(self):
        transport = mock.Mock(side_effect=AssertionError("request sent"))
        assert fetch_all({1: ("M", ("Drama",))}, "http://e", transport=transport, limit=0) == []


class TestLoadOverrides:
    def test_actor_cap_applied_in_file_order(self, tmp_path):
        path = tmp_path / "overrides.jsonl"
        record = {
            "item_id": 1,
            "title": "Big Cast",
            "directors": ["D"],
            "actors": [f"A{i}" for i in range(9)],
        }
        path.write_text(json.dumps(record) + "\n")
        (profile,) = load_overrides(path)
        assert profile.actors == {f"A{i}" for i in range(7)}
        assert profile.source is ProfileSource.OVERRIDE

    @pytest.mark.parametrize("n_actors", [0, 6, 7, 8])
    def test_actor_lists_up_to_the_paper_cap_kept_whole(self, tmp_path, n_actors):
        path = tmp_path / "overrides.jsonl"
        names = [f"Z{i}" for i in range(n_actors)]  # file order, not sorted order
        names.reverse()
        path.write_text(json.dumps({"item_id": 1, "actors": names}) + "\n")
        (profile,) = load_overrides(path)
        assert profile.actors == set(names[: ingest.OVERRIDE_ACTOR_CAP])
        assert len(profile.actors) == min(n_actors, 7)

    def test_unknown_item_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "overrides.jsonl"
        path.write_text('{"item_id": 999, "actors": ["A"]}\n')
        with caplog.at_level("WARNING"):
            assert load_overrides(path, known_items={1, 2}) == []
        assert "999" in caplog.text

    def test_empty_file(self, tmp_path):
        path = tmp_path / "overrides.jsonl"
        path.write_text("")
        assert load_overrides(path) == []

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "overrides.jsonl"
        path.write_text('{"item_id": 1}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_overrides(path)

    def test_rejected_profile_named_with_its_file_and_line(self, tmp_path):
        path = tmp_path / "overrides.jsonl"
        record = {"item_id": 1, "genres": [f"G{i}" for i in range(20)]}
        path.write_text('{"item_id": 2}\n' + json.dumps(record) + "\n")
        with pytest.raises(
            ValueError, match=f"{path.name}: line 2: bad profile record: movie 1 has 20 genres"
        ):
            load_overrides(path)


class TestAssembleProfiles:
    MOVIES = {
        1: ("Toy Story (1995)", ("Animation", "Comedy")),
        2: ("Jumanji (1995)", ("Adventure",)),
        3: ("Heat (1995)", ("Action", "Crime")),
    }

    OVERRIDE = MovieProfile(
        item_id=1,
        title="ignored",
        genres=frozenset({"Horror"}),
        directors=frozenset({"OD"}),
        actors=frozenset({"OA", "OB"}),
        source=ProfileSource.OVERRIDE,
    )
    FETCHES = {
        "none": None,
        "ok": FetchOutcome(
            1, "Toy Story", "ok", directors=frozenset({"D"}),
            actors=frozenset({"C", "A", "B"}), multi_title=True,
        ),
        "not-found": FetchOutcome(1, "Toy Story", "not-found"),
        "failed": FetchOutcome(1, "Toy Story", "failed"),
    }

    @pytest.mark.parametrize("fetch", ["none", "ok", "not-found", "failed"])
    @pytest.mark.parametrize("override", [False, True])
    def test_precedence(self, override, fetch):
        # Override beats a successful fetch, which beats the dataset; title and
        # genres always come from the dataset.
        fo = self.FETCHES[fetch]
        store = assemble_profiles(
            self.MOVIES,
            fetched=None if fo is None else {1: fo},
            overrides=[self.OVERRIDE] if override else None,
        )
        if override:
            people = ({"OD"}, {"OA", "OB"})
            source, entry = ProfileSource.OVERRIDE, FetchLogEntry("overridden")
        elif fetch == "ok":
            people = ({"D"}, {"A", "B", "C"})
            source, entry = ProfileSource.LINKED_DATA, FetchLogEntry("fetched-ok", True)
        else:
            people = (set(), set())
            status = {"none": "dataset-only", "not-found": "not-found", "failed": "fetch-failed"}
            source, entry = ProfileSource.DATASET, FetchLogEntry(status[fetch])
        assert store.get(1) == MovieProfile(
            1, "Toy Story (1995)", frozenset({"Animation", "Comedy"}), *people, source=source
        )
        assert store.fetch_log[1] == entry

    def test_idempotent(self):
        fetched = {1: FetchOutcome(1, "T", "ok", directors=frozenset({"D"}))}
        a = assemble_profiles(self.MOVIES, fetched=fetched)
        b = assemble_profiles(self.MOVIES, fetched=fetched)
        assert a == b

    def test_every_movie_profiled(self):
        store = assemble_profiles(self.MOVIES)
        assert set(store.profiles) == set(self.MOVIES)

    def test_linked_actor_cap(self):
        fetched = {
            1: FetchOutcome(
                1, "Toy Story", "ok", actors=frozenset({f"A{i}" for i in range(9)})
            )
        }
        unlimited = assemble_profiles(self.MOVIES, fetched=fetched)
        assert len(unlimited.get(1).actors) == 9  # all starring actors kept

    def test_genres_given_as_one_string_rejected(self):
        # ("Drama") is the string "Drama", not a one-genre tuple: no genre "D", "r", ...
        with pytest.raises(ValueError, match="movie 1 gives its genres as one string 'Drama'"):
            assemble_profiles({1: ("A", "Drama")})


class TestPersistence:
    def _store(self):
        movies = TestAssembleProfiles.MOVIES
        fetched = {
            1: FetchOutcome(1, "Toy Story", "ok", directors=frozenset({"Dir"}), actors=frozenset({"A1", "A2"}))
        }
        return assemble_profiles(movies, fetched=fetched)

    def test_profiles_roundtrip(self, tmp_path):
        store = self._store()
        path = tmp_path / "profiles.jsonl"
        save_profiles(store, path)
        loaded = load_profiles(path)
        assert loaded.profiles == store.profiles

    def test_save_byte_identical(self, tmp_path):
        store = self._store()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_profiles(store, a)
        save_profiles(store, b)
        assert a.read_bytes() == b.read_bytes()

    def test_record_layout(self, tmp_path):
        profiles, fetched = tmp_path / "profiles.jsonl", tmp_path / "fetched.jsonl"
        save_profiles(self._store(), profiles)
        save_fetched([FetchOutcome(1, "Toy Story", "ok", actors=frozenset({"B", "A"}))], fetched)
        assert profiles.read_text().splitlines()[0] == (
            '{"actors":["A1","A2"],"directors":["Dir"],"genres":["Animation","Comedy"],'
            '"item_id":1,"source":"linked-data","title":"Toy Story (1995)"}'
        )
        assert fetched.read_text() == (
            '{"actors":["A","B"],"directors":[],"item_id":1,"multi_title":false,'
            '"status":"ok","title":"Toy Story"}\n'
        )

    def test_fetched_roundtrip(self, tmp_path):
        outcomes = [
            FetchOutcome(2, "B", "not-found"),
            FetchOutcome(1, "A", "ok", directors=frozenset({"D"}), actors=frozenset({"X"}), multi_title=True),
        ]
        path = tmp_path / "fetched.jsonl"
        save_fetched(outcomes, path)
        loaded = load_fetched(path)
        assert loaded[1].directors == {"D"}
        assert loaded[1].multi_title is True
        assert loaded[2].status == "not-found"

    def test_unicode_preserved(self, tmp_path):
        movies = {10: ("Les Misérables (1995)", ("Drama",))}
        fetched = {10: FetchOutcome(10, "x", "ok", directors=frozenset({"Bille Août"}))}
        store = assemble_profiles(movies, fetched=fetched)
        path = tmp_path / "profiles.jsonl"
        save_profiles(store, path)
        assert "Août" in path.read_text(encoding="utf-8")
        assert load_profiles(path).get(10).directors == {"Bille Août"}


# One valid record per loader, and the field each one requires beyond item_id.
LOADERS = {
    "overrides": (load_overrides, {"item_id": 1, "actors": ["A"]}, "item_id"),
    "fetched": (load_fetched, {"item_id": 1, "status": "ok"}, "status"),
    "profiles": (load_profiles, {"item_id": 1, "genres": ["Drama"]}, "genres"),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
class TestJsonLinesRecords:
    def _write(self, tmp_path, loader, second_line):
        _, record, _ = LOADERS[loader]
        path = tmp_path / f"{loader}.jsonl"
        path.write_text(json.dumps(record) + "\n" + second_line + "\n")
        return LOADERS[loader][0], path

    def test_blank_lines_skipped(self, tmp_path, loader):
        load, path = self._write(tmp_path, loader, "   ")
        assert len(load(path)) == 1

    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "invalid JSON"),
            ("[1, 2]", "record must be a JSON object"),
            ('"item"', "record must be a JSON object"),
        ],
    )
    def test_malformed_line_rejected_with_its_number(self, tmp_path, loader, line, message):
        load, path = self._write(tmp_path, loader, line)
        with pytest.raises(ValueError, match=f"{path.name}: line 2: {message}"):
            load(path)

    @pytest.mark.parametrize("field", ["genres", "directors", "actors"])
    @pytest.mark.parametrize("value", ["Drama", 5, None, ["A", 5]])
    def test_feature_field_must_be_array_of_strings(self, tmp_path, loader, field, value):
        _, record, _ = LOADERS[loader]
        load, path = self._write(tmp_path, loader, json.dumps({**record, field: value}))
        with pytest.raises(
            ValueError, match=f"{path.name}: line 2: {field} is not an array of strings"
        ):
            load(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("item_id", [1], "item_id is not an integer or a string"),
            ("item_id", True, "item_id is not an integer or a string"),
            ("item_id", 1.0, "item_id is not an integer or a string"),
            ("item_id", None, "item_id is not an integer or a string"),
            ("title", 5, "title is not a string"),
            ("title", ["T"], "title is not a string"),
            ("title", None, "title is not a string"),
        ],
    )
    def test_field_of_wrong_type_rejected_with_its_number(
        self, tmp_path, loader, field, value, message
    ):
        _, record, _ = LOADERS[loader]
        load, path = self._write(tmp_path, loader, json.dumps({**record, field: value}))
        with pytest.raises(ValueError, match=f"{path.name}: line 2: {message}"):
            load(path)

    def test_string_item_id_loads(self, tmp_path, loader):
        _, record, _ = LOADERS[loader]
        load, path = self._write(tmp_path, loader, json.dumps({**record, "item_id": "m1"}))
        assert len(load(path)) == 2

    def test_repeated_item_id_rejected_with_both_lines(self, tmp_path, loader):
        _, record, _ = LOADERS[loader]
        load, path = self._write(tmp_path, loader, "\n" + json.dumps({**record, "title": "T"}))
        with pytest.raises(
            ValueError, match=f"{path.name}: line 3: duplicate item_id 1 \\(first on line 1\\)$"
        ):
            load(path)

    def test_integer_and_string_ids_stay_distinct(self, tmp_path, loader):
        _, record, _ = LOADERS[loader]
        load, path = self._write(tmp_path, loader, json.dumps({**record, "item_id": "1"}))
        assert len(load(path)) == 2

    def test_missing_required_field_rejected_with_its_number(self, tmp_path, loader):
        _, record, required = LOADERS[loader]
        load, path = self._write(
            tmp_path, loader, json.dumps({k: v for k, v in record.items() if k != required})
        )
        with pytest.raises(ValueError, match=f"{path.name}: line 2: record lacks {required}"):
            load(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("status", "bogus", "status is not one of ok, not-found, failed"),
        ("status", None, "status is not one of ok, not-found, failed"),
        ("status", ["ok"], "status is not one of ok, not-found, failed"),
        ("multi_title", "false", "multi_title is not a boolean"),
        ("multi_title", 1, "multi_title is not a boolean"),
        ("multi_title", None, "multi_title is not a boolean"),
    ],
)
def test_fetched_status_and_multi_title_checked(tmp_path, field, value, message):
    path = tmp_path / "fetched.jsonl"
    path.write_text(json.dumps({"item_id": 1, "status": "ok", field: value}) + "\n")
    with pytest.raises(ValueError, match=f"{path.name}: line 1: {message}"):
        load_fetched(path)
