"""``write_csv`` against ``csv.writer``: for any header and rows of text,
int and float cells, the same bytes, whether a chunk takes the joined path
or falls back."""

import csv
import io
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbalance import _util
from fairbalance._util import CHUNK, write_csv

FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.0, math.inf,
                     -math.inf, math.nan, 0.1, 1e22]),
    st.floats(),
)
TEXT = st.one_of(
    st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", " ", " a ", "a,b", 'say "x"',
                     "é", "漢字", "id-1"]),
    st.text(max_size=8),
)
CELLS = st.one_of(TEXT, st.integers(), FLOATS)


def expected(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("write_csv") / "out.csv"


@st.composite
def tables(draw):
    width = draw(st.integers(1, 4))
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    # mostly the header's width, sometimes a row one short or one long
    rows = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width)
                         | st.lists(CELLS, min_size=max(width - 1, 0),
                                    max_size=width + 1),
                         max_size=12))
    return header, rows


@settings(max_examples=300, deadline=None)
@given(table=tables(), chunk=st.integers(1, 5))
def test_same_bytes_as_csv_writer(path, table, chunk):
    header, rows = table
    with mock.patch.object(_util, "CHUNK", chunk):
        write_csv(path, header, iter(rows))
    assert path.read_bytes() == expected(header, rows)


@pytest.mark.parametrize("count", [CHUNK - 2, CHUNK - 1, CHUNK, CHUNK + 1])
def test_chunk_boundary_with_one_quoted_cell(path, count):
    # with the header, rows fill the first chunk exactly at count CHUNK - 1
    rows = [[f"id{i}", "g", i, i / 7] for i in range(count)]
    rows[CHUNK // 2][0] = "needs,quoting"
    write_csv(path, ["a", "b", "c", "d"], rows)
    assert path.read_bytes() == expected(["a", "b", "c", "d"], rows)


def test_short_row_beside_a_comma_falls_back(path):
    # two commas in each row: counting commas alone would join "b,c" unquoted
    header, rows = ["x", "y", "z"], [["1", "2", "3"], ["a", "b,c"]]
    write_csv(path, header, rows)
    assert path.read_bytes() == b'x,y,z\n1,2,3\na,"b,c"\n'


def test_plain_rows_never_reach_csv_writer(path):
    rows = [["i1", "x", -0.0, 1, 5e-324], ["i2", "y", math.nan, -7, 1.0]]
    with mock.patch.object(_util.csv, "writer") as writer:
        write_csv(path, ["a", "b", "c", "d", "e"], rows)
    writer.return_value.writerows.assert_not_called()
    assert path.read_bytes() == expected(["a", "b", "c", "d", "e"], rows)
