"""CSV ingest: the one-pass column parse against the cell-by-cell oracle,
byte-order marks and ambiguous column names."""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _oracles import cell_by_cell_ingest
from epcovar import cli, engine
from epcovar.engine import ingest_csv
from epcovar.errors import DataError

HEADER = ("date", " A", "B ", "C")
PADDING = st.text(alphabet=" \t\x1c\xa0\u3000", max_size=2)


@st.composite
def _mixed_case(draw, word):
    flips = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(c.upper() if f else c for c, f in zip(word, flips))


NUMBERS = st.one_of(
    st.floats(allow_nan=False, width=64).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["inf", "-Infinity", "-nan", "NaN", "+nan", "1_000", "+1e3", ".5", "-0.0"]),
)
MISSING = st.sampled_from(["", "nan", "na", "null", "none"]).flatmap(_mixed_case)
UNPARSEABLE = st.sampled_from(["oops", "1e", "--1", "0x10", "1,5", "2021-01-02", "1__0", '"'])


@st.composite
def _cell(draw, kinds):
    text = draw(PADDING) + draw(kinds) + draw(PADDING)
    if draw(st.booleans()):
        text = '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_text(draw):
    """A CSV over ``HEADER``: all-numeric (the one-pass parse) or mixed with
    missing tokens, unparseable cells, blank lines and short rows."""
    clean = draw(st.booleans())
    kinds = NUMBERS if clean else st.one_of(NUMBERS, NUMBERS, MISSING, UNPARSEABLE)
    width = st.just(len(HEADER)) if clean else st.integers(0, len(HEADER) + 1)
    lines = [",".join(HEADER)]
    for _ in range(draw(st.integers(0, 12))):
        if not clean and draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t", " , ,"])))
            continue
        n = draw(width)
        lines.append(",".join(draw(_cell(kinds)) for _ in range(n)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


SELECTIONS = st.one_of(
    st.none(),
    st.lists(st.sampled_from(["A", "B", "C", "date", "Z"]), min_size=1, max_size=3),
)


def _outcome(read, source, columns, min_rows):
    try:
        res = read(source, columns, min_rows=min_rows)
    except DataError as exc:
        return "error", str(exc)
    series = {name: (a.dtype.str, a.tobytes()) for name, a in res.series.items()}
    return res.n_rows, res.n_dropped, list(res.series), series


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "data.csv"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_text(), columns=SELECTIONS, min_rows=st.sampled_from([None, 1, 4]))
@example(text="A,B\n1,2\n\n   \n3,NULL\n5,6\n", columns=["A", "B"], min_rows=None)
@example(text="A,B\n0.1,0.2\n\n oops ,0.3\n", columns=["B", "A"], min_rows=None)
@example(text="A,B\nNA,2\n3,4\n", columns=["A", "B"], min_rows=None)
@example(text="A,B\n1,2\n3,NA\n\n", columns=["A", "B"], min_rows=None)
@example(text="date\n2021-01-01\n\n2021-01-02\n", columns=None, min_rows=None)
def test_matches_cell_by_cell_oracle(csv_path, text, columns, min_rows):
    csv_path.write_text(text, encoding="utf-8", newline="")
    for source in (lambda: io.StringIO(text, newline=""), lambda: str(csv_path)):
        expected = _outcome(cell_by_cell_ingest, source(), columns, min_rows)
        assert _outcome(ingest_csv, source(), columns, min_rows) == expected


def test_numeric_file_skips_the_cell_by_cell_parse(monkeypatch):
    def refuse(*args):
        raise AssertionError("cell-by-cell parse on an all-numeric file")

    monkeypatch.setattr(engine, "_parse_column", refuse)
    res = ingest_csv(io.StringIO("d,A,B\nx, 1.5 ,-2e-3\ny,inf,1_000\nz,nan,0\n"), ["A", "B"])
    assert (res.n_rows, res.n_dropped) == (2, 1)
    np.testing.assert_array_equal(res.series["A"], [1.5, np.inf])
    np.testing.assert_array_equal(res.series["B"], [-2e-3, 1000.0])


def test_one_missing_column_leaves_the_others_on_the_one_pass_parse(monkeypatch):
    read = []
    parse_column = engine._parse_column
    monkeypatch.setattr(engine, "_parse_column", lambda body, j, name: read.append(name)
                        or parse_column(body, j, name))
    res = ingest_csv(io.StringIO("A,B,C\n1,2,3\n4,NA,6\n7,8,9\n"), ["A", "B", "C"])
    assert read == ["B"]
    assert (res.n_rows, res.n_dropped) == (2, 1)
    np.testing.assert_array_equal(res.series["C"], [3.0, 9.0])


TEXTS = ["\ufeffSVB,NBI\n0.1,0.2\n0.3,0.4\n", '\ufeff"SVB","NBI"\r\n0.1,0.2\r\n0.3,0.4\r\n']


@pytest.mark.parametrize("text", TEXTS, ids=["bare", "quoted"])
class TestByteOrderMark:
    def test_path_source(self, tmp_path, text):
        path = tmp_path / "excel.csv"
        path.write_bytes(text.encode("utf-8"))
        assert path.read_bytes()[:3] == b"\xef\xbb\xbf"
        res = ingest_csv(path, ["SVB", "NBI"])
        assert res.n_rows == 2
        np.testing.assert_array_equal(res.series["SVB"], [0.1, 0.3])

    def test_file_like_source(self, text):
        res = ingest_csv(io.StringIO(text, newline=""), ["SVB", "NBI"])
        np.testing.assert_array_equal(res.series["SVB"], [0.1, 0.3])
        np.testing.assert_array_equal(res.series["NBI"], [0.2, 0.4])

    def test_auto_detected_column_names(self, text):
        assert list(ingest_csv(io.StringIO(text, newline="")).series) == ["SVB", "NBI"]


def test_mark_only_at_the_start_of_the_file_is_removed():
    with pytest.raises(DataError, match=r"unparseable cell '\\ufeff0.3'"):
        ingest_csv(io.StringIO("SVB,NBI\n0.1,0.2\n\ufeff0.3,0.4\n"), ["SVB", "NBI"])


class TestColumnSelection:
    def test_column_named_twice_in_header_is_ambiguous(self):
        buf = io.StringIO("date,SVB,NBI,SVB\n1,0.1,0.2,0.5\n2,0.3,0.4,0.6\n")
        with pytest.raises(DataError, match=r"\['SVB'\] appear more than once"):
            ingest_csv(buf, ["SVB", "NBI"])

    def test_duplicated_unselected_column_is_fine(self):
        buf = io.StringIO("date,SVB,NBI,date\n1,0.1,0.2,x\n2,0.3,0.4,y\n")
        res = ingest_csv(buf, ["SVB", "NBI"])
        assert res.n_rows == 2

    def test_empty_selection_is_rejected(self):
        with pytest.raises(DataError, match=r"no columns selected; available columns: \['date'"):
            ingest_csv(io.StringIO("date,note\n2021-01-01,x\n"), [])

    def test_auto_detection_without_numeric_columns_returns_no_series(self):
        res = ingest_csv(io.StringIO("date,note\n2021-01-01,x\n\n2021-01-02,y\n"))
        assert res.series == {}

    def test_auto_detection_reads_a_repeated_name_from_its_first_copy(self):
        res = ingest_csv(io.StringIO("A,B,A\n1,2,3\n4,5,6\n"))
        assert list(res.series) == ["A", "B"]
        np.testing.assert_array_equal(res.series["A"], [1.0, 4.0])


class TestMalformedCsv:
    # a quoted cell longer than the csv module's field size limit (131,072)
    TEXT = 'SVB,NBI\n0.1,0.2\n"' + "x" * 200_000 + '",0.4\n'

    def test_field_over_the_size_limit_is_a_data_error(self):
        with pytest.raises(DataError, match=r"malformed CSV at line 3: field larger"):
            ingest_csv(io.StringIO(self.TEXT), ["SVB", "NBI"])

    def test_cli_exits_with_the_data_error_code(self, tmp_path, capsys):
        path = tmp_path / "losses.csv"
        path.write_text(self.TEXT, encoding="utf-8")
        assert cli.main(["--data", str(path), "--x", "SVB", "--y", "NBI"]) == 3
        assert "data error: ingest: malformed CSV at line 3" in capsys.readouterr().err
