import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import yulesimon as ys
from yulesimon import DataFormatError
from yulesimon import data


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestIngestPrices:
    def test_two_rows(self, tmp_path):
        path = write(
            tmp_path, "p.csv", "date,adj_close\n2014-10-01,100.0\n2014-10-02,101.0\n"
        )
        series = ys.ingest_prices(path)
        assert len(series) == 2
        assert series.prices[1] == 101.0

    def test_unsorted_rows_name_the_line(self, tmp_path):
        path = write(
            tmp_path,
            "p.csv",
            "date,adj_close\n2014-10-02,100.0\n2014-10-01,101.0\n",
        )
        with pytest.raises(DataFormatError, match="line 3"):
            ys.ingest_prices(path)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "p.csv", "day,close\n2014-10-01,100.0\n")
        with pytest.raises(DataFormatError, match="line 1"):
            ys.ingest_prices(path)

    def test_nonpositive_price(self, tmp_path):
        path = write(tmp_path, "p.csv", "date,adj_close\n2014-10-01,-3.0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            ys.ingest_prices(path)

    def test_year_of_prices_gives_365_returns(self, tmp_path):
        from datetime import date, timedelta

        start = date(2014, 10, 1)
        rows = ["date,adj_close"]
        rng = np.random.Generator(np.random.PCG64(5))
        price = 100.0
        for i in range(366):
            rows.append(f"{start + timedelta(days=i)},{price:.6f}")
            price *= 1.0 + 0.01 * rng.standard_normal()
        path = write(tmp_path, "year.csv", "\n".join(rows) + "\n")
        returns = ys.to_returns(ys.ingest_prices(path))
        assert len(returns) == 365


class TestToReturns:
    @pytest.mark.parametrize(
        "prices,expected",
        [((100.0, 101.0), 1.0), ((100.0, 98.0), 2.0), ((100.0, 100.0), 0.0)],
    )
    def test_formula(self, prices, expected):
        from datetime import date

        series = ys.PriceSeries(
            (date(2020, 1, 1), date(2020, 1, 2)), np.array(prices)
        )
        assert ys.to_returns(series).values[0] == pytest.approx(expected, abs=1e-12)

    def test_needs_two_prices(self):
        from datetime import date

        series = ys.PriceSeries((date(2020, 1, 1),), np.array([100.0]))
        with pytest.raises(ValueError):
            ys.to_returns(series)


class TestDiscretizeReturns:
    def test_distinct_truncations_form_two_groups(self):
        sample = ys.discretize_returns(ys.ReturnSeries(np.array([1.2494, 1.2573])))
        assert sample.entries == ((1, 2),)  # two groups of size 1
        assert sample.n == 2

    def test_equal_truncations_form_one_group(self):
        sample = ys.discretize_returns(ys.ReturnSeries(np.array([0.10, 0.10, 0.10])))
        assert sample.entries == ((3, 1),)

    def test_decimals_flag_changes_grouping(self):
        returns = ys.ReturnSeries(np.array([1.2494, 1.2573]))
        sample = ys.discretize_returns(returns, decimals=1)
        assert sample.entries == ((2, 1),)  # both truncate to 1.2

    def test_partition_property(self):
        rng = np.random.Generator(np.random.PCG64(8))
        returns = ys.ReturnSeries(np.abs(rng.standard_normal(500)) * 2.0)
        sample = ys.discretize_returns(returns)
        assert sum(k * mult for k, mult in sample.entries) == 500


class TestCountTables:
    def test_hits_mode(self, tmp_path):
        path = write(tmp_path, "t.csv", "k,count\n1,119\n2,57\n")
        sample = ys.load_count_table(path, mode="hits")
        assert sample.entries == ((1, 119), (2, 57))
        assert sample.n == 176

    def test_surnames_mode(self, tmp_path):
        path = write(tmp_path, "s.csv", "label,frequency\nSmith,2502021\nJohnson,2014550\n")
        sample = ys.load_count_table(path, mode="surnames")
        assert (2502021, 1) in sample.entries
        assert sample.n == 2

    def test_surnames_equal_frequencies_accumulate(self, tmp_path):
        path = write(
            tmp_path, "s.csv", "label,frequency\nJones,1544488\nBrown,1544488\n"
        )
        sample = ys.load_count_table(path, mode="surnames")
        assert sample.entries == ((1544488, 2),)

    def test_bad_rows_name_lines(self, tmp_path):
        path = write(tmp_path, "t.csv", "k,count\n1,abc\n")
        with pytest.raises(DataFormatError, match="line 2"):
            ys.load_count_table(path, mode="hits")
        path = write(tmp_path, "t2.csv", "k,count\n0,4\n")
        with pytest.raises(DataFormatError, match="line 2"):
            ys.load_count_table(path, mode="hits")

    def test_round_trip(self, tmp_path, hits):
        path = tmp_path / "rt.csv"
        ys.write_sample_csv(hits, str(path))
        assert ys.load_count_table(str(path), mode="hits") == hits


class TestEmbeddedHits:
    def test_table_shape(self):
        table = ys.music_hits_by_artist()
        assert len(table.entries) == 16
        assert table.entries[0] == (1, 119)
        assert table.entries[-1] == (16, 1)

    def test_by_artist_totals(self):
        sample = ys.music_hits_by_artist()
        assert sample.n == 248  # total artists
        assert sample.entries[0] == (1, 119)

    def test_frequency_reading(self, hits):
        assert hits.n == 16
        assert hits.entries == (
            (1, 7),
            (2, 2),
            (4, 2),
            (10, 1),
            (13, 1),
            (30, 1),
            (57, 1),
            (119, 1),
        )


def _reference_load_count_table(path, mode):
    """The row-by-row loader that the numpy loader replaced: a csv.reader
    loop with int() on every row.  It accepts `1_000`-style and past-int64
    integers, which the package loader refuses."""
    import csv
    from collections import Counter

    counter = Counter()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise DataFormatError("expected a two-column header row", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise DataFormatError("expected two columns", line=lineno)
            try:
                second = int(row[1])
            except ValueError:
                raise DataFormatError(f"bad integer {row[1]!r}", line=lineno) from None
            if second < 1:
                raise DataFormatError(f"counts must be >= 1, got {second}", line=lineno)
            if mode == "hits":
                try:
                    k = int(row[0])
                except ValueError:
                    raise DataFormatError(f"bad integer {row[0]!r}", line=lineno) from None
                if k < 1:
                    raise DataFormatError(f"values must be >= 1, got {k}", line=lineno)
                if k in counter:
                    raise DataFormatError(f"duplicate value {k}", line=lineno)
                counter[k] = second
            else:
                counter[second] += 1
    if not counter:
        raise DataFormatError("no data rows found")
    return ys.FrequencySample(tuple(sorted(counter.items())))


def _row_loop_not_taken(path, mode):
    raise AssertionError("the table went to the row loop")


def _csv_field(text, quoted):
    return '"' + text.replace('"', '""') + '"' if quoted else text


@st.composite
def count_tables(draw):
    """A valid count-table file in either mode, written with the liberties
    the format allows: quoted fields (labels holding commas, quotes and
    newlines), whitespace around integers, extra columns, blank lines, and
    LF or CRLF line endings.  Labels and extra columns may hold non-ASCII
    characters, Unicode spaces and line separators among them."""
    mode = draw(st.sampled_from(["hits", "surnames"]))
    n_rows = draw(st.integers(1, 40))
    ints = st.integers(1, 2**62)
    if mode == "hits":
        firsts = [str(k) for k in draw(st.lists(ints, min_size=n_rows, max_size=n_rows, unique=True))]
    else:
        label = st.text(st.sampled_from('ab ,"\nZüé€😀\u00a0\u2028'), min_size=0, max_size=6)
        firsts = draw(st.lists(label, min_size=n_rows, max_size=n_rows))
    seconds = draw(st.lists(st.integers(1, 50), min_size=n_rows, max_size=n_rows))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["label,frequency" if mode == "surnames" else "k,count"]
    for first, second in zip(firsts, seconds):
        needs_quotes = any(c in first for c in ',"\n') or first.strip() != first
        pad, trail = draw(st.sampled_from(["", " ", "\t", "  "])), draw(st.sampled_from(["", " ", "\t"]))
        fields = [
            _csv_field(first, needs_quotes or draw(st.booleans())),
            _csv_field(f"{pad}{second}{trail}", draw(st.booleans())),
        ]
        extra = st.sampled_from(["x", "", "7", '"a,b"', "ñ", '"é,\n"'])
        fields += draw(st.lists(extra, max_size=2))
        lines.append(",".join(fields))
        lines.extend([""] * draw(st.integers(0, 1)))
    return mode, newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestCountTableLoader:
    """The numpy loader against the row-by-row reference it replaced."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(count_tables())
    def test_matches_reference_loader(self, tmp_path, table):
        mode, text = table
        path = tmp_path / "table.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _reference_load_count_table(str(path), mode)
        # numpy, not the row loop, must read every valid table, ASCII or not
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_load_table_rows", _row_loop_not_taken)
            assert ys.load_count_table(str(path), mode=mode) == expected

    def test_non_ascii_bytes_in_an_integer_field_name_the_line(self, tmp_path):
        for field in ("1é", "\u00a012", "7\u2028"):
            path = write(tmp_path, "t.csv", f"label,frequency\nÅsa,3\nB,{field}\n")
            with pytest.raises(DataFormatError) as refused:
                ys.load_count_table(path, mode="surnames")
            assert str(refused.value) == f"line 3: bad integer {field!r}"

    def test_invalid_utf8_is_refused_as_by_the_reference(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"label,frequency\nA,3\nB\xff,4\n")
        with pytest.raises(UnicodeDecodeError):
            _reference_load_count_table(str(path), "surnames")
        with pytest.raises(UnicodeDecodeError):
            ys.load_count_table(str(path), mode="surnames")

    @pytest.mark.parametrize(
        "mode, text, line",
        [
            ("hits", "k,count\n1,abc\n", 2),
            ("surnames", "label,frequency\nA,3\nB,0\n", 3),
            ("hits", "k,count\n1,3\n2,4\n1,5\n", 4),
            ("surnames", "label,frequency\nA,3\nB\n", 3),
            ("surnames", "label,frequency\nA,3\n   \nB,4\n", 3),
            ("surnames", "label,frequency\n", None),
            ("surnames", "label,frequency\n\n\r\n", None),
            ("hits", "", 1),
            ("hits", "k\n1,2\n", 1),
            ("surnames", 'label,frequency\n"A\nB",x\n', 2),
        ],
        ids=[
            "bad-integer", "zero-count", "duplicate-k", "short-row",
            "whitespace-line", "header-only", "blank-lines-only", "empty-file",
            "one-column-header", "bad-integer-after-quoted-newline",
        ],
    )
    def test_refusals_name_the_reference_line(self, tmp_path, mode, text, line):
        path = write(tmp_path, "bad.csv", text)
        with pytest.raises(DataFormatError) as reference:
            _reference_load_count_table(path, mode)
        with pytest.raises(DataFormatError) as refused:
            ys.load_count_table(path, mode=mode)
        assert refused.value.line == reference.value.line == line
        assert str(refused.value) == str(reference.value)

    def test_bad_integer_deep_in_a_large_file(self, tmp_path):
        rows = [f"S{i},{i % 97 + 1}" for i in range(100_000)]
        rows[50_000] = "S50000,12x"  # line 50,002: the header is line 1
        path = write(tmp_path, "big.csv", "label,frequency\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError) as reference:
            _reference_load_count_table(path, "surnames")
        with pytest.raises(DataFormatError, match="line 50002: bad integer '12x'") as refused:
            ys.load_count_table(path, mode="surnames")
        assert refused.value.line == reference.value.line == 50_002

    @pytest.mark.parametrize(
        "field", ["9223372036854775808", "1_000", "١٢"]
    )
    def test_narrowed_integers_are_refused(self, tmp_path, field):
        # The reference's int() takes these; numpy's int64 reader does not.
        path = write(tmp_path, "t.csv", f"label,frequency\nA,3\nB,{field}\n")
        _reference_load_count_table(path, "surnames")
        with pytest.raises(DataFormatError, match=f"line 3: bad integer {field!r}"):
            ys.load_count_table(path, mode="surnames")

    def test_largest_int64_is_accepted(self, tmp_path):
        path = write(tmp_path, "t.csv", f"k,count\n{2**63 - 1},2\n")
        assert ys.load_count_table(path, mode="hits").entries == ((2**63 - 1, 2),)

    def test_cr_line_endings_and_quoted_header(self, tmp_path):
        # Both are read by the row loop; the result is the reference's.
        for text in ("k,count\r1,3\r2,4\r", '"k\nx",count\n1,3\n2,4\n'):
            path = write(tmp_path, "t.csv", text)
            expected = _reference_load_count_table(path, "hits")
            assert ys.load_count_table(path, mode="hits") == expected
