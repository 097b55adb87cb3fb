"""Dataset ingestion and transformation for the three applications, plus
the embedded music-hits dataset.

File formats (all UTF-8 CSV with a header row):

* prices: ``date,adj_close`` with ISO-8601 dates, strictly increasing.
* hits-mode count table: ``k,count`` (the value k appears count times).
* surnames-mode count table: ``label,frequency`` (each row's frequency is
  one observation).
* frequency sample export: ``k,count`` (round-trips through hits mode).

Count tables follow RFC 4180: fields may be quoted with ``"`` (a quoted
field may hold commas, newlines and doubled quotes), blank lines are
skipped, ``#`` has no special meaning, and columns past the second are
ignored.  Their integers are ASCII digits with an optional sign and
surrounding whitespace, within int64; ``1_000``-style, non-ASCII-digit and
past-int64 integers are refused.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from dataclasses import dataclass
from datetime import date

import numpy as np

from .distribution import FrequencySample
from .errors import DataFormatError

__all__ = [
    "PriceSeries",
    "ReturnSeries",
    "ingest_prices",
    "to_returns",
    "discretize_returns",
    "load_count_table",
    "write_sample_csv",
    "music_hits_frequencies",
    "music_hits_by_artist",
]

# Number-one Billboard hits per artist, 1955-2003: (hits, number of artists).
_MUSIC_HITS = (
    (1, 119),
    (2, 57),
    (3, 30),
    (4, 13),
    (5, 10),
    (6, 4),
    (7, 1),
    (8, 1),
    (9, 4),
    (10, 2),
    (11, 1),
    (12, 2),
    (13, 1),
    (14, 1),
    (15, 1),
    (16, 1),
)


@dataclass(frozen=True)
class PriceSeries:
    """Adjusted closing prices on strictly increasing dates."""

    dates: tuple[date, ...]
    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=np.float64)
        if len(self.dates) != len(prices):
            raise ValueError("dates and prices must have equal length")
        if np.any(prices <= 0.0):
            raise ValueError("prices must be positive")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise ValueError(f"dates must be strictly increasing ({prev} -> {cur})")
        object.__setattr__(self, "prices", prices)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class ReturnSeries:
    """Absolute daily increments in percent: |r_t / r_{t-1} - 1| * 100."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if np.any(values < 0.0):
            raise ValueError("return magnitudes must be nonnegative")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


def ingest_prices(path: str) -> PriceSeries:
    """Parse a ``date,adj_close`` CSV; out-of-order rows are an error, not
    silently sorted."""
    dates: list[date] = []
    prices: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["date", "adj_close"]:
            raise DataFormatError("expected header 'date,adj_close'", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise DataFormatError("expected two columns 'date,adj_close'", line=lineno)
            try:
                day = date.fromisoformat(row[0].strip())
            except ValueError:
                raise DataFormatError(f"bad ISO date {row[0]!r}", line=lineno) from None
            try:
                price = float(row[1])
            except ValueError:
                raise DataFormatError(f"bad price {row[1]!r}", line=lineno) from None
            if not math.isfinite(price) or price <= 0.0:
                raise DataFormatError(f"price must be positive, got {row[1]}", line=lineno)
            if dates and day <= dates[-1]:
                raise DataFormatError(
                    f"dates must be strictly increasing ({dates[-1]} -> {day})",
                    line=lineno,
                )
            dates.append(day)
            prices.append(price)
    if not dates:
        raise DataFormatError("no data rows found")
    return PriceSeries(tuple(dates), np.array(prices))


def to_returns(prices: PriceSeries) -> ReturnSeries:
    """z_t = |r_t / r_{t-1} - 1| * 100, preserving order; length n-1."""
    if len(prices) < 2:
        raise DataFormatError("need at least two prices to form returns")
    r = prices.prices
    return ReturnSeries(np.abs(r[1:] / r[:-1] - 1.0) * 100.0)


def discretize_returns(returns: ReturnSeries, decimals: int = 2) -> FrequencySample:
    """Frequencies of equal truncated returns, as a Yule-Simon sample.

    Each z is truncated toward zero at ``decimals`` digits (computed in
    integer units of 10^-decimals); returns sharing a truncated value form
    one group, and the multiset of group sizes is the observation sample.
    The group sizes partition the input: sum over the sample of
    k * multiplicity equals the number of returns.
    """
    if len(returns) == 0:
        raise ValueError("cannot discretize an empty return series")
    if decimals < 0:
        raise ValueError(f"decimals must be >= 0, got {decimals}")
    scale = 10**decimals
    units = np.floor(returns.values * scale).astype(np.int64)
    group_sizes = Counter(units.tolist()).values()
    size_multiplicity = Counter(group_sizes)
    entries = tuple(sorted(size_multiplicity.items()))
    return FrequencySample(entries)


def load_count_table(path: str, mode: str = "hits") -> FrequencySample:
    """Read a count-table CSV into a FrequencySample.

    ``mode="hits"``: rows are ``k,count`` (value k observed count times).
    ``mode="surnames"``: rows are ``label,frequency`` and each row's
    frequency is one observation; equal frequencies accumulate
    multiplicity.

    The header row must have at least two fields.  Data rows follow RFC
    4180 quoting; blank lines are skipped; ``#`` is not a comment; columns
    past the second are ignored.  Integers are ASCII digits with an
    optional sign and surrounding whitespace, and must fit in int64, so
    ``1_000``-style and past-int64 integers are refused.  A refused row
    raises DataFormatError naming its line (the record's ordinal, counting
    the header as line 1).

    A UTF-8 file is parsed by numpy in one pass and checked with array
    operations; a file that numpy or a check refuses, or that is not
    UTF-8, is read row by row, which finds the offending line.
    """
    if mode not in ("hits", "surnames"):
        raise ValueError(f"mode must be 'hits' or 'surnames', got {mode!r}")
    with open(path, "rb") as fh:
        raw = fh.read()
    sample = _load_table_numpy(path, raw, mode)
    return sample if sample is not None else _load_table_rows(path, mode)


_LINE_END = re.compile(rb"[\r\n]")
_NOT_LINE_END = re.compile(rb"[^\r\n]")
# Every byte >= 0x80 becomes an "x": no integer field accepts it, and it is
# none of the bytes that shape a CSV file (comma, quote, CR, LF).
_ASCII_STAND_INS = bytes(range(128)) + b"x" * 128


def _load_table_numpy(path: str, raw: bytes, mode: str) -> FrequencySample | None:
    """The table from one ``np.loadtxt`` pass, or None if numpy or a check
    refuses it.  The header is read here only when it is one unquoted
    line, and the file must hold a non-blank line after it.

    A non-ASCII file must decode as UTF-8 (the row loop refuses it
    otherwise); numpy then reads it with each byte >= 0x80 replaced by an
    ASCII letter.  Labels keep their place, so the table is the same, and
    a non-ASCII byte in an integer field fails numpy's parse, so the row
    loop names its line, as for any refused field."""
    source = path
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return None
        raw = raw.translate(_ASCII_STAND_INS)
        source = io.BytesIO(raw)
    end = _LINE_END.search(raw)
    if end is None or not _NOT_LINE_END.search(raw, end.end()):
        return None
    header = raw[: end.start()]
    if b'"' in header or b"," not in header:
        return None
    try:
        table = np.loadtxt(
            source,
            delimiter=",",
            quotechar='"',
            comments=None,
            dtype=np.int64,
            skiprows=1,
            usecols=(0, 1) if mode == "hits" else 1,
            ndmin=2 if mode == "hits" else 1,
            encoding="utf-8",
        )
    except ValueError:
        return None
    if table.min() < 1:
        return None
    if mode == "surnames":
        values, multiplicities = np.unique(table, return_counts=True)
    else:
        values, first = np.unique(table[:, 0], return_index=True)
        if len(values) < len(table):
            return None  # a duplicate k
        multiplicities = table[first, 1]
    return FrequencySample(tuple(zip(values.tolist(), multiplicities.tolist())))


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _parse_int(text: str) -> int:
    """``int(text)`` narrowed to what numpy's int64 reader accepts: ASCII
    only, no ``_`` separators, within int64.  ValueError otherwise."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII integer: {text!r}")
    value = int(text)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ValueError(f"outside int64: {text!r}")
    return value


def _load_table_rows(path: str, mode: str) -> FrequencySample:
    """load_count_table one row at a time: slow, but names the line of the
    first refused row."""
    counter: Counter[int] = Counter()
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
                second = _parse_int(row[1])
            except ValueError:
                raise DataFormatError(f"bad integer {row[1]!r}", line=lineno) from None
            if second < 1:
                raise DataFormatError(f"counts must be >= 1, got {second}", line=lineno)
            if mode == "hits":
                try:
                    k = _parse_int(row[0])
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
    return FrequencySample(tuple(sorted(counter.items())))


def write_sample_csv(sample: FrequencySample, path: str) -> None:
    """Write ``k,count`` rows; re-loadable with load_count_table('hits')."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "count"])
        for k, count in sample.entries:
            writer.writerow([k, count])


def music_hits_frequencies() -> FrequencySample:
    """The embedded ``hits`` dataset: the table's frequency column as the
    observations (n = 16), the reading under which the published posterior
    summaries for these data are reproduced."""
    counter = Counter(n for _, n in _MUSIC_HITS)
    return FrequencySample(tuple(sorted(counter.items())))


def music_hits_by_artist() -> FrequencySample:
    """One observation per artist (n = 248): k = that artist's hit count."""
    return FrequencySample(_MUSIC_HITS)
