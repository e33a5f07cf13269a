"""The CSV writer and reader against their per-value references.

The writer formats long tables with array arithmetic; on every table, of
either layout and on both sides of the crossover to that path, it must
give exactly the bytes of the per-row ``row_format % row``.

A table whose body holds only numbers, commas and newlines is read in one
pass; a blank line before the header sends the same table line by line.
The two reads must give bit-identical arrays or the same ValueError (its
line number shifted by the blank line).
"""

import re
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from noonsim.spectral import _ARRAY_CSV_ROWS, _CSV_BLOCK_ROWS, _g12_mantissas, _read_csv, _write_csv

# (header, column types) as Spectrum.from_csv and ScanResult.from_csv read them.
TABLES = (
    ("wavelength_nm,density", (float, float)),
    ("param,expected,counts,sigma", (float, float, int)),
)

FLOAT_CELLS = st.one_of(st.floats().map("%.12g".__mod__), st.floats().map(repr))
COUNT_CELLS = st.integers(0, 2**63 - 1).map(str)
ODD_CELLS = ("nan", "-inf", "1_0", "1e3", " 2.5", "2.5 ", "", "-0", "+.5", "1.", "1e", "-", str(2**63), "-1", "3.0")


@st.composite
def tables(draw):
    header, types = draw(st.sampled_from(TABLES))
    names = header.split(",") + [f"extra{k}" for k in range(draw(st.integers(0, 2)))]
    columns = [COUNT_CELLS if t is int else FLOAT_CELLS for t in types]
    columns += [FLOAT_CELLS] * (len(names) - len(types))
    rows = [[draw(c) for c in columns] for _ in range(draw(st.integers(0, 6)))]
    for edit in draw(st.lists(st.sampled_from(("odd", "short", "long", "blank")), max_size=2)) if rows else ():
        row = draw(st.sampled_from([row for row in rows if row] or [[]]))
        if edit == "blank" or not row:
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif edit == "odd":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif edit == "short":
            del row[draw(st.integers(0, len(row) - 1)) :]
        else:
            row.append(draw(FLOAT_CELLS))
    newline = draw(st.sampled_from(("\n", "\n", "\r\n")))
    text = newline.join([",".join(names), *(",".join(row) for row in rows)])
    return text + (newline if draw(st.booleans()) else ""), header, types


def read(text, header, types):
    try:
        return _read_csv(text, header, types)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(tables())
# A form feed ends a line for str.splitlines but not for the one-pass read.
@example(("param,expected,counts,sigma\f1,2,3,4\n5,6,7,8,9,10,11\n", *TABLES[1]))
def test_one_pass_and_line_by_line_reads_agree(table):
    text, header, types = table
    once, by_line = read(text, header, types), read("\n" + text, header, types)
    if isinstance(once, str):
        assert by_line == re.sub(r"^line (\d+)", lambda m: f"line {int(m[1]) + 1}", once)
        return
    assert not isinstance(by_line, str), by_line
    for got, want, t in zip(once, by_line, types):
        assert got.dtype == want.dtype == np.dtype(t)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_clean_tables_take_the_one_pass_read(monkeypatch):
    # The equivalence above says nothing unless the one-pass read runs: it
    # parses each column in one call, the line-by-line read each cell.
    calls = []
    array = np.array
    monkeypatch.setattr(np, "array", lambda *args, **kwargs: calls.append(args) or array(*args, **kwargs))
    clean = "param,expected,counts,sigma\n0.5,1e-300,9223372036854775807,3\n-0,2.5E+12,0,1\n"
    for text, per_cell in ((clean, False), (clean[:-1], False), (clean.replace("\n", "\r\n"), True)):
        calls.clear()
        _read_csv(text, *TABLES[1])
        assert len(calls) == (9 if per_cell else 3), text


# (header, row format) as Spectrum.to_csv and ScanResult.to_csv write them.
LAYOUTS = (
    ("wavelength_nm,density", "%.12g,%.12g\n"),
    ("param,expected,counts,sigma", "%.12g,%.12g,%d,%.12g\n"),
)
# Below the crossover, at it, and past one block of array formatting.
ROW_COUNTS = (1, _ARRAY_CSV_ROWS - 1, _ARRAY_CSV_ROWS, _CSV_BLOCK_ROWS + 7)


def layout_columns(layout, floats, counts, rows):
    """Columns of ``rows`` rows for ``layout``, cycling through ``floats`` and ``counts``."""
    specs = layout[1][:-1].split(",")
    values = {"%.12g": np.array(floats, dtype=float), "%d": np.array(counts, dtype=np.int64)}
    return [np.resize(np.roll(values[spec], k), rows) for k, spec in enumerate(specs)]


def per_row(header, row_format, columns):
    return f"{header}\n" + "".join(row_format % row for row in zip(*(column.tolist() for column in columns)))


def assert_writes_per_row(layout, columns):
    got, want = _write_csv(*layout, *columns), per_row(*layout, columns)
    if got != want:  # name the first differing line; a diff of whole tables is slow
        lines = zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
        number, (got_line, want_line) = next((n, pair) for n, pair in enumerate(lines, 1) if pair[0] != pair[1])
        pytest.fail(f"{len(columns[0])} rows, line {number}: wrote {got_line!r}, per row {want_line!r}")


# x = (M + 1/2 + delta) * 10**(X - 11): the twelfth digit's rounding is within 4e-4 of a tie.
NEAR_TIES = np.array(
    [
        (m + 0.5 + delta) * 10.0 ** (x - 11)
        for x in range(-30, 31)
        for m in (100000000000, 123456789012, 999999999999)
        for delta in (0.0, 1e-4, -1e-4, 4e-4, -4e-4)
    ]
)
POWERS = 10.0 ** np.arange(-30, 31)
# Values whose twelve-digit rounding carries into the next exponent.
CARRIES = (1e12 - 0.4) * POWERS / 1e11
# Near-ties, carries, and 10**X with its neighbours, where log10 can be one off.
EDGES = (NEAR_TIES, CARRIES, np.concatenate((POWERS, np.nextafter(POWERS, 0), np.nextafter(POWERS, np.inf))))
ALL_EDGES = np.concatenate((*EDGES, *(-edges for edges in EDGES))).tolist()


# No shrinking: a table of thousands of rows makes each step slow, and an
# unshrunk failure still names its layout, values and row count.
@settings(max_examples=80, deadline=None, database=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
@given(
    st.sampled_from(LAYOUTS),
    st.lists(st.one_of(st.floats(), *(st.sampled_from(edges.tolist()) for edges in EDGES)), min_size=1, max_size=40),
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8),
    st.sampled_from(ROW_COUNTS),
)
@example(LAYOUTS[0], ALL_EDGES, [0], _CSV_BLOCK_ROWS + 7)
@example(LAYOUTS[1], ALL_EDGES, [0, 7, 10, 99], _CSV_BLOCK_ROWS + 7)
def test_writer_matches_per_row_format(layout, floats, counts, rows):
    assert_writes_per_row(layout, layout_columns(layout, floats, counts, rows))


def test_near_ties_take_the_fallback_and_carries_do_not():
    # The carries must be written by the array path's carry, not by %.
    assert not _g12_mantissas(NEAR_TIES)[2].any()
    assert _g12_mantissas(CARRIES)[2].all()


def test_other_row_formats_match_per_row_format():
    floats, counts = np.linspace(-3.0, 3.0, _ARRAY_CSV_ROWS + 1), np.arange(_ARRAY_CSV_ROWS + 1)
    for row_format in ("%.11g,%d\n", "%.12g;%d\n", "%.12g,%d,", "%.12g,%x\n"):
        assert_writes_per_row(("a,b", row_format), [floats, counts])
