"""The CSV writer and reader against their per-value references.

The writer formats long tables with array arithmetic; on every table, of
either layout, on both sides of the crossover to that path and with counts
on both sides of 10**12, it must give exactly the bytes of the per-row
``row_format % row``, holding no more than one block's scratch besides
its output.

The reader parses a table with one ``np.loadtxt`` call.  Every read must
give the arrays of per-cell ``float()`` and ``int()`` bit for bit, or name
the first line they reject; cells with ``_`` or non-ASCII digits, which
those accept, count as rejected.
"""

import tracemalloc
import warnings
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from noonsim import Spectrum, noon_fringe
from noonsim.spectral import _ARRAY_CSV_ROWS, _CSV_BLOCK_CELLS, _g12_mantissas, _read_csv, _write_csv

# (header, column types) as Spectrum.from_csv and ScanResult.from_csv read them.
TABLES = (
    ("wavelength_nm,density", (float, float)),
    ("param,expected,counts,sigma", (float, float, int)),
)

FLOAT_CELLS = st.one_of(st.floats().map("%.12g".__mod__), st.floats().map(repr))
COUNT_CELLS = st.integers(0, 2**63 - 1).map(str)
ODD_CELLS = ("nan", "-inf", "1_0", "1e3", " 2.5", "2.5 ", "", "-0", "+.5", "1.", "1e", "-", str(2**63), "-1", "3.0")
# Arabic-Indic digits, and a digit after a non-ASCII space, which float() and numpy both strip.
ODD_CELLS += ("\u0661", "\u0663.5", "\u20037")


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


def reference_cell(cell, t):
    """``t(cell)``, rejecting what ``_read_csv`` does not read: ``_``, non-ASCII digits, ints past int64."""
    if "_" in cell or not cell.strip().isascii():
        raise ValueError(cell)
    value = t(cell)
    if t is int and not -(2**63) <= value < 2**63:
        raise ValueError(cell)
    return value


def reference_read(text, header, types):
    """``_read_csv``'s result by per-cell ``float()``/``int()``, or its error message."""
    numbered = [(number, line) for number, line in enumerate(text.splitlines(), 1) if line.strip()]
    names = header.split(",")[: len(types)]
    if not numbered or numbered[0][1].split(",")[: len(types)] != names:
        return f"expected a {header!r} header"
    rows = []
    for number, line in numbered[1:]:
        cells = line.split(",")
        try:
            rows.append([reference_cell(cells[j], t) for j, t in enumerate(types)])
        except (IndexError, ValueError):
            return f"line {number}: cannot read {len(types)} values from {line!r}"
    return [np.array([row[j] for row in rows], dtype=t) for j, t in enumerate(types)]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(tables())
# A form feed ends a line for str.splitlines.
@example(("param,expected,counts,sigma\f1,2,3,4\n5,6,7,8,9,10,11\n", *TABLES[1]))
# float() and int() read these, _read_csv rejects them.
@example(("wavelength_nm,density\n1,2\n3,1_0\n", *TABLES[0]))
@example(("param,expected,counts\n1,2,3\n\u0661,2,3\n", *TABLES[1]))
@example(("param,expected,counts\n1,2,\u0663\n", *TABLES[1]))
def test_read_matches_per_cell_reference(table):
    got, want = read(*table), reference_read(*table)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for column, expected, t in zip(got, want, table[2]):
        assert column.dtype == expected.dtype == np.dtype(t)
        assert np.array_equal(column.view(np.int64), expected.view(np.int64))


def test_only_a_failed_read_parses_line_by_line(monkeypatch):
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda lines, **kwargs: calls.append(lines) or loadtxt(lines, **kwargs))
    clean = "param,expected,counts,sigma\n0.5,1e-300,9223372036854775807,3\n-0,2.5E+12,0,1\n"
    for text in (clean, clean[:-1], clean.replace("\n", "\r\n"), "\n" + clean.replace("\n", "\n\n")):
        calls.clear()
        _read_csv(text, *TABLES[1])
        assert len(calls) == 1, text
    calls.clear()
    with pytest.raises(ValueError, match=r"^line 3: "):
        _read_csv(clean.replace(",0,", ",x,"), *TABLES[1])
    assert len(calls) == 3  # the table, then its lines up to the bad one


def test_header_only_table_reads_empty_without_warning():
    for header, types in TABLES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            columns = _read_csv(f"{header}\n\n", header, types)
        assert [(column.dtype, column.size) for column in columns] == [(np.dtype(t), 0) for t in types]


def test_integer_read_through_a_float_names_its_line_on_numpy_1(monkeypatch):
    # numpy < 2 reads "3.0" in an integer column as 3 and only warns; this
    # stand-in does the same, so the warning must end in the line error.
    loadtxt = np.loadtxt

    def numpy1_loadtxt(lines, dtype, **kwargs):
        rows = []
        for line in lines:
            cells = line.split(",")
            for j, (_, t) in enumerate(dtype):
                if t is int and "." in cells[j]:
                    warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
                    cells[j] = str(int(float(cells[j])))
            rows.append(",".join(cells))
        return loadtxt(rows, dtype=dtype, **kwargs)

    header, types = TABLES[1]
    with pytest.warns(DeprecationWarning):
        assert numpy1_loadtxt(["1,2,3.0"], dtype=list(zip("abc", types)), delimiter=",", ndmin=1)["c"].tolist() == [3]
    monkeypatch.setattr(np, "loadtxt", numpy1_loadtxt)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"^line 3: cannot read 3 values from '1,2,3.0'$"):
            _read_csv(f"{header}\n0,1,2\n1,2,3.0\n", header, types)
    assert not caught


# (header, row format) of Spectrum.to_csv and ScanResult.to_csv; the writer picks each cell format from the dtype.
LAYOUTS = (
    ("wavelength_nm,density", "%.12g,%.12g\n"),
    ("param,expected,counts,sigma", "%.12g,%.12g,%d,%.12g\n"),
)


def block_rows(layout):
    """Rows of one array-formatted block of ``layout``'s table."""
    return _CSV_BLOCK_CELLS // len(layout[0].split(","))


# Below the crossover, at it, and past one block of array formatting in either layout.
ROW_COUNTS = (1, _ARRAY_CSV_ROWS - 1, _ARRAY_CSV_ROWS, *(block_rows(layout) + 7 for layout in LAYOUTS))


def layout_columns(layout, floats, counts, rows):
    """Columns of ``rows`` rows for ``layout``, cycling through ``floats`` and ``counts``."""
    specs = layout[1][:-1].split(",")
    values = {"%.12g": np.array(floats, dtype=float), "%d": np.array(counts, dtype=np.int64)}
    return [np.resize(np.roll(values[spec], k), rows) for k, spec in enumerate(specs)]


def per_row(header, row_format, columns):
    return f"{header}\n" + "".join(row_format % row for row in zip(*(column.tolist() for column in columns)))


def assert_writes_per_row(layout, columns):
    got, want = _write_csv(layout[0], *columns), per_row(*layout, columns)
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
@example(LAYOUTS[0], ALL_EDGES, [0], block_rows(LAYOUTS[0]) + 7)
@example(LAYOUTS[1], ALL_EDGES, [0, 7, 10, 99], block_rows(LAYOUTS[1]) + 7)
# Counts below 10**12 in magnitude take the array path; from 10**12, whose
# %.12g is 1e+12, the table falls back to % (also at -2**63, where abs overflows).
@example(LAYOUTS[1], ALL_EDGES, [999_999_999_999, -999_999_999_999, -1, 0], _ARRAY_CSV_ROWS)
@example(LAYOUTS[1], ALL_EDGES, [10**12, 3], _ARRAY_CSV_ROWS)
@example(LAYOUTS[1], ALL_EDGES, [-(10**12), 3], _ARRAY_CSV_ROWS)
@example(LAYOUTS[1], ALL_EDGES, [-(2**63), 1], _ARRAY_CSV_ROWS)
def test_writer_matches_per_row_format(layout, floats, counts, rows):
    assert_writes_per_row(layout, layout_columns(layout, floats, counts, rows))


def test_near_ties_take_the_fallback_and_carries_do_not():
    # The carries must be written by the array path's carry, not by %.
    assert not _g12_mantissas(NEAR_TIES)[2].any()
    assert _g12_mantissas(CARRIES)[2].all()


# What the array path may hold beyond its output and the join of its
# blocks: one block's scratch arrays, with headroom.  It holds about
# 0.3 MiB; blocks of 16384 cells would leave about 1.4 MiB on the scan.
SCRATCH_ALLOWANCE = 0.75 * 2**20


@pytest.mark.parametrize(
    "make",
    [
        lambda: noon_fringe(2, 0.8493, np.linspace(0.0, 4.0 * np.pi, 4096), 120.0, 1.0, 7),
        lambda: Spectrum(np.linspace(1539.0, 1555.0, 16384), np.exp(-np.linspace(-4.0, 4.0, 16384) ** 2)),
    ],
    ids=["scan-4096", "spectrum-16384"],
)
def test_writer_scratch_stays_within_one_block(make):
    table = make()
    tracemalloc.start()
    try:
        text = table.to_csv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 2 * len(text) < SCRATCH_ALLOWANCE, (peak, len(text))
