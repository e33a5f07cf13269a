"""Both paths of the CSV reader agree on every table they are given.

A table whose body holds only numbers, commas and newlines is read in one
pass; a blank line before the header sends the same table line by line.
The two reads must give bit-identical arrays or the same ValueError (its
line number shifted by the blank line).
"""

import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noonsim.spectral import _read_csv

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
