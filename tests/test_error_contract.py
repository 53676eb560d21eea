"""The error contracts of the loaders and of the curve calls, over inputs
built from each one's grammar.

``dataio.load`` never raises for a bad row, in CSV or JSONL: every data row
becomes either a point or a reject that names its row and a reason.
``read_splits_csv`` returns a label per component, or raises a
``ValueError`` that names the file and the line. The rows carry the edge
values of a float (signed zeros, subnormals, ``1e308`` and beyond, ``nan``
and ``inf`` text), JSON ``null``, ``true`` and ``false``, and missing,
extra and oversized fields.

``predict``, ``boiling_temperature`` and ``boiling_temperatures`` return,
or raise one of :data:`CURVE_ERRORS`, the list the README gives, and never
warn (a numpy ``RuntimeWarning`` is an error under pytest). Their SMILES
come from the grammar strategies of ``test_smiles`` and their temperatures
and pressures are a float's edge values, alone, in lists and as 0-d
arrays.
"""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from grappa.antoine import (PARAM_RANGES, AntoineDomainError, AntoineParams,
                            boiling_temperature, boiling_temperatures)
from grappa.dataio import REQUIRED_COLUMNS, load, read_splits_csv
from grappa.featurize import ScopeError
from grappa.model import Architecture, init_model, predict
from grappa.smiles import SmilesError

from test_smiles import MOLECULES, mutated_smiles

# A field csv refuses, written in place of its mark, which needs no quoting.
OVERSIZED = "x" * (csv.field_size_limit() + 1)
OVERSIZED_MARK = "<oversized>"
FLOAT_TEXT = st.one_of(
    st.sampled_from(["0", "-0", "0.0", "-0.0", "5e-324", "-5e-324",
                     "2.2250738585072014e-308", "1e308", "-1e308", "1e309",
                     "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1_000",
                     " 300.0 ", "300.0", "8000.0", "", "x", "1e", "0x10"]),
    st.floats().map(repr), st.integers().map(str))
# Line breaks would split a JSONL row; CSV quotes them.
TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                             blacklist_characters="\r\n"), max_size=6)
FIELD_TEXT = st.one_of(
    st.sampled_from(["CCO", "c1ccccc1", "C[C@H](O)CC", "ok", "poor", "",
                     "true", "false", "null", "0", "no", "yes"]),
    TEXT, FLOAT_TEXT, st.just("a,b\nc\"d"))
NUMBER = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e308]),
                   st.integers(), st.just(10 ** 400))
JSON_VALUE = st.one_of(
    st.none(), st.booleans(), NUMBER, FIELD_TEXT,
    st.lists(st.integers(), max_size=2),
    st.dictionaries(TEXT, st.integers(), max_size=2))
OPTIONAL_COLUMNS = ("source", "stereo_ok")


def oversize_one(draw, fields: list) -> list:
    """``fields``, with one of them, now and then, over ``csv``'s limit."""
    at = draw(st.integers(-2 * len(fields) - 1, len(fields) - 1))
    return fields if at < 0 else fields[:at] + [OVERSIZED_MARK] + fields[at + 1:]


def write(path, text: str):
    path.write_text(text.replace(OVERSIZED_MARK, OVERSIZED), encoding="utf-8")


def write_csv_rows(path, rows):
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    write(path, text.getvalue())


@st.composite
def csv_rows(draw):
    """A header with the required columns, maybe optional and unknown ones,
    and up to five rows, each maybe short of or longer than the header."""
    header = list(REQUIRED_COLUMNS) + draw(
        st.lists(st.sampled_from(OPTIONAL_COLUMNS + ("note",)), unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        row = oversize_one(draw, [draw(FIELD_TEXT) for _ in header])
        width = draw(st.integers(1, len(header) + 2))
        rows.append((row + [draw(FIELD_TEXT) for _ in range(width)])[:width])
    return header, rows


@st.composite
def jsonl_lines(draw):
    """Up to five non-blank lines: objects over the known keys with some
    keys missing and unknown ones added, and values that are JSON's null,
    booleans, numbers, text, lists and objects; or a line that is not an
    object, or not JSON."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        keys = draw(st.lists(st.sampled_from(REQUIRED_COLUMNS
                                             + OPTIONAL_COLUMNS + ("note",)),
                             unique=True))
        record = dict(zip(keys, oversize_one(
            draw, [draw(JSON_VALUE) for _ in keys])))
        line = draw(st.one_of(
            st.just(json.dumps(record)),
            st.just(json.dumps(record, ensure_ascii=False)),
            st.just(json.dumps(record)[:-1]),
            JSON_VALUE.map(json.dumps), TEXT))
        lines.append(line if line.strip() else "null")
    return lines


def assert_every_row_counted(ds, rows):
    """Each row number in ``rows`` is one point or one reject, in order."""
    taken = sorted([pt.row for pt in ds.points]
                   + [reject["row"] for reject in ds.rejects])
    assert taken == list(rows)
    assert all(isinstance(reject["reason"], str) and reject["reason"]
               for reject in ds.rejects)
    assert all(0.0 < pt.temperature_k < math.inf
               and 0.0 < pt.pressure_pa < math.inf for pt in ds.points)


@settings(max_examples=60, deadline=None)
@given(csv_rows())
# The reader refuses the first field and goes on with the next line, which
# is still inside the quoted fourth field and reads like a row of its own.
@example((list(REQUIRED_COLUMNS),
          [[OVERSIZED_MARK, "CCO", "300.0", "1\nc,CCO,300.0,8000.0,ok", "ok"]]))
def test_load_counts_every_csv_row(tmp_path_factory, case):
    header, rows = case
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    write_csv_rows(path, [header] + rows)
    # Row 1 is the header.
    assert_every_row_counted(load(path), range(2, len(rows) + 2))


@settings(max_examples=60, deadline=None)
@given(jsonl_lines())
def test_load_counts_every_jsonl_row(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "rows.jsonl"
    write(path, "".join(line + "\n" for line in lines))
    assert_every_row_counted(load(path, fmt="jsonl"),
                             range(1, len(lines) + 1))


@st.composite
def splits_rows(draw):
    """A header, maybe without a column the file needs, then up to five
    rows of components and labels, repeated or not, with fields missing,
    extra, empty or oversized."""
    header = draw(st.sampled_from([["component_id", "split"],
                                   ["split", "component_id", "note"],
                                   ["component_id"], ["component", "label"]]))
    names = st.sampled_from(["c1", "c2", "", "train"])
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        rows.append(oversize_one(draw, draw(st.lists(
            st.one_of(names, FIELD_TEXT), min_size=1,
            max_size=len(header) + 1))))
    return header, rows


@settings(max_examples=60, deadline=None)
@given(splits_rows())
def test_read_splits_csv_returns_labels_or_names_the_line(tmp_path_factory,
                                                          case):
    header, rows = case
    path = tmp_path_factory.getbasetemp() / "splits.csv"
    write_csv_rows(path, [header] + rows)
    try:
        splits = read_splits_csv(path)
    except ValueError as err:
        assert str(err).startswith(f"{path}: line ")
    else:
        assert all(isinstance(k, str) and k and isinstance(v, str) and v
                   for k, v in splits.items())


# Every error ``predict``, ``boiling_temperature`` and ``boiling_temperatures``
# may raise, in the README's order.
CURVE_ERRORS = (SmilesError, ScopeError, AntoineDomainError)
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310,
                     2.2250738585072014e-308, 1e308, -1e308, math.inf,
                     -math.inf, math.nan, -1.0, 1e-3, 300.0, 101325.0]),
    st.floats())
# A temperature or pressure: one float, a list of them or a 0-d array.
EDGE_VALUES = st.one_of(EDGE_FLOATS, st.lists(EDGE_FLOATS, max_size=4),
                        EDGE_FLOATS.map(np.array))
# A parameter anywhere in its box, corners included.
IN_BOX = {key: st.one_of(st.floats(lo, hi), st.sampled_from([lo, hi]))
          for key, (lo, hi) in PARAM_RANGES.items()}
PARAMS = st.builds(AntoineParams, IN_BOX["A"], IN_BOX["B"], IN_BOX["C"])
MODEL = init_model(Architecture(), seed=0)


def test_the_readme_lists_the_curve_errors():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    names = ", ".join(f"`{err.__name__}`" for err in CURVE_ERRORS)
    assert f"raise only {names}" in " ".join(readme.read_text().split())


@settings(max_examples=200, deadline=None)
@given(st.one_of(mutated_smiles(), MOLECULES), st.none() | EDGE_VALUES,
       st.none() | EDGE_VALUES)
# 5e-324 Pa is 0 kPa as a float.
@example("CCO", None, 5e-324)
@example("CCO", [300.0, 5e-324], np.array(1e308))
def test_predict_returns_or_raises_a_curve_error(smiles, temperatures,
                                                pressure):
    try:
        predict(MODEL, smiles, temperatures, pressure)
    except CURVE_ERRORS:
        pass


@settings(max_examples=300, deadline=None)
@given(PARAMS, EDGE_VALUES)
@example(AntoineParams(10.0, 3000.0, -50.0), 5e-324)
def test_boiling_temperature_returns_or_raises_a_curve_error(params,
                                                             pressure):
    try:
        boiling_temperature(params, pressure)
    except CURVE_ERRORS:
        pass


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(PARAMS, EDGE_FLOATS), max_size=4))
@example([(AntoineParams(10.0, 3000.0, -50.0), 5e-324)])
def test_boiling_temperatures_returns_or_raises_a_curve_error(curves):
    """Its inputs are 1-D arrays of one length, one entry per curve."""
    a, b, c = (np.array([params.as_tuple()[k] for params, _ in curves])
               for k in range(3))
    try:
        boiling_temperatures(a, b, c, np.array([p for _, p in curves]))
    except CURVE_ERRORS:
        pass
