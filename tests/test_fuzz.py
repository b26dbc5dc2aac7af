"""Fuzzing of the three parsers: the score CSV, the s-expression and the
normalization params document.  Whatever the input, the only allowed
outcomes are a result or a ``FusebenchError``; anything else is a crash.
The score CSV's numpy reader is also checked against its ``csv``-module
reference, bit for bit."""

import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from conftest import outcome
from fusebench import datasets
from fusebench.datasets import (
    ScoreDataset,
    _load_canonical,
    _load_reference,
    load_dataset,
)
from fusebench.errors import FusebenchError
from fusebench.normalization import TanhNormalizer, normalizer_from_json
from fusebench.trees import (
    FUNCTION_OPS,
    ExpressionTree,
    evaluate_matrix,
    parse_sexpr,
    tree_to_sexpr,
)

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# score cells: numbers in several spellings, labels, CSV quoting, text
_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(["genuine", "impostor", "GENUINE", " impostor ", "face",
                     "", '"', '""', '"0.5"', "nan", "-inf", "1e999", "0x10"]),
    st.text(max_size=6),
)
_ROWS = st.lists(st.lists(_CELLS, min_size=0, max_size=5), max_size=8)


@st.composite
def score_file_bytes(draw):
    """A CSV built from the cells above, optionally with raw bytes spliced
    in (BOM, Latin-1, NUL, lone CR), or plain random bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(",".join(row) for row in draw(_ROWS))
    data = text.encode("utf-8", errors="surrogatepass")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        junk = draw(st.sampled_from([b"\xef\xbb\xbf", b"\xe9", b"\x00", b"\r",
                                     b"\xff\xfe", b"\xc3"]))
        data = data[:at] + junk + data[at:]
    return data


@pytest.fixture(scope="module")
def fuzz_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scores.csv"


@FUZZ
@given(data=score_file_bytes(), modalities=st.integers(1, 4),
       negate=st.lists(st.integers(-1, 4), max_size=2))
def test_load_dataset_returns_a_dataset_or_a_fusebench_error(
    fuzz_csv, data, modalities, negate
):
    fuzz_csv.write_bytes(data)
    try:
        ds = load_dataset(fuzz_csv, modalities, negate_modalities=negate)
    except FusebenchError:
        return
    assert isinstance(ds, ScoreDataset)
    assert ds.genuine_count >= 1 and ds.impostor_count >= 1
    assert np.all(np.isfinite(ds.genuine)) and np.all(np.isfinite(ds.impostor))


# repr-spelled finite scores, weighted toward signed zeros, the smallest
# subnormal and values near the ends of float64
_NEAR_VALID_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.5, -2.0]),
    st.floats(allow_nan=False, allow_infinity=False),
).map(repr)
_SPACES = ["\x1c", "\x1d", "\x1e", "\x1f", "", " ", "\t", "\x0b", "\x0c", "\xa0", "\u2003"]
# each takes (draw, rows) and edits the cell grid in place
_ROW_MUTATIONS = {
    "quoted cell": lambda draw, rows: _edit_cell(draw, rows, lambda c: f'"{c}"'),
    "underscore": lambda draw, rows: _edit_cell(
        draw, rows, lambda c: c.replace("0", "0_0", 1) if "0" in c else c + "_1"),
    "unicode digit": lambda draw, rows: _edit_cell(
        draw, rows, lambda c: c.replace(c.lstrip("-")[0], draw(st.sampled_from(
            ["\uff11", "\u0661", "\u0967"])), 1)),
    # float() strips " ", TAB, VT and FF but not 0x1c-0x1f, which numpy strips
    "whitespace": lambda draw, rows: _edit_cell(
        draw, rows, lambda c: draw(st.sampled_from(_SPACES)) + c + draw(st.sampled_from(_SPACES))),
    "label case": lambda draw, rows: _edit_label(draw, rows, str.upper),
    "label padding": lambda draw, rows: _edit_label(
        draw, rows, lambda c: draw(st.sampled_from([" ", "\t", ""])) + c
        + draw(st.sampled_from([" ", "  ", "x", "sss"]))),
    "non-finite": lambda draw, rows: _edit_cell(
        draw, rows, lambda c: draw(st.sampled_from(["nan", "inf", "-inf", "1e400"]))),
    "one class": lambda draw, rows: _edit_label(draw, rows, lambda c: "genuine", every=True),
    "extra column": lambda draw, rows: _last_rows_first(draw, rows).append("0.5"),
    "missing column": lambda draw, rows: _last_rows_first(draw, rows).pop(0),
    # a field just under, then just over, the csv module's 131,072 characters
    "long field": lambda draw, rows: _edit_cell(
        draw, rows, lambda c: "0." + "0" * draw(st.sampled_from([131_066, 131_070])) + "1"),
}
_TEXT_MUTATIONS = {
    "BOM": lambda draw, text: "\ufeff" + text,
    "CRLF": lambda draw, text: text.replace("\n", "\r\n"),
    "lone CR": lambda draw, text: _splice(draw, text, "\r"),
    "NUL": lambda draw, text: _splice(draw, text, "\x00"),
    "header": lambda draw, text: draw(st.sampled_from(
        ["face,voice,label\n", "s1,s2,s3,s4,label\n", "x\n", "  \n"])) + text,
    "blank line": lambda draw, text: _splice_line(draw, text, "\n"),
    "whitespace line": lambda draw, text: _splice_line(
        draw, text, draw(st.sampled_from([" \n", "\t\n", "\x0c\n", ",\n"]))),
    "no final newline": lambda draw, text: text.rstrip("\n"),
}


def _last_rows_first(draw, rows):
    # a non-numeric first cell of line 1 makes it a header, hiding the edit
    return rows[-1 - draw(st.integers(0, len(rows) - 1))]


def _edit_cell(draw, rows, edit):
    row = _last_rows_first(draw, rows)
    col = draw(st.integers(0, max(len(row) - 2, 0)))
    row[col] = edit(row[col])


def _edit_label(draw, rows, edit, every=False):
    for row in rows if every else [_last_rows_first(draw, rows)]:
        row[-1] = edit(row[-1])


def _splice(draw, text, junk):
    at = draw(st.integers(0, len(text)))
    return text[:at] + junk + text[at:]


def _splice_line(draw, text, line):
    lines = text.split("\n")
    at = draw(st.integers(0, len(lines) - 1))
    return "\n".join(lines[:at] + [line.rstrip("\n")] + lines[at:])


@st.composite
def near_valid_score_files(draw):
    """A modality count and a canonical score file as ``save_dataset``
    writes it, with both classes, plus up to two mutations that may take it
    off the fast path."""
    modalities = draw(st.integers(2, 4))
    labels = ["genuine", "impostor"] + draw(st.lists(st.sampled_from(["genuine", "impostor"]),
                                                     max_size=4))
    rows = [draw(st.lists(_NEAR_VALID_SCORES, min_size=modalities, max_size=modalities))
            + [label]
            for label in draw(st.permutations(labels))]
    mutations = draw(st.lists(st.sampled_from(sorted(_ROW_MUTATIONS) + sorted(_TEXT_MUTATIONS)),
                              max_size=2, unique=True))
    for name in mutations:
        if name in _ROW_MUTATIONS:
            _ROW_MUTATIONS[name](draw, rows)
    text = "".join(",".join(row) + "\n" for row in rows)
    for name in mutations:
        if name in _TEXT_MUTATIONS:
            text = _TEXT_MUTATIONS[name](draw, text)
    return modalities, text.encode("utf-8")


@settings(FUZZ, max_examples=400)
@given(case=near_valid_score_files())
# numpy strips 0x1c-0x1f around a number, and reads a field of any length
@example(case=(2, b"0.1,0.2,impostor\n\x1c0.5,1.0,genuine\n"))
@example(case=(2, b"0.1,0.2,impostor\n0." + b"0" * 131_070 + b"1,1.0,genuine\n"))
@pytest.mark.parametrize("block", [None, 7], ids=["1 MiB blocks", "7-byte blocks"])
def test_numpy_reader_matches_the_reference_or_declines(fuzz_csv, block, case):
    """The numpy reader returns the reference's bits and class counts, or
    declines and ``load_dataset`` gives the reference's result or error.
    Read in small blocks, it accepts exactly the files it accepts reading
    one block."""
    modalities, data = case
    fuzz_csv.write_bytes(data)
    reference, error = outcome(_load_reference, fuzz_csv, io.BytesIO(data), modalities)
    with open(fuzz_csv, "rb") as handle:
        in_one_block = _load_canonical(handle, modalities)
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(datasets, "_READ_BLOCK_BYTES", block)
        with open(fuzz_csv, "rb") as handle:
            fast = _load_canonical(handle, modalities)
        assert (fast is None) == (in_one_block is None)
        event("numpy reader " + ("declined" if fast is None else "accepted"))
        if fast is None:
            loaded, loaded_error = outcome(load_dataset, fuzz_csv, modalities)
            assert loaded_error == error
            if error is None:
                fast = (loaded.genuine, loaded.impostor)
    if error is None:
        for got, want in zip(fast, reference):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    else:
        assert fast is None


# finite scores that include zeros, ties and the extremes of float64
_FUZZ_SCORES = np.array([
    [0.0, 0.5, -1.0, 1e300],
    [1.0, 0.0, 0.0, -1e300],
    [-3.5, 2.0, 1e-300, 0.0],
])
_SEXPR_TOKENS = st.sampled_from(
    ["(", ")", "(", ")", "var", "const", *FUNCTION_OPS, "pow", "0", "1", "3",
     "-1", "2.5", "1e400", "nan", "-inf", "9" * 5000, " ", "\n", "\udce9"]
)


@FUZZ
@given(text=st.one_of(
    st.lists(_SEXPR_TOKENS, max_size=40).map(" ".join),
    st.text(max_size=60),
))
def test_parse_sexpr_returns_a_tree_or_a_fusebench_error(text):
    try:
        tree = parse_sexpr(text)
    except FusebenchError:
        return
    assert isinstance(tree, ExpressionTree)
    assert tree_to_sexpr(parse_sexpr(tree_to_sexpr(tree))) == tree_to_sexpr(tree)
    if tree.root.max_var < _FUZZ_SCORES.shape[1]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fused = evaluate_matrix(tree, _FUZZ_SCORES)
        assert fused.shape == (_FUZZ_SCORES.shape[0],)
        assert np.all(np.isfinite(fused))


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**400, 10**400), st.integers(-3, 3), st.text(max_size=4),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=10,
)
_NUMBER_LISTS = st.lists(
    st.one_of(st.floats(-1e3, 1e3), st.floats(1e-300, 1e300), _JSON_SCALARS),
    min_size=0, max_size=4,
)


@st.composite
def params_documents(draw):
    """Params JSON: well-shaped documents with odd values, arbitrary JSON
    values, or arbitrary text."""
    kind = draw(st.sampled_from(["shaped", "shaped", "json", "text"]))
    if kind == "text":
        return draw(st.text(max_size=60))
    if kind == "json":
        return json.dumps(draw(_JSON_VALUES))
    payload = {"means": draw(_NUMBER_LISTS), "stddevs": draw(_NUMBER_LISTS)}
    if draw(st.booleans()):
        payload["modalities"] = draw(_JSON_SCALARS)
    return json.dumps(payload)


@FUZZ
@given(text=params_documents(), seed=st.integers(0, 2**16))
def test_normalizer_from_json_then_transform_is_a_result_or_a_fusebench_error(
    text, seed
):
    try:
        norm = normalizer_from_json(text)
        scores = np.random.default_rng(seed).normal(0.0, 10.0, (5, norm.modality_count))
        out = norm.transform_matrix(scores)
    except FusebenchError:
        return
    assert isinstance(norm, TanhNormalizer)
    assert out.shape == scores.shape
