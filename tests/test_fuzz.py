"""Fuzzing of the three parsers: the score CSV, the s-expression and the
normalization params document.  Whatever the input, the only allowed
outcomes are a result or a ``FusebenchError``; anything else is a crash."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fusebench.datasets import ScoreDataset, load_dataset
from fusebench.errors import FusebenchError
from fusebench.normalization import TanhNormalizer, normalizer_from_json
from fusebench.trees import FUNCTION_OPS, ExpressionTree, parse_sexpr, tree_to_sexpr

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
