"""Property tests for the three JSON input formats: matrix, transcript, masked system.

Each load either returns an object that saves and loads again bit-exactly,
or raises a GwalshError subclass; no other exception escapes.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gwalsh import (
    CoefficientVector,
    ExchangeTranscript,
    GwalshError,
    Signal,
    generate_random,
    load_masked_system,
    load_matrix,
    load_transcript,
)
from gwalsh.matrix import matrix_from_dict, matrix_to_dict
from gwalsh.protocol import (
    MaskedConstraintSystem,
    MaskedEquation,
    masked_system_from_list,
    masked_system_to_list,
    transcript_from_dict,
    transcript_to_dict,
)

_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16]
_finite = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))

# any value json.loads can return, including huge ints and the non-standard NaN / Infinity
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.sampled_from([10**400, -10**400]),
              st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12,
)


def _text(obj) -> str:
    """The saved form; json.dumps writes floats by repr, so equal text means equal bits."""
    return json.dumps(obj, indent=2)


def _mutated(valid):
    """Strategy: ``valid`` (a JSON tree) with one node, at any depth, replaced or deleted."""

    @st.composite
    def strategy(draw):
        tree = json.loads(json.dumps(valid))
        node, key = None, None
        holder = tree
        while isinstance(holder, (dict, list)) and holder and draw(st.integers(0, 2)):
            keys = list(holder) if isinstance(holder, dict) else range(len(holder))
            node, key = holder, draw(st.sampled_from(list(keys)))
            holder = node[key]
        replacement = draw(st.one_of(_finite, st.integers(-3, 3), st.booleans(), _json))
        if node is None:
            return replacement
        if isinstance(node, dict) and draw(st.integers(0, 3)) == 0:
            del node[key]
        else:
            node[key] = replacement
        return tree

    return strategy()


def _round_trips(load_dict, to_obj, raw) -> None:
    try:
        loaded = load_dict(raw)
    except GwalshError:
        return
    text = _text(to_obj(loaded))
    assert _text(to_obj(load_dict(json.loads(text)))) == text


# --- matrix JSON -------------------------------------------------------------

_MATRICES = [generate_random(n, seed=n, complex_entries=cx) for n in (2, 3) for cx in (False, True)]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_matrix_json_round_trips_bit_exactly(n, seed, complex_entries):
    m = generate_random(n, seed=seed, complex_entries=complex_entries)
    loaded = matrix_from_dict(json.loads(_text(matrix_to_dict(m))))
    assert loaded.entries.dtype == m.entries.dtype
    assert loaded.entries.tobytes() == m.entries.tobytes()
    assert loaded.tol == m.tol


@settings(max_examples=100, deadline=None)
@given(st.one_of(_json, *[_mutated(matrix_to_dict(m)) for m in _MATRICES]))
@example({"entries": [[10**400]]})
@example({"entries": matrix_to_dict(_MATRICES[0])["entries"], "tol": 10**400})
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # entries near 1e308 in validate
def test_matrix_json_loads_or_raises(raw):
    _round_trips(matrix_from_dict, matrix_to_dict, raw)


# --- transcript JSON ---------------------------------------------------------

@st.composite
def _transcripts(draw):
    n, q = draw(st.integers(2, 3)), draw(st.integers(0, 2))
    cx = draw(st.booleans())

    def cells():
        real = np.array(draw(st.lists(_finite, min_size=n**q, max_size=n**q)))
        if not cx:
            return real
        imag = np.array(draw(st.lists(_finite, min_size=n**q, max_size=n**q)))
        values = np.empty(n**q, dtype=complex)
        values.real, values.imag = real, imag
        return values

    return ExchangeTranscript(
        w1=CoefficientVector(n, q, cells()),
        w2=Signal(n, q, cells()),
        w3=CoefficientVector(n, q, cells()),
        recovered=Signal(n, q, cells()),
        max_error=draw(_finite),
        pairing_violated=draw(st.booleans()),
    )


@settings(max_examples=30, deadline=None)
@given(_transcripts())
def test_transcript_json_round_trips_bit_exactly(t):
    loaded = transcript_from_dict(json.loads(_text(transcript_to_dict(t))))
    for got, want in [(loaded.w1.coeffs, t.w1.coeffs), (loaded.w2.values, t.w2.values),
                      (loaded.w3.coeffs, t.w3.coeffs),
                      (loaded.recovered.values, t.recovered.values)]:
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert np.float64(loaded.max_error).tobytes() == np.float64(t.max_error).tobytes()
    assert loaded.pairing_violated is t.pairing_violated


_SMALL_TRANSCRIPT = transcript_to_dict(ExchangeTranscript(
    w1=CoefficientVector(2, 1, [0.5, -0.0]), w2=Signal(2, 1, [1.0, 0.25]),
    w3=CoefficientVector(2, 1, [0.5, 1e-300]), recovered=Signal(2, 1, [1.0, 0.25]),
    max_error=0.0, pairing_violated=False,
))


@settings(max_examples=100, deadline=None)
@given(st.one_of(_json, _mutated(_SMALL_TRANSCRIPT)))
@example({**_SMALL_TRANSCRIPT, "n": 3, "q": 10**9})
@example({**_SMALL_TRANSCRIPT, "max_error": 10**400})
@example({**_SMALL_TRANSCRIPT, "w2": [10**400, 1.0]})
def test_transcript_json_loads_or_raises(raw):
    _round_trips(transcript_from_dict, transcript_to_dict, raw)


# --- masked-system JSON ------------------------------------------------------

_names = st.builds("b_{}_{}".format, st.integers(1, 4), st.integers(0, 4))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.dictionaries(_names, _finite, min_size=1, max_size=6), _finite),
                min_size=1, max_size=4))
def test_masked_system_json_round_trips_bit_exactly(equations):
    m = MaskedConstraintSystem(n=5, equations=tuple(
        MaskedEquation(coeffs=coeffs, rhs=rhs) for coeffs, rhs in equations))
    text = _text(masked_system_to_list(m))
    loaded = masked_system_from_list(json.loads(text))
    assert _text(masked_system_to_list(loaded)) == text


_SMALL_MASKED = [{"coeffs": {"b_1_0": 0.5, "b_2_1": -0.0}, "rhs": 0.0},
                 {"coeffs": {"b_2_2": 1e-300}, "rhs": 0.25}]


@settings(max_examples=100, deadline=None)
@given(st.one_of(_json, _mutated(_SMALL_MASKED)))
@example([{"coeffs": {"b_1_0": 10**400}}])
@example([{"coeffs": {"b_1_0": 1.0}, "rhs": -10**400}])
def test_masked_system_json_loads_or_raises(raw):
    _round_trips(masked_system_from_list, masked_system_to_list, raw)


# --- the files themselves ----------------------------------------------------

@pytest.mark.parametrize("load", [load_matrix, load_transcript, load_masked_system],
                         ids=lambda f: f.__name__)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(st.binary(max_size=40), _json.map(lambda v: json.dumps(v).encode())))
@example(data=b"[" * 100_000)
@example(data=b'{"entries": ' + b"[" * 100_000 + b"}")
def test_any_file_loads_or_raises(tmp_path, load, data):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    try:
        load(path)
    except GwalshError:
        pass
