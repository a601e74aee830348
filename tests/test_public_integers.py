"""One sweep over the public API: every ``int`` parameter follows ``matrix.is_integer``.

A second sweep does the same for every ``float`` parameter and
``matrix.is_real``.  The file also checks that every export states its
contract in a docstring of its own.

Each public callable of ``gwalsh`` with a parameter annotated ``int`` (or
``int | None``) has one valid call in ``VALID_CALLS``.  For each such
parameter the sweep substitutes the same number as ``True``, a float and a
string, which raise ValidationError, and as ``np.uint8`` and ``np.int64``,
which give the result of the equal ``int``: the same values, bits and types,
so every integer field of the result is an ``int``.

Each one with a parameter annotated ``float`` (or ``float | None``) has one
valid call in ``REAL_VALID_CALLS``.  ``True``, the value as a string,
``None`` (unless the annotation allows it), NaN, inf and an int too long
for a float or a repr raise ValidationError, and so do 0 and -1 for a
tolerance ``tol``; ``np.float64`` and ``np.float32`` give the result of
the equal ``float``.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import gwalsh
import reference_values as rv
from gwalsh import ValidationError, solve_companion, validate

A = validate(rv.MATRIX_A, tol=1e-10)
B = solve_companion(A, 0.2)
S = gwalsh.Signal(3, 2, np.arange(9.0) / 9)
PATH = object()  # a writer's output file; the sweep compares the text written there
A_FILE = object()  # a matrix file holding A, for the reader

VALID_CALLS = {
    "CoefficientVector": (3, 2, np.arange(9.0)),
    "Signal": (3, 2, np.arange(9.0)),
    "Signal.from_values": (3, np.arange(9.0)),
    "WalshMatrix": (3, A.entries, 1e-10),
    "cell_average": (S, 1, 3),
    "convergence_sweep": (A, S, [3, 5, 9], 2),
    "digits": (5, 3, 3),
    "dirichlet_kernel": (A, 2, 0.1, 0.15),
    "generate_random": (3, 2),
    "gram_defect": (A, 2),
    "grid_matrix": (A, 2),
    "kernel_deviation": (A, 2, 200, 1),
    "m_eval": (A, 1, 0.5),
    "martingale_check": (A, S, 1),
    "mask_constraints": (A, 3),
    "norm_bound_check": (A, S, 1),
    "pairing_check_basis": (A, B, 2),
    "partial_sum": (A, S, 5, 2),
    "r_map": (0.3, 3),
    "random_signal": (3, 2, 1),
    "signal_from_digits": ("012", 3),
    "solve_companion_numeric": (A, None, 2),
    "walsh_eval": (A, 5, 0.3),
    "walsh_on_grid": (A, 5, 2),
    "write_coefficients": (gwalsh.dwt_fast(A, S), PATH, 6),
    "write_signal": (S, PATH, 6),
}

# records that gwalsh builds from integers it has checked; they check no field
LEFT_OUT = {
    "CellIndex": "the cell that cell_of returns",
    "MaskedConstraintSystem": "built by mask_constraints and the masked-system reader",
    "PartialSumReport": "the report that partial_sum and convergence_sweep return",
}


def _public_callables():
    """(name, callable) for each public function and class of gwalsh and their class methods."""
    for name in dir(gwalsh):
        obj = getattr(gwalsh, name)
        if name.startswith("_") or not callable(obj) or (
                isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        yield name, obj
        if isinstance(obj, type):
            for attr, raw in vars(obj).items():
                if isinstance(raw, (classmethod, staticmethod)):
                    yield f"{name}.{attr}", getattr(obj, attr)


def _int_parameters(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.annotation in ("int", "int | None", int)]


CALLABLES = {name: fn for name, fn in _public_callables() if _int_parameters(fn)}
CASES = [(name, param) for name, fn in CALLABLES.items() if name in VALID_CALLS
         for param in _int_parameters(fn)]


def test_every_callable_with_an_int_parameter_is_swept():
    assert set(VALID_CALLS) | set(LEFT_OUT) == set(CALLABLES)
    assert not set(VALID_CALLS) & set(LEFT_OUT)


def _arg(arg, tmp_path):
    if arg is A_FILE:
        gwalsh.save_matrix(A, tmp_path / "A.json")
        return tmp_path / "A.json"
    return tmp_path / "out.csv" if arg is PATH else arg


def _call(name, args, tmp_path, callables=CALLABLES, **change):
    fn = callables[name]
    bound = inspect.signature(fn).bind(*(_arg(arg, tmp_path) for arg in args))
    bound.arguments.update(change)
    result = fn(*bound.args, **bound.kwargs)
    writes = any(arg is PATH for arg in args)
    return (tmp_path / "out.csv").read_text() if writes else result


def _same(x, y) -> bool:
    """Equal values, bits and types, field by field."""
    if dataclasses.is_dataclass(x):
        return type(x) is type(y) and all(
            _same(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return type(x) is type(y) and len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, np.ndarray):
        return (isinstance(y, np.ndarray) and (x.dtype, x.shape) == (y.dtype, y.shape)
                and x.tobytes() == y.tobytes())
    return type(x) is type(y) and (x == y or (x != x and y != y))


def _param_value(name, param, callables=CALLABLES, valid_calls=VALID_CALLS):
    bound = inspect.signature(callables[name]).bind(*valid_calls[name])
    return bound.arguments[param]


@pytest.mark.parametrize("name,param", CASES, ids=[f"{n}-{p}" for n, p in CASES])
@pytest.mark.parametrize("spelling", [lambda v: True, float, str], ids=["bool", "float", "str"])
def test_other_spellings_raise_validation_error(tmp_path, name, param, spelling):
    value = spelling(_param_value(name, param))
    with pytest.raises(ValidationError, match="integer"):
        _call(name, VALID_CALLS[name], tmp_path, **{param: value})


@pytest.mark.parametrize("name,param", CASES, ids=[f"{n}-{p}" for n, p in CASES])
@pytest.mark.parametrize("numpy_type", [np.uint8, np.int64])
def test_numpy_integer_gives_the_result_of_the_int(tmp_path, name, param, numpy_type):
    value = _param_value(name, param)
    expected = _call(name, VALID_CALLS[name], tmp_path)
    assert _same(_call(name, VALID_CALLS[name], tmp_path, **{param: numpy_type(value)}), expected)


def test_numpy_q_of_one_builds_the_one_digit_grid():
    # a q kept as np.uint8(1) wraps q - 2 to 255 steps, which run out of memory at N = 3
    assert _same(gwalsh.grid_matrix(A, np.uint8(1)), gwalsh.grid_matrix(A, 1))


REAL_VALID_CALLS = {
    "WalshMatrix": (3, A.entries, 1e-10),
    "dirichlet_kernel": (A, 2, 0.1, 0.15),
    "generate_n3": (0.4,),
    "load_matrix": (A_FILE, 1e-8),
    "m_eval": (A, 1, 0.5),
    "pairing_check_basis": (A, B, 2, 1e-8),
    "pairing_check_rows": (A, B, 1e-8),
    "r_map": (0.3, 3),
    "solve_companion": (A, 0.2),
    "solve_companion_numeric": (A, None, 2, 1e-10),
    "validate": (A.entries, 1e-10),
    "walsh_eval": (A, 5, 0.3),
}

# reports whose float fields gwalsh fills in: outputs, which no caller passes in
REAL_LEFT_OUT = {
    "ExchangeTranscript": "max_error, of the transcript that run_exchange returns",
    "MartingaleReport": "the residuals that martingale_check returns",
    "NormBoundReport": "the ratios that norm_bound_check returns",
    "PairingReport": "worst_residual, of the report the pairing checks return",
    "PartialSumReport": "the errors that partial_sum and convergence_sweep return",
}

# the values each float parameter rejects, and those each tolerance also rejects
BAD_REALS = {"bool": lambda v: True, "str": str, "none": lambda v: None,
             "nan": lambda v: math.nan, "inf": lambda v: math.inf, "long-int": lambda v: 10**5000}
BAD_TOLS = {"zero": lambda v: 0, "negative": lambda v: -1}


def _float_parameters(fn) -> dict[str, str]:
    """Each parameter annotated ``float`` or ``float | None``, with its annotation."""
    return {p.name: p.annotation for p in inspect.signature(fn).parameters.values()
            if p.annotation in ("float", "float | None")}


REAL_CALLABLES = {name: fn for name, fn in _public_callables() if _float_parameters(fn)}
REAL_PARAMS = [(name, param) for name in REAL_VALID_CALLS
               for param in _float_parameters(REAL_CALLABLES[name])]
REAL_CASES = [(name, param, bad) for name, param in REAL_PARAMS
              for bad in [*BAD_REALS, *(BAD_TOLS if param == "tol" else ())]
              # None is a value of a float | None parameter: load_matrix's, the file's tol
              if not (bad == "none"
                      and _float_parameters(REAL_CALLABLES[name])[param] == "float | None")]


def test_every_callable_with_a_float_parameter_is_swept():
    assert set(REAL_VALID_CALLS) | set(REAL_LEFT_OUT) == set(REAL_CALLABLES)
    assert not set(REAL_VALID_CALLS) & set(REAL_LEFT_OUT)
    assert len(REAL_PARAMS) == 13


@pytest.mark.parametrize("name,param,bad", REAL_CASES,
                         ids=[f"{n}-{p}-{b}" for n, p, b in REAL_CASES])
def test_other_reals_raise_validation_error(tmp_path, name, param, bad):
    value = {**BAD_REALS, **BAD_TOLS}[bad](
        _param_value(name, param, REAL_CALLABLES, REAL_VALID_CALLS))
    with pytest.raises(ValidationError):
        _call(name, REAL_VALID_CALLS[name], tmp_path, REAL_CALLABLES, **{param: value})


@pytest.mark.parametrize("name,param", REAL_PARAMS, ids=[f"{n}-{p}" for n, p in REAL_PARAMS])
@pytest.mark.parametrize("numpy_type", [np.float64, np.float32])
@pytest.mark.filterwarnings("error")  # a float32 compared with the largest float warns
def test_numpy_real_gives_the_result_of_the_float(tmp_path, name, param, numpy_type):
    value = numpy_type(_param_value(name, param, REAL_CALLABLES, REAL_VALID_CALLS))
    args = REAL_VALID_CALLS[name]
    expected = _call(name, args, tmp_path, REAL_CALLABLES, **{param: float(value)})
    assert _same(_call(name, args, tmp_path, REAL_CALLABLES, **{param: value}), expected)


def test_every_export_states_its_contract():
    # a dataclass without a docstring gets its signature as __doc__, and a class
    # never inherits one; so each name is read off its own __doc__
    missing = []
    for name in dir(gwalsh):
        obj = getattr(gwalsh, name)
        if name.startswith("_") or not callable(obj):
            continue
        doc = vars(obj).get("__doc__") if isinstance(obj, type) else obj.__doc__
        if not (doc and doc.strip()) or doc.startswith(f"{name}("):
            missing.append(name)
    assert missing == []
