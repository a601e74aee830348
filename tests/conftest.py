import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import reference_values as rv  # noqa: E402

from gwalsh import Signal, signal_from_digits, validate  # noqa: E402


@pytest.fixture(scope="session")
def matrix_a():
    return validate(rv.MATRIX_A, tol=1e-10)


@pytest.fixture(scope="session")
def matrix_b():
    entries = np.vstack([np.full(3, 1 / np.sqrt(3)), rv.MATRIX_B_ROW1, rv.MATRIX_B_ROW2])
    return validate(entries, tol=1e-8)


@pytest.fixture(scope="session")
def signal_f():
    return signal_from_digits(rv.SIGNAL_DIGITS, base=3)


@pytest.fixture(scope="session")
def dyadic_step():
    return Signal.from_values(base=2, values=rv.DYADIC_STEP)


@pytest.fixture()
def started_threads(monkeypatch):
    """Every thread started while the test runs, in start order."""
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recording)
    return started
