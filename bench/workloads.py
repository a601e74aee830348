"""The four benchmark workloads.

Each workload builds its inputs from the run seed, then runs one op at a
time (closed loop, one client) on those inputs in a fixed cyclic order.
``run`` is the timed op; ``check`` verifies its output afterwards, outside
the timed interval, and raises :class:`CheckFailed` on a wrong result.

``REFERENCE`` is the reference computation (``reference.py``) whose kind
of work matches the workload's, timed before each op to gauge host speed.

Every call into gwalsh goes through a module attribute at call time
(``gt.dwt_fast``, ``gcli.main``), so the traced run's wrappers see it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

import gwalsh.cli as gcli
import gwalsh.matrix as gm
import gwalsh.protocol as gp
import gwalsh.transform as gt
from reference import MemoryReference, MixedReference


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _child_seeds(seed: int, count: int) -> list[int]:
    return [int(x) for x in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def _tree_bytes(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


class TransformBulk:
    """dwt_fast then idwt on about 1M cells, cycling through four bases."""

    name = "transform-bulk"
    REFERENCE = MemoryReference
    CONFIGS = ((2, 20, False), (3, 13, False), (4, 10, False), (16, 5, True))

    def __init__(self, seed: int, workdir: Path, root: Path):
        seeds = _child_seeds(seed, 2 * len(self.CONFIGS))
        self.inputs = []
        for i, (n, q, cx) in enumerate(self.CONFIGS):
            a = gm.generate_random(n, seeds[2 * i], complex_entries=cx)
            s = gt.random_signal(n, q, seeds[2 * i + 1], complex_values=cx)
            self.inputs.append((a, s))

    def run(self, item):
        a, s = item
        c = gt.dwt_fast(a, s)
        return c, gt.idwt(a, c)

    def check(self, item, result) -> dict:
        _, s = item
        c, back = result
        roundtrip = float(np.abs(back.values - s.values).max())
        _require(roundtrip <= 1e-9, f"round-trip error {roundtrip:.3e} > 1e-9")
        mean_gap = abs(complex(c.coeffs[0]) - complex(s.values.mean()))
        _require(mean_gap <= 1e-9, f"c_0 differs from the signal mean by {mean_gap:.3e}")
        return {"error.roundtrip_max": roundtrip}

    def cells(self, item) -> int:
        return len(item[1])

    def multiplies(self, item) -> int | None:
        s = item[1]
        return 2 * s.q * s.base ** (s.q + 1)


class ExchangeWire:
    """run_exchange on an InMemoryChannel: N=3, q=9, a few real signals."""

    name = "exchange-wire"
    REFERENCE = MixedReference
    SIGNALS = 4

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.a = gm.generate_random(3, seed)
        self.b = gp.solve_companion(self.a, 0.2)
        self.inputs = [gt.random_signal(3, 9, s) for s in _child_seeds(seed, self.SIGNALS)]

    def run(self, item):
        return gp.run_exchange(self.a, self.b, item)

    def check(self, item, result) -> dict:
        _require(not result.pairing_violated, "pairing condition reported violated")
        _require(result.max_error < 1e-7, f"exchange error {result.max_error:.3e} >= 1e-7")
        return {"error.exchange_max": float(result.max_error)}

    def cells(self, item) -> int:
        return len(item)

    def multiplies(self, item) -> int | None:
        return 4 * item.q * item.base ** (item.q + 1)


def _load_reference_values(root: Path):
    path = root / "tests" / "reference_values.py"
    spec = importlib.util.spec_from_file_location("gwalsh_reference_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class CliPaper:
    """The README CLI session on the paper's worked 27-cell scenario.

    The scenario is fixed by the paper; the seed does not change it.
    """

    name = "cli-paper"
    REFERENCE = MixedReference

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.ref = _load_reference_values(root)
        self.workdir = workdir
        self.inputs = [self.ref.SIGNAL_DIGITS]
        self.reference_files: dict[str, bytes] | None = None

    def run(self, item):
        d = Path(tempfile.mkdtemp(dir=self.workdir))
        a, b, c, g = (str(d / f) for f in ("A.json", "B.json", "c.csv", "g.csv"))
        codes = [
            gcli.main(["gen-matrix", "--entry", "0.7071067811865476", "--row", "2", "--out", a]),
            gcli.main(["solve-b", "--matrix", a, "--r", "0.2", "--out", b]),
            gcli.main(["encode", "--matrix", a, "--signal-inline", item, "--out", c]),
            gcli.main(["decode", "--matrix", a, "--in", c, "--out", g]),
            gcli.main(["series", "--matrix", a, "--signal-inline", item,
                       "--k-list", "27,36,60,81,100,200,241,300", "--out", str(d / "sweep.csv")]),
            gcli.main(["exchange", "--matrix", a, "--matrix-b", b, "--signal-inline", item,
                       "--msg-dir", str(d / "msgs"), "--out", str(d / "t.json")]),
        ]
        return d, codes

    def check(self, item, result) -> dict:
        d, codes = result
        try:
            _require(codes == [0] * 6, f"exit codes {codes}")
            coeffs = np.loadtxt(d / "c.csv", comments="#")
            _require(abs(coeffs[0] - self.ref.SIGNAL_MEAN) <= 1e-9, f"c_0 = {coeffs[0]!r}")
            tail_error = float(np.abs(coeffs[1:] - self.ref.ENCODED_TAIL).max())
            _require(tail_error <= 1e-9, f"encoded tail off by {tail_error:.3e}")
            transcript = json.loads((d / "t.json").read_text())
            _require(not transcript["pairing_violated"], "pairing condition reported violated")
            _require(transcript["max_error"] < 1e-7, f"exchange error {transcript['max_error']:.3e}")
            files = _tree_bytes(d)
            if self.reference_files is None:
                self.reference_files = files
            changed = sorted(k for k in files.keys() | self.reference_files.keys()
                             if files.get(k) != self.reference_files.get(k))
            _require(not changed, f"output differs from the first session: {changed}")
            return {"error.exchange_max": float(transcript["max_error"]),
                    "cli.bytes_written": sum(len(v) for v in files.values())}
        finally:
            shutil.rmtree(d)

    def cells(self, item) -> int:
        return len(item)

    def multiplies(self, item) -> int | None:
        return None


class VerifySuite:
    """solve-b --numeric then verify through the CLI, at three (N, q)."""

    name = "verify-suite"
    REFERENCE = MixedReference
    SIZES = ((3, 6), (5, 4), (8, 3))

    def __init__(self, seed: int, workdir: Path, root: Path):
        seeds = _child_seeds(seed, 2 * len(self.SIZES))
        self.inputs = []
        for i, (n, q) in enumerate(self.SIZES):
            a = workdir / f"A{n}.json"
            gm.save_matrix(gm.generate_random(n, seeds[2 * i]), a)
            self.inputs.append((n, q, seeds[2 * i + 1], a, workdir / f"B{n}.json",
                                workdir / f"report{n}.json"))

    def run(self, item):
        n, q, mask_seed, a, b, report = item
        return [
            gcli.main(["solve-b", "--matrix", str(a), "--numeric", "--mask-seed", str(mask_seed),
                       "--out", str(b)]),
            gcli.main(["verify", "--matrix", str(a), "--matrix-b", str(b), "--q", str(q),
                       "--out", str(report)]),
        ]

    def check(self, item, result) -> dict:
        *_, b, report = item
        _require(result == [0, 0], f"exit codes {result}")
        data = json.loads(report.read_text())
        _require(data.get("pass") is True, f"verify report failing: {data.get('failing')}")
        return {
            "error.gram_defect": data["gram_defect"],
            "error.kernel_deviation": data["kernel_max_deviation"],
            "error.pairing_basis_residual": data["pairing_basis_residual"],
            "cli.bytes_written": os.path.getsize(b) + os.path.getsize(report),
        }

    def cells(self, item) -> int:
        n, q = item[:2]
        return n**q

    def multiplies(self, item) -> int | None:
        return None


WORKLOADS = {w.name: w for w in (TransformBulk, ExchangeWire, CliPaper, VerifySuite)}
