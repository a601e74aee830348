"""gwalsh benchmark: four closed-loop workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 bench/run.py --workload transform-bulk --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the same workload with spans recorded around gwalsh's layer boundaries
(see ``spans.py``) and reports the per-layer metrics.  ``--workload all``
runs each workload in a fresh process, one after the other.  Metric
names, units and meanings are in ``metrics.json``.

The bounded timings are taken relative to a fixed reference computation
(``reference.py``) timed on the same core just before each op and each
set-up probe, so that the shared host's changes of speed cancel out; the
wall-clock figures are printed beside them.

Human-readable lines (environment, each metric with its unit, the error
rate and sample count) come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Traced runs also write their spans to ``.bench_out/``.

The program is imported from ``src/`` of the checkout and nowhere else;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Recorder, spans_to_json, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DICTIONARY = json.loads((BENCH / "metrics.json").read_text())
WORKLOAD_NAMES = tuple(DICTIONARY["workloads"])
# only metrics with a bound go into the result; the rest are printed (see metrics.json)
END_TO_END = [m for m, d in DICTIONARY["end_to_end"].items() if "bound" in d]
PER_LAYER = list(DICTIONARY["per_layer"])

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_CYCLES = 3  # timed cycles per run, whatever --seconds says
SETUP_PROBES = 5


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    """Pin BLAS to one thread, then import gwalsh from this checkout's src/."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "gwalsh" / "__init__.py").is_file():
        _fail(f"no gwalsh package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gwalsh

    if Path(gwalsh.__file__).resolve().parent != SRC / "gwalsh":
        _fail(f"imported gwalsh from {gwalsh.__file__}, not from {SRC}")
    return gwalsh


def _make_workload(name: str, seed: int, workdir: Path):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, workdir, ROOT)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = {}
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed ops, and the worst numerical errors seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, float] = {}

    def run_op(self, workload, item, context=None):
        """Run one op, then check it; return (seconds, check output) or None.

        Only ``workload.run`` is timed, and ``context`` (the tracing
        wrappers) covers only it.
        """
        self.attempted += 1
        try:
            with context or contextlib.nullcontext():
                start = time.perf_counter_ns()
                result = workload.run(item)
                elapsed = (time.perf_counter_ns() - start) / 1e9
            found = workload.check(item, result)
        except Exception:  # an op that raises or fails its check is counted, not fatal
            self.failed += 1
            if self.failed == 1:
                print(f"bench: op failed on {workload.name}:", file=sys.stderr)
                traceback.print_exc()
            return None
        for key, value in found.items():
            if key.startswith("error."):
                self.errors[key] = max(self.errors.get(key, 0.0), float(value))
        return elapsed, found


def warm_up(workload, tally: Tally) -> float:
    """First op on each distinct input, kept out of the timed loop; total ms."""
    total = 0.0
    for item in workload.inputs:
        done = tally.run_op(workload, item)
        total += done[0] if done else 0.0
    return total * 1e3


def _time_reference(reference) -> float:
    before = time.perf_counter_ns()
    reference()
    return (time.perf_counter_ns() - before) / 1e9


def timed_loop(workload, seconds: float, tally: Tally, reference) -> tuple[list, list]:
    """Untraced closed loop over the inputs in order.

    Runs whole cycles (one op on each input) until ``seconds`` have
    passed, and at least MIN_CYCLES.  Each op is preceded by one timed
    call of ``reference``.  Returns the op latencies and the reference
    times, both in seconds; a failed op reads NaN.
    """
    latencies: list[float] = []
    references: list[float] = []
    k = len(workload.inputs)
    start = time.perf_counter()
    while len(latencies) % k or not (
        time.perf_counter() - start >= seconds and len(latencies) >= MIN_CYCLES * k
    ):
        references.append(_time_reference(reference))
        done = tally.run_op(workload, workload.inputs[len(latencies) % k])
        latencies.append(math.nan if done is None else done[0])
    return latencies, references


def _per_input_medians(workload, values: list[float]) -> list[float]:
    k = len(workload.inputs)
    return [statistics.median([x for x in values[i::k] if not math.isnan(x)] or [math.inf])
            for i in range(k)]


def cells_per_s(workload, latencies: list[float]) -> float:
    """Cells of one cycle over the sum, per input, of its median op time."""
    cells = sum(workload.cells(item) for item in workload.inputs)
    return cells / sum(_per_input_medians(workload, latencies))


def cells_per_ref(workload, latencies: list[float], references: list[float]) -> float:
    """Like :func:`cells_per_s`, with each op timed in units of the reference.

    The unit for op j is the median of the reference calls made before
    ops j-2 to j+2: close enough in time to follow the host's changes of
    speed, and five calls, so that one slow call does not move it.
    """
    cells = sum(workload.cells(item) for item in workload.inputs)
    ratios = [op / statistics.median(references[max(0, j - 2):j + 3])
              for j, op in enumerate(latencies)]
    return cells / sum(_per_input_medians(workload, ratios))


def tail_percentile(n: int) -> int | None:
    """Highest multiple-of-5 percentile above 50 with at least 10 samples beyond it."""
    for p in range(90, 50, -5):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def setup_seconds(name: str, seed: int, reference, lines: list) -> float:
    """Set-up time of SETUP_PROBES fresh interpreters, scaled to reference speed.

    Each probe is preceded by three reference calls; the probe's time is
    multiplied by the reference's NOMINAL_S over their median, which gives
    the set-up time on the sizing host.  Median of the probes.  The
    wall-clock median is printed beside it.
    """
    wall, scaled = [], []
    for _ in range(SETUP_PROBES):
        ref = statistics.median(_time_reference(reference) for _ in range(3))
        wall.append(measure_setup(name, seed))
        scaled.append(wall[-1] * reference.NOMINAL_S / ref)
    lines.append(f"{name} setup_wall_s {statistics.median(wall):.6g} s")
    return statistics.median(scaled)


def end_to_end(workload, seed: int, seconds: float, tally: Tally, lines: list) -> dict:
    warm_up(workload, tally)
    # before the references' arrays exist, so that only gwalsh's memory counts
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    from reference import MixedReference  # numpy, so only after _import_program pinned BLAS

    # set-up is mostly import, interpreter-bound whatever the workload
    setup_reference, reference = MixedReference(), workload.REFERENCE()
    for _ in range(3):
        setup_reference()
        reference()
    setup = setup_seconds(workload.name, seed, setup_reference, lines)
    latencies, references = timed_loop(workload, seconds, tally, reference)
    name = workload.name
    ok = sorted(x * 1e3 for x in latencies if not math.isnan(x)) or [math.inf]
    lines.append(f"{name} latency_ms.p50 {statistics.median_high(ok):.6g} ms")
    tail = tail_percentile(len(ok))
    if tail is not None:
        lines.append(f"{name} latency_ms.p{tail} {ok[math.ceil(tail * len(ok) / 100) - 1]:.6g} ms")
    lines.append(f"{name} latency samples {len(ok)} ({len(latencies) // len(workload.inputs)} cycles)")
    lines.append(f"{name} cells_per_s {cells_per_s(workload, latencies):.6g} cells/s")
    lines.append(f"{name} reference_ms {statistics.median(references) * 1e3:.6g} ms")
    return {
        "cells_per_ref": cells_per_ref(workload, latencies, references),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def measure_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its inputs being ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        _fail(f"set-up probe for {name} failed (exit {code}): {(line + rest).strip()!r}")
    return elapsed


def setup_probe(name: str, seed: int) -> None:
    _import_program()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        _make_workload(name, seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir)


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def count_pass(workload, recorder, tally: Tally) -> tuple[dict, list]:
    """One traced op per distinct input; exact per-cycle counts and spans."""
    import gwalsh.transform as gt

    bytes_written = 0
    with gt.count_multiplies() as counter:
        for i, item in enumerate(workload.inputs):
            done = tally.run_op(workload, item, recorder.tracing(op=-1 - i))
            if done is not None:
                bytes_written += done[1].get("cli.bytes_written", 0)
    spans = recorder.take()
    layers = summarize(spans)
    lsq = layers["protocol.least_squares"]
    counts = {
        "transform.multiplies": counter.count,
        "transform.bytes_computed": _transform_total(layers, "bytes"),
        "protocol.wire_bytes": layers["protocol.channel_put"].counts["bytes"],
        "cli.bytes_written": bytes_written,
        "protocol.least_squares.calls": lsq.calls,
        "protocol.least_squares.nfev": lsq.counts["nfev"],
        "protocol.solver_yield": (
            layers["protocol.solve_companion_numeric"].counts["accepted"] / lsq.calls
            if lsq.calls else 0.0
        ),
        "basis.dirichlet_kernel.calls": layers["basis.dirichlet_kernel"].calls,
        "series.partial_sum.calls": layers["series.partial_sum"].calls,
    }
    return counts, spans


def _transform_total(layers, key: str):
    return sum(layers[f"transform.{f}"].counts[key] for f in ("dwt_fast", "idwt"))


def self_check(workload, counts: list[dict], spans: list, lines: list) -> bool:
    """Exact counts repeat, and multiplies match the closed form q * N^(q+1)."""
    ok = True
    if counts[0] != counts[1]:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        lines.append(f"self-check FAILED: counts differ between two passes: {diff}")
        ok = False
    closed = _transform_total(summarize(spans), "multiplies")
    per_op = [workload.multiplies(item) for item in workload.inputs]
    if None not in per_op and sum(per_op) != closed:
        lines.append(f"self-check FAILED: traced transforms {closed} != workload closed form {sum(per_op)}")
        ok = False
    if counts[0]["transform.multiplies"] != closed:
        lines.append(f"self-check FAILED: count_multiplies {counts[0]['transform.multiplies']}"
                     f" != closed form {closed}")
        ok = False
    if ok:
        lines.append(f"self-check ok: exact counts repeat; multiplies = closed form = {closed}")
    return ok


def per_layer(workload, seed: int, seconds: float, tally: Tally, lines: list):
    """Per-layer metrics from alternating untraced and traced cycles."""
    warmup_ms = warm_up(workload, tally)
    recorder = Recorder()
    if recorder.missing:
        lines.append(f"not traced (absent in this version): {', '.join(recorder.missing)}")
    passes = [count_pass(workload, recorder, tally) for _ in range(2)]
    checked = self_check(workload, [c for c, _ in passes], passes[0][1], lines)
    counts = passes[0][0]

    # whole cycles, alternately untraced and traced, so drift hits both alike
    latencies: dict[bool, list[float]] = {False: [], True: []}
    op = 0
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or min(map(len, latencies.values())) < MIN_CYCLES * len(workload.inputs)):
        traced = len(latencies[False]) > len(latencies[True])
        for item in workload.inputs:
            done = tally.run_op(workload, item, recorder.tracing(op) if traced else None)
            latencies[traced].append(math.nan if done is None else done[0])
            op += 1
    spans = recorder.take()
    layers = summarize(spans)
    transform_s = sum(sum(layers[f"transform.{f}"].ms) for f in ("dwt_fast", "idwt")) / 1e3
    codec = [layers[f"transform.{kind}_{way}_text"] for kind in ("signal", "coefficients")
             for way in ("to", "from")]
    codec_s = sum(sum(layer.ms) for layer in codec) / 1e3
    codec_bytes = sum(layer.counts["bytes"] for layer in codec)

    special = {
        "transform.mult_per_s": (
            _transform_total(layers, "multiplies") / transform_s if transform_s else 0.0
        ),
        "transform.codec_mb_per_s": codec_bytes / 1e6 / codec_s if codec_s else 0.0,
        "bench.warmup_ms": warmup_ms,
        "bench.trace_overhead": (cells_per_s(workload, latencies[True])
                                 / cells_per_s(workload, latencies[False])),
    }
    metrics = {}
    for name in PER_LAYER:
        if name in counts:
            metrics[name] = counts[name]
        elif name in special:
            metrics[name] = special[name]
        elif name.startswith("error."):
            metrics[name] = tally.errors.get(name, 0.0)
        elif name.endswith(".self_ms"):
            metrics[name] = layers[name.removesuffix(".self_ms")].median_self_ms()
        elif name.endswith(".ms"):
            metrics[name] = layers[name.removesuffix(".ms")].median_ms()
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
    lines.append(f"{len(latencies[True]) // len(workload.inputs)} traced and "
                 f"{len(latencies[False]) // len(workload.inputs)} untraced cycles")

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "environment": environment(workload.name, seed),
        "missing": recorder.missing,
        "count_pass_spans": spans_to_json(passes[0][1]),
        "timed_spans": spans_to_json(spans),
    }))
    lines.append(f"spans written to {trace_file.relative_to(ROOT)}")
    return metrics, checked


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    _import_program()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix="work-"))
    lines: list[str] = [f"env {json.dumps(environment(name, seed))}"]
    tally = Tally()
    try:
        workload = _make_workload(name, seed, workdir)
        if trace:
            metrics, checked = per_layer(workload, seed, seconds, tally, lines)
        else:
            metrics, checked = end_to_end(workload, seed, seconds, tally, lines), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected = PER_LAYER if trace else END_TO_END
    if list(metrics) != expected:
        _fail(f"computed metrics {sorted(metrics)} do not match metrics.json {sorted(expected)}")
    units = {**DICTIONARY["end_to_end"], **DICTIONARY["per_layer"]}
    for line in lines:
        print(line)
    for metric, value in metrics.items():
        print(f"{name} {metric} {value:.6g} {units[metric]['unit']}")
    print(f"{name} error_rate {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} ops failed)")
    return {
        "correct": tally.failed == 0 and checked,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]["unit"]} for m, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh process; metrics keyed <workload>.<metric>."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            _fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(out[:-1]), flush=True)
        result = json.loads(out[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
