"""Benchmark for condcl: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 25 --trace 0

Run from the repository root; condcl is imported from ``src/``. Inputs are
generated from ``--seed`` in a child process, written as files, and loaded
through condcl's loaders. ``setup_s`` is the median wall time of fresh
interpreters that import condcl and exit, plus the median time of repeated
loads of the inputs. Each workload has two phases. One untimed warm-up
round of each comes first; then a single caller runs them in alternating
rounds for ``--seconds``, and a phase's throughput is its units over its
time, summed over its rounds:

    train-small   a: C-STS training examples/s   b: KGC training examples/s
    eval-paper    a: KGC ranking queries/s       b: C-STS evaluated records/s
    serve-stream  a: hyper requests/s            b: bi requests/s

Outputs are checked against independent numpy references after the timed
loops; a round whose output fails a check counts all its operations as
failed. ``--trace 1`` first runs the phases untraced, then wraps every layer
boundary and runs the same rounds again, and reports per-layer metrics plus
the tracing overhead (traced minus untraced wall time). ``--workload all``
runs every workload in turn for a human reader. The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"
INPUT_TIMEOUT_S = 600
STARTUP_TIMEOUT_S = 60
MODULES = (
    "condcl",
    "condcl.autodiff",
    "condcl.cache",
    "condcl.encoder",
    "condcl.evaluation",
    "condcl.hypernet",
    "condcl.losses",
    "condcl.trainer",
)

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "a_per_s": "1/s",
    "b_per_s": "1/s",
}

_clock = time.perf_counter


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no condcl source, inputs failed)."""


def import_condcl():
    if not (ROOT / "src" / "condcl").is_dir():
        raise SetupError(f"no condcl package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    for name in MODULES:
        importlib.import_module(name)
    return sys.modules["condcl"]


def startup_times(reps: int) -> list[float]:
    """Wall time of ``reps`` fresh interpreters that import condcl and exit."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import {', '.join(MODULES)}"
    times = []
    for _ in range(reps):
        t0 = _clock()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=STARTUP_TIMEOUT_S)
        times.append(_clock() - t0)
    return times


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        so = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(so, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
    }


def make_inputs(workload: str, seed: int, sizes, out: Path) -> None:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "inputs.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--out",
            str(out),
            "--sizes",
            json.dumps(asdict(sizes)),
        ],
        cwd=ROOT,
        timeout=INPUT_TIMEOUT_S,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SetupError(f"input generation failed:\n{proc.stderr}")
    # Flush the new files now; otherwise the kernel writes them back (hundreds
    # of MB for the checkpoint) in the middle of the timed phases.
    for path in out.iterdir():
        with path.open("rb") as fh:
            os.fsync(fh.fileno())


def run_phases(wl, seconds: float, rounds: dict | None = None):
    """Closed loop, one caller: rounds of each phase in turn until ``seconds`` pass.

    Alternating the phases spreads each one over the whole run, so a slow
    stretch of the machine falls on both. With ``rounds`` given, runs exactly
    that many rounds per phase instead.
    """
    out = {p: {"rounds": [], "errors": []} for p in wl.phase_names}
    active = list(wl.phase_names)
    start = _clock()
    k = 0
    while active:
        for phase in list(active):
            t0 = _clock()
            try:
                r = wl.round(phase, k)
            except Exception:  # the loop reports a failing program, it does not crash
                out[phase]["errors"].append(traceback.format_exc())
                active.remove(phase)
                continue
            r.seconds = _clock() - t0
            out[phase]["rounds"].append(r)
        k += 1
        if rounds is not None:
            active = [p for p in active if len(out[p]["rounds"]) < rounds[p]]
        elif _clock() - start >= seconds:
            break
    return out


def phase_rate(res) -> float:
    """Units per second over all rounds of a phase; 0 when no round completed.

    The machine's speed can flip between states lasting seconds; the total
    over the run averages the states where a median of rounds jumps between
    them.
    """
    seconds = sum(r.seconds for r in res["rounds"])
    return sum(r.units for r in res["rounds"]) / seconds if seconds > 0 else 0.0


def check_phases(wl, phases) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for phase, res in phases.items():
        attempted += sum(r.ops for r in res["rounds"]) + len(res["errors"])
        failed += len(res["errors"])
        problems += [f"{phase}: {e.strip().splitlines()[-1]}" for e in res["errors"]]
        if not res["rounds"]:
            continue
        try:
            per_round = wl.check(phase, res["rounds"])
        except Exception:  # an output the checker cannot read fails every round
            last = traceback.format_exc().strip().splitlines()[-1]
            per_round = [[f"check raised {last}"]] * len(res["rounds"])
        for r, round_problems in zip(res["rounds"], per_round):
            if round_problems:
                failed += r.ops
                problems += [f"{phase}: {p}" for p in round_problems]
    return attempted, failed, problems


def setup(wl_cls, cd, sizes, seed: int, data: Path) -> tuple[object, list[float]]:
    """Load the inputs ``setup_reps`` times; returns the last workload and the times."""
    times = []
    wl = None
    for _ in range(sizes.setup_reps):
        wl = None  # drop the previous copy before loading the next one
        gc.collect()
        wl = wl_cls(cd, sizes, seed, data)
        t0 = _clock()
        wl.load()
        times.append(_clock() - t0)
    return wl, times


def run(cd, workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One workload run."""
    import inputs as inp
    import tracer as tr
    import workloads

    sizes = sizes or inp.Sizes()
    wl_cls = workloads.WORKLOADS[workload]
    data = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        make_inputs(workload, seed, sizes, data)
        startup = startup_times(sizes.setup_reps)
        tracer = tr.Tracer()
        if trace:
            tr.instrument(tracer, cd, loaders_only=True)
        try:
            wl, setup_times = setup(wl_cls, cd, sizes, seed, data)
        finally:
            tracer.restore()
        # Untimed, but checked: the first call of a phase touches memory and
        # state the later calls reuse.
        warmup = run_phases(wl, seconds, {p: 1 for p in wl.phase_names})
        phases = run_phases(wl, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes = [warmup, phases]
        if trace:
            rounds = {p: len(res["rounds"]) + len(res["errors"]) for p, res in phases.items()}
            tr.instrument(tracer, cd)
            wl.wrap_provider = lambda provider: tr.TracedProvider(provider, tracer)
            wl.end_op = lambda: setattr(tracer, "op", tracer.op + 1)
            try:
                traced = run_phases(wl, seconds, rounds)
            finally:
                tracer.restore()
                wl.wrap_provider = workloads._identity
                wl.end_op = None
            passes.append(traced)
        attempted = failed = 0
        problems: list[str] = []
        for p in passes:
            a, f, probs = check_phases(wl, p)
            attempted, failed, problems = attempted + a, failed + f, problems + probs
        a, f, probs = wl.extra_checks()
        attempted, failed, problems = attempted + a, failed + f, problems + probs

        values = {
            "setup_s": statistics.median(startup) + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "a_per_s": phase_rate(phases["a"]),
            "b_per_s": phase_rate(phases["b"]),
        }
        named = {
            "setup_s": (values["setup_s"], "s"),
            "peak_rss_mb": (values["peak_rss_mb"], "MB"),
            **wl.named_metrics(
                {**values, "latencies_a": [x for r in phases["a"]["rounds"] for x in r.latencies]}
            ),
        }
        if trace:
            wall = [sum(r.seconds for res in p.values() for r in res["rounds"]) for p in (phases, traced)]
            rounds_by_phase = {p: res["rounds"] for p, res in phases.items()}
            layer = tr.layer_metrics(
                tracer, sizes.setup_reps, wall[1] - wall[0], wl.layer_counts(rounds_by_phase)
            )
            tracer.write(TRACE_OUT / f"trace-{workload}-seed{seed}.tsv")
            metrics = {k: {"value": v, "unit": tr.PER_LAYER_UNITS[k]} for k, v in layer.items()}
        else:
            metrics = {k: {"value": float(v), "unit": E2E_UNITS[k]} for k, v in values.items()}
        return {
            "workload": workload,
            "named": named,
            "problems": problems,
            "result": {
                "correct": failed == 0 and not problems,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            },
        }
    finally:
        shutil.rmtree(data, ignore_errors=True)


def report(out: dict) -> None:
    print(f"# workload {out['workload']}")
    for name, (value, unit) in out["named"].items():
        print(f"{name} {value:.6g} {unit}")
    res = out["result"]
    print(f"operations attempted {res['attempted']} failed {res['failed']}")
    for p in out["problems"][:20]:
        print(f"check failed: {p}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="condcl benchmark")
    parser.add_argument("--workload", required=True, help="train-small, eval-paper, serve-stream or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        import workloads

        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        if any(n not in workloads.WORKLOADS for n in names):
            parser.error(f"unknown workload {args.workload!r}")
        cd = import_condcl()
        print("# env " + json.dumps(environment()))
        outs = [run(cd, n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (SetupError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for out in outs:
        report(out)
    if len(outs) == 1:
        print(json.dumps(outs[0]["result"]))
    else:
        print(json.dumps({o["workload"]: o["result"] for o in outs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
