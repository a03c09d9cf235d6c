"""Benchmark of the ``illiq`` package: four workloads, each checked against an oracle.

    python3 perfbench/run.py --workload fd_call --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload in turn
    python3 perfbench/run.py --workload call_mc --seed 1 --smoke   # toy sizes, one flow

With ``--trace 0`` the run sets up, then repeats the workload's flow (closed
loop, one flow at a time) while the next flow still fits in ``--seconds``
(``run_seconds`` of BENCHMARK.json when omitted; ``--smoke`` times a single
flow), checks every flow's outputs, and reports the end-to-end metrics of
BENCHMARK.json.  Times are scaled to the machine's nominal speed with the
fixed computation of ``reference.py``, timed next to every flow and set-up.
With ``--trace 1`` it runs one flow untraced and one flow with a span
around every public function of the package, and reports the per-layer
metrics.  The last line of standard output is one JSON object
with keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when any flow failed its checks.  The package is imported from
``src/`` next to this directory; without it the run stops with exit code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("fd_call", "spread_sweep", "n2_oracles", "call_mc")
BLAS_THREADS = "1"
SETUP_REPEATS = 5

# the package is sequential; one BLAS thread keeps every workload single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def _die(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_package():
    """Import ``illiq`` from this checkout's ``src/`` and nothing else."""
    if not (SRC / "illiq" / "__init__.py").is_file():
        _die(f"no package source at {SRC / 'illiq'}")
    sys.path.insert(0, str(SRC))
    import illiq

    if Path(illiq.__file__).resolve().parent != (SRC / "illiq").resolve():
        _die(f"imported illiq from {illiq.__file__}, not from {SRC}")
    return illiq


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _setup(name: str, seed: int, smoke: bool, workdir: Path):
    """Import the package and build the workload's inputs; returns the
    workload, its inputs and the seconds this took."""
    t0 = time.perf_counter()
    _import_package()
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(workdir, seed, smoke)
    return wl, inputs, time.perf_counter() - t0


def _setup_probe(args) -> None:
    """Child process: time one fresh set-up, then the reference computation,
    and print both."""
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=SCRATCH))
    try:
        _, _, seconds = _setup(args.workload, args.seed, args.smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import reference

    print(repr(seconds), repr(reference.seconds()))


def _fresh_setups(args) -> list:
    """(set-up, reference) seconds of fresh interpreters, one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            _die(f"set-up probe failed: {proc.stderr.strip()}", 1)
        out.append(tuple(float(x) for x in proc.stdout.strip().splitlines()[-1].split()))
    return out


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _run_flow(wl, inputs, workdir: Path, index: int, tracer=None):
    """One timed flow and its untimed check; outputs are deleted after.
    A tracer wraps the package for the flow only, so the check's oracle
    references add no spans."""
    outdir = workdir / f"flow{index}"
    outdir.mkdir()
    raw, result, error = None, None, ""
    try:
        if tracer is not None:
            tracer.install(sys.modules["illiq"])
        t0 = time.perf_counter()
        try:
            raw = wl.flow(inputs, outdir)
        except Exception:  # a crashing flow counts as a failed operation
            error = traceback.format_exc(limit=3)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        out_bytes = _tree_bytes(outdir)
        if raw is not None:
            try:
                result = wl.check(inputs, raw, outdir)
            except Exception:
                error = traceback.format_exc(limit=3)
        return wall, result, error, out_bytes
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def _machine(args, illiq) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "illiq").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "illiq": illiq.__version__,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "ILLIQ_THREADS": os.environ.get("ILLIQ_THREADS"),
        "loadavg": os.getloadavg(),
    }


def _report_flow(index, wall, result, error, out_bytes) -> bool:
    """Print a flow's outcome (failures always, successes for the first few)."""
    if result is None:
        print(f"flow {index}: FAILED after {wall:.3f} s\n{error}")
        return False
    if result.ok and index >= 5:
        return True
    status = "ok" if result.ok else "FAILED: " + "; ".join(result.notes)
    extra = f", {result.info}" if result.info else ""
    print(f"flow {index}: wall {wall:.4f} s, oracle_err {result.oracle_err:.6g}, "
          f"outputs {out_bytes} bytes{extra} -> {status}")
    return result.ok


def _measure(seconds: float, wl, inputs, workdir: Path):
    """Flows, one at a time, while the next one should end within ``seconds``,
    with the reference computation timed before each flow and after the last."""
    import reference

    walls, refs, errs, failed = [], [reference.seconds()], [], 0
    start = time.perf_counter()
    while True:
        wall, result, error, out_bytes = _run_flow(wl, inputs, workdir, len(walls))
        walls.append(wall)
        refs.append(reference.seconds())
        if _report_flow(len(walls) - 1, wall, result, error, out_bytes):
            errs.append(result.oracle_err)
        else:
            failed += 1
        if time.perf_counter() - start + max(walls) + max(refs) > seconds:
            return walls, refs, errs, failed


def _traced(wl, inputs, workdir: Path):
    """One untraced flow, then one flow with every public function wrapped."""
    import tracing

    wall_plain, *outcome = _run_flow(wl, inputs, workdir, 0)
    ok_plain = _report_flow(0, wall_plain, *outcome)
    tracer = tracing.Tracer()
    wall, *outcome = _run_flow(wl, inputs, workdir, 1, tracer)
    ok_traced = _report_flow(1, wall, *outcome)
    metrics = tracer.metrics(wall)
    metrics["trace.overhead_s"] = wall - wall_plain
    shares = {layer: metrics.get(f"{layer}.self_s", 0.0) / wall for layer in tracing.LAYERS}
    print("self-time shares of the traced wall: "
          + ", ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items()))
    return metrics, 2, int(not ok_plain) + int(not ok_traced)


def _emit(correct, attempted, failed, metrics, wanted) -> None:
    values, absent = {}, []
    for m in wanted:
        if m["name"] in metrics:
            values[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        else:
            absent.append(m["name"])
    for name, entry in values.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    if absent:
        print("absent: " + ", ".join(absent))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": values}))


def _run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}: exit {proc.returncode}")
        print("\n".join(lines[:-1]))
        if proc.stderr.strip():
            print(proc.stderr.strip())
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of a run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes for tests, one flow: 81x100 FD lattices, 121x161 "
                             "for the oracles, 200 paths x 50 steps")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _setup_probe(args)
        return 0
    spec = _spec()
    if args.smoke:
        args.seconds = 0.0  # the closed loop stops after one flow
    elif args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return _run_all(args)

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        wl, inputs, first_setup = _setup(args.workload, args.seed, args.smoke, workdir)
        illiq = sys.modules["illiq"]
        print("machine " + json.dumps(_machine(args, illiq)))
        if args.trace:
            metrics, attempted, failed = _traced(wl, inputs, workdir)
            wanted = spec["per_layer"]
        else:
            import reference

            setups = [(first_setup, reference.seconds())] + _fresh_setups(args)
            walls, refs, errs, failed = _measure(args.seconds, wl, inputs, workdir)
            attempted = len(walls)
            # each flow against the mean of the reference timed just before and after it
            slowdowns = [(a + b) / (2.0 * reference.NOMINAL_S) for a, b in zip(refs, refs[1:])]
            print(f"{attempted} flows, raw wall min/median/max {min(walls):.4f} / "
                  f"{statistics.median(walls):.4f} / {max(walls):.4f} s; "
                  f"raw set-ups {', '.join(f'{s:.4f}' for s, _ in setups)} s, "
                  f"reference after each {', '.join(f'{r:.4f}' for _, r in setups)} s")
            print("walls " + " ".join(f"{w:.4f}" for w in walls[:100]))
            print("reference " + " ".join(f"{r:.4f}" for r in refs[:100])
                  + f"; median slowdown {statistics.median(slowdowns):.4f} "
                  f"(over {reference.NOMINAL_S} s)")
            metrics = {
                "wall_s": statistics.median([w / k for w, k in zip(walls, slowdowns)]),
                "setup_s": reference.NOMINAL_S * statistics.median([s / r for s, r in setups]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            if errs:
                metrics["oracle_err"] = statistics.median(errs)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _emit(failed == 0, attempted, failed, metrics, wanted)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
