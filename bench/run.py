#!/usr/bin/env python3
"""Benchmark of the prolate sweep tables.

Run from the root of a checkout:

    python3 bench/run.py --workload superres-sweep --seed 1 --seconds 30 --trace 0

The workload runs in this one process, with BLAS and OpenMP pinned to one
thread, for about ``--seconds`` seconds of whole rounds.  Afterwards every
output is checked against the independent oracles in ``oracles.py``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A fuller record (environment, every case, failures) goes to
``.bench_out/result-<workload>-<seed>-<trace>.json``.
"""

import os
import sys
import time

# before numpy is imported anywhere in this process or its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 7
SETUP_TIMEOUT = 60.0


def import_program():
    """Import numpy and the checkout's own ``prolate``; None if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "prolate", "cli.py")):
        return None
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import prolate
    import prolate.cli  # noqa: F401
    if not os.path.abspath(prolate.__file__).startswith(SRC + os.sep):
        return None
    return prolate


def round_rng(seed: int, k: int):
    import numpy as np
    return np.random.default_rng([seed, k])


def measure_setup(workload: str, seed: int) -> list:
    """Wall times from spawning a fresh interpreter to the point where it has
    imported numpy and prolate and made its first round of inputs."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=SETUP_TIMEOUT)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {line!r}, exit {proc.returncode}")
        times.append(elapsed)
    return times


def blas_threads():
    """Threads the bundled OpenBLAS reports, or the pinned variable's value."""
    import ctypes
    import numpy
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                           "numpy.libs", "*openblas*.so*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(args) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
        "numpy": numpy.__version__, "python": sys.version.split()[0],
    }


def run_rounds(wl, seed: int, seconds: float, traced: bool, workdir: str):
    """Whole rounds until about ``seconds`` of wall time have passed.

    In a traced run the rounds come in pairs on the same inputs, untraced
    then traced, so the pair's time difference is the tracing overhead; the
    run ends after a traced round.
    """
    from tracing import Tracer
    from workloads import Outcome
    outcomes, rounds = [], []
    start = time.perf_counter()
    k = 0
    while True:
        tracer = Tracer() if traced and k % 2 == 1 else None
        cases = wl.plan(round_rng(seed, k // 2 if traced else k))
        if tracer:
            tracer.install()
        round_cases = []
        try:
            for case in cases:
                t0 = time.perf_counter()
                # a case that raises is a failed case, not the end of the run
                try:
                    raw, error = wl.run(case, workdir), None
                except Exception as exc:
                    raw, error = None, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                output = None
                if error is None:   # parsing the output files is not part of the case
                    try:
                        output = wl.read(raw)
                    except Exception as exc:
                        error = f"unreadable output: {type(exc).__name__}: {exc}"
                round_cases.append(Outcome(case, dt, output, error))
        finally:
            if tracer:
                tracer.uninstall()
        outcomes += round_cases
        rounds.append({"traced": tracer is not None, "tracer": tracer,
                       "seconds": sum(oc.seconds for oc in round_cases)})
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / k >= seconds and (not traced or k % 2 == 0):
            return outcomes, rounds


def check_outcomes(wl, outcomes) -> tuple[bool, list]:
    """Check every case against the oracles; return (correct, failures)."""
    import oracles
    from workloads import expected_failure
    oracles.self_check()
    failures, correct = [], True
    def check(oc):
        try:
            return wl.check(oc.case, oc.output)
        except Exception as exc:
            return [f"check raised {type(exc).__name__}: {exc}"]

    fixed = {}   # a fixed case repeats every round; check each distinct output once
    for oc in outcomes:
        if oc.error is not None:
            pass
        elif oc.case.fault is None:
            oc.problems = check(oc)
        else:
            key = (repr(oc.case.params), hashlib.sha256(pickle.dumps(oc.output)).digest())
            if key not in fixed:
                fixed[key] = check(oc)
            oc.problems = list(fixed[key])
        if oc.failed:
            expected = expected_failure(oc)
            correct = correct and expected
            failures.append({"case": oc.case.label, "fault": oc.case.fault,
                             "expected": expected,
                             "reason": oc.error or "; ".join(oc.problems)})
    return correct, failures


def end_to_end(wl, outcomes, setup_times, peak_kib) -> dict:
    passed = [oc for oc in outcomes if not oc.failed]
    timed = sum(oc.seconds for oc in outcomes)
    rows = sum(wl.rows(oc.output) for oc in passed)
    p50 = statistics.median(oc.seconds for oc in passed) if passed else float("nan")
    return {
        "rows_per_s": {"value": rows / timed, "unit": "rows/s"},
        "case_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
    }


PER_LAYER_COUNTS = (
    "quadrature.gauss_legendre.calls", "quadrature.leggauss.solves",
    "quadrature.real_line_rule.calls", "quadrature.real_line_rule.nodes",
    "bandlimited.project.calls", "basis.extension_matrix.calls",
    "basis.extension_matrix.entries", "basis.build_basis.calls",
    "superres.probe_from_model.calls", "superres.gamma_modes.calls",
    "superres.superres_fisher.calls", "metrology.fisher_matrix.model_evals",
    "metrology.crb.calls", "metrology.crb.singular", "io.write_csv.bytes",
)
PER_LAYER_TIMES = (
    "quadrature.gauss_legendre", "quadrature.real_line_rule", "bandlimited.project",
    "basis.extension_matrix", "basis.build_basis", "hermite.hg_eval",
    "superres.probe_from_model", "superres.gamma_modes", "superres.superres_fisher",
    "metrology.fisher_matrix", "metrology.probabilities", "io.write_csv",
    "io.write_manifest", "cli.main",
)


def per_layer(rounds) -> dict:
    """Counts of the first traced round; self times are medians over traced rounds."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    first = traced[0]["tracer"]
    out = {}
    for name in PER_LAYER_COUNTS:
        unit = "bytes" if name.endswith(".bytes") else "count"
        out[name] = {"value": int(first.counts[name]), "unit": unit}
    selfs = [r["tracer"].self_ms() for r in traced]
    for layer in PER_LAYER_TIMES:
        out[f"{layer}.self_ms"] = {"value": float(statistics.median(s[layer] for s in selfs)),
                                   "unit": "ms"}
    ratios = [t["seconds"] / p["seconds"] for p, t in zip(plain, traced)]
    out["trace.overhead_pct"] = {"value": (statistics.median(ratios) - 1.0) * 100.0,
                                 "unit": "%"}
    out["trace.spans"] = {"value": len(first.spans), "unit": "count"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if import_program() is None:
        print(f"bench: no prolate sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.plan(round_rng(args.seed, 0))
        print("ready", flush=True)
        return 0
    if not args.seconds > 0.0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    # the program's data files go to a directory of this run's own
    workdir = tempfile.mkdtemp(prefix=f"run-{args.workload}-{args.seed}-", dir=OUT_DIR)
    try:
        outcomes, rounds = run_rounds(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t_check = time.perf_counter()
    correct, failures = check_outcomes(wl, outcomes)
    check_s = time.perf_counter() - t_check

    if args.trace:
        metrics = per_layer(rounds)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for i, r in enumerate(rounds):
                if r["traced"]:
                    r["tracer"].write(fh, round_index=i)
    else:
        metrics = end_to_end(wl, outcomes, setup_times, peak_kib)
    result = {"correct": correct, "attempted": len(outcomes),
              "failed": sum(oc.failed for oc in outcomes), "metrics": metrics}
    record = {
        "environment": environment(args), "result": result,
        "rounds": len(rounds), "setup_samples_s": setup_times, "check_s": check_s,
        "cases": [{"case": oc.case.label, "seconds": oc.seconds, "failed": oc.failed}
                  for oc in outcomes],
        "failures": failures,
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": record["environment"], "rounds": len(rounds),
                      "unexpected_failures": [f for f in failures if not f["expected"]]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
