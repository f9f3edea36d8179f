"""Benchmark command for the tfilm package.

    python3 perfbench/run.py --workload sr-train --seed 1 --seconds 20 --trace 0

Runs one workload from ``perfbench/workloads.py`` against the package in
``src/`` of the checkout this file sits in. It sets up several times,
then repeats the workload's unit of work for about ``--seconds`` and
checks every output. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced units and
reports per-layer metrics from the spans (see ``tracer.py``). The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A record with the machine, sample counts and
any failed checks goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# set-ups are repeated between units while they add up to less than this
# share of the unit time: about 4 s in a 35 s run, and spread over the run
# so that they meet the same machine states as the units
SETUP_SHARE = 0.12


def blas_record():
    """Library, version and live thread count of numpy's bundled OpenBLAS.

    If OpenBLAS runs more threads than this process may use, it is capped
    at ``nproc`` so that the load stays within the allowed cores.
    """
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    rec = {"blas": None, "blas_version": None, "blas_threads": None}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"], rec["blas_version"] = info.get("name"), info.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    if not libs:
        return rec
    lib = ctypes.CDLL(str(libs[0]))
    if not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        return rec
    get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.restype = ctypes.c_int
    get.argtypes = []
    put.restype = None
    put.argtypes = [ctypes.c_int]
    threads = get()
    if threads > nproc:
        rec["blas_threads_capped_from"] = threads
        put(nproc)
        threads = get()
    rec["blas_threads"] = threads
    return rec


def machine_record():
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_record(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "TFILM_THREADS": os.environ.get("TFILM_THREADS"),
    }


def tail_quantile(n):
    """The highest quantile with at least ten samples beyond it, and not
    below the median."""
    return max(0.5, 1.0 - 10.0 / n)


@contextlib.contextmanager
def phase(tracer, name):
    """A benchmark phase; traced (wrappers installed) when ``tracer`` is set."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        with tracer.span(name):
            yield
    finally:
        tracer.remove()


def check_reference(wl, reference, checks):
    """Run the workload's reference case and compare it with the values
    recorded in ``reference.json``."""
    from tfilm.errors import TfilmError

    recorded = reference.get(wl.name, {})
    # a size has its own values only where they differ from the full size's
    want = recorded.get(wl.size, recorded.get("full"))
    try:
        got = wl.reference_case(checks)
    except TfilmError as exc:
        checks.expect(False, f"reference case raised {exc!r}")
        return
    if checks.expect(want is not None and set(want) == set(got),
                     "reference values recorded for this workload and size"):
        for key in sorted(want):
            checks.close(got[key], want[key], f"reference: {key}")


def measure(wl, seconds, checks, reference, tracer=None):
    """Set up, run the reference case (which also warms the code paths
    up), then repeat units for about ``seconds`` of unit time. Before
    each unit, set up again while the set-ups add up to less than
    SETUP_SHARE of the unit time so far.

    With a tracer, units alternate untraced and traced, starting untraced.
    A unit that raises counts as a failed check. Returns the set-up times
    and a list of (unit, traced) pairs.
    """
    from tfilm.errors import TfilmError
    from tracer import SETUP, UNIT

    setup_times = []

    def set_up():
        with phase(tracer, SETUP):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)

    set_up()
    check_reference(wl, reference, checks)
    wl.warm_up()

    units = []
    unit_s = 0.0
    min_units = 2 if tracer else 1
    for attempt in itertools.count(1):
        while sum(setup_times) < SETUP_SHARE * unit_s:
            set_up()
        t0 = time.perf_counter()
        traced = tracer is not None and attempt % 2 == 0
        wl.prepare()
        with phase(tracer if traced else None, UNIT):
            try:
                units.append((wl.unit(checks), traced))
            except TfilmError as exc:
                checks.expect(False, f"unit raised {exc!r}")
        last = time.perf_counter() - t0
        unit_s += last
        # stop where the next unit would end more than half a unit late
        if attempt >= min_units and unit_s + last / 2 >= seconds:
            return setup_times, units


def run(workload, seed, seconds, trace, size="full"):
    """Run one workload; returns (result, record)."""
    import numpy as np

    import tracer as tracing
    from workloads import WORKLOADS, Checks

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    machine = machine_record()
    checks = Checks()
    tracer = tracing.Tracer() if trace else None
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        wl = WORKLOADS[workload](workload, seed, size, tmp)
        setup_times, units = measure(wl, seconds, checks, reference, tracer)
        loss_final = wl.finish(checks)
        tape = tracing.tape_stats(wl.tape_output()) if trace else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [u for u, traced in units if not traced]
    latencies = [x for u in plain for x in u.latencies]
    q = tail_quantile(len(latencies))
    detail = {
        "units": len(plain),
        "unit_seconds": [u.seconds for u, _ in units],
        "latency_samples": len(latencies),
        "tail_quantile": q,
        # recorded, not declared: its run-to-run spread here exceeds any bound
        "patch_s.tail": float(np.quantile(latencies, q)),
        "setup_s_all": setup_times,
        "ops_failed_frac": checks.failed / max(checks.attempted, 1),
        "failures": checks.failures,
    }
    if trace:
        traced = [u for u, t in units if t]
        metrics = tracer.layer_metrics()
        metrics["tensor.tape_nodes"] = tape[0]
        metrics["tensor.tape_mb"] = tape[1] / 2 ** 20
        metrics["trace_overhead"] = (statistics.median(u.seconds for u in traced)
                                     / statistics.median(u.seconds for u in plain) - 1.0)
        detail["traced_units"] = len(traced)
        tracer.write(OUT / f"{workload}-seed{seed}-spans.json")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "samples_per_s": statistics.median(u.samples / u.seconds for u in plain),
            "patch_s.p50": float(np.quantile(latencies, 0.5)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "loss_final": loss_final,
        }
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "machine": machine, "detail": detail, "result": result}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return result, record


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tfilm").is_dir():
        print(f"no tfilm package under {src}", file=sys.stderr)
        return 2
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)

    report(*run(args.workload, args.seed, args.seconds, args.trace))
    return 0


def report(result, record):
    """Print the machine record, a summary, the metrics and, last, the result."""
    print("machine " + json.dumps(record["machine"]))
    d = record["detail"]
    print(f"{record['workload']} seed {record['seed']}: {d['units']} units; "
          f"patch_s.tail = p{100 * d['tail_quantile']:.0f} of {d['latency_samples']} "
          f"samples = {d['patch_s.tail']:.6g} s; ops_failed_frac {d['ops_failed_frac']:.4g} "
          f"({result['failed']}/{result['attempted']})")
    for failure in d["failures"]:
        print(f"  FAILED {failure}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
