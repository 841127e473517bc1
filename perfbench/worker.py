"""One pass of one workload in a fresh process; prints one JSON line.

Started by ``run.py`` with the monotonic time at which it launched this
process, so set-up time covers interpreter start, ``import dpsgld`` and
building the workload's configs and schedules. Not meant to be run by hand.

Usage: worker.py WORKLOAD SEED LAUNCHED TRACE TINY
"""

import json
import os
import platform
import resource
import sys
import time
import traceback

import workloads
from tracer import Tracer


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def machine_record() -> dict:
    """nproc, CPU model, interpreter and numeric-library versions, BLAS threads."""
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def tiny_variant(workload):
    """The same workload at sizes small enough for a smoke check."""
    from dataclasses import replace

    if isinstance(workload, workloads.AccountantWorkload):
        return replace(workload, single_pass_T=(100, 1000), multi_pass=((100, 1.0), (200, 0.5)))
    return replace(
        workload,
        replicates=2,
        n_test=200,
        d_grid=workload.d_grid[:1],
        eps_grid=workload.eps_grid[:1],
    )


def one_pass(name: str, seed: int, launched: float, trace: bool, tiny: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    if tiny:
        workload, reference = tiny_variant(workload), None
    else:
        reference = workloads.load_reference()[name]
    prepared = workload.setup(seed)
    setup_s = time.monotonic() - launched

    tracer = Tracer() if trace else None
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    output, error = None, None
    try:
        if tracer is None:
            output = workload.run(prepared)
        else:
            with tracer.installed():
                output = workload.run(prepared)
    except Exception:
        error = traceback.format_exc()
    run_s = time.perf_counter() - started
    cpu_s = _cpu_seconds() - cpu_before

    if error is None:
        attempted, failures = workload.check(prepared, output, reference)
        rendered = output[1]
        sha256 = workloads.fingerprint(rendered)
        recorded = None
        if reference is not None:
            recorded = reference.get("sha256") or reference["seeds"].get(str(seed), {}).get(
                "sha256"
            )
    else:
        attempted = len(prepared.expected)
        failures = [f"{name}: run raised\n{error}"] * attempted
        sha256 = recorded = None
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps": prepared.steps,
        "attempted": attempted,
        "failures": failures,
        "sha256": sha256,
        "output_changed": None if recorded is None else sha256 != recorded,
        "traced": trace,
        "machine": machine_record(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(run_s, workload.dominant)
        result["dominant"] = [workload.dominant, workload.dominant_min_share]
    return result


if __name__ == "__main__":
    name, seed, launched, trace, tiny = sys.argv[1:]
    report = one_pass(name, int(seed), float(launched), trace == "1", tiny == "1")
    sys.stdout.write(json.dumps(report) + "\n")
