"""klsums benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {ladder,scan,spectrum,sums} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
A run sets up the workload's inputs from the seed, runs one untimed warm-up
pass, then repeats the same pass (a closed loop, one caller, one process)
for S seconds, checks the outputs outside the timed phase and prints the
result as its last line.  Before every timed pass the inputs (fields,
tables) are built afresh, untimed, so that work a pass caches on its input
objects is paid in every pass, as a user pays it on every run.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of one pass, in reference-host seconds
  setup_s      median over SETUP_PROBES fresh processes (setup_probe.py,
               spread over the run) of the time from starting the process
               to klsums imported and the workload's inputs built, in
               reference-host seconds
  peak_rss_mb  peak resident memory of this process after set-up and the
               warm-up pass
  ok_frac      operations that returned and passed their check / attempted
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics: spans of one invocation (one traced set-up plus one pass), and the
tracing overhead (median traced minus median untraced pass, in seconds).

Reference-host seconds: the host is shared, and the speed it gives this
process drifts by up to 1.5x over minutes, so both times are scaled by how
fast a fixed numpy kernel ran between the passes (hostspeed.py).  The info
line keeps the unscaled times and the scale.
"""

import time

T_START = time.perf_counter()  # before any other import: import_s starts here

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy is imported

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 3
SETUP_PROBES = 5
HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import klsums from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "klsums", "__init__.py")):
        sys.exit(f"perfbench: no klsums sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import klsums

    if os.path.dirname(os.path.dirname(os.path.abspath(klsums.__file__))) != SRC:
        sys.exit(f"perfbench: imported klsums from {klsums.__file__}, not from {SRC}")
    return klsums


def machine_info(np) -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                if ln.startswith("model name")), "?")
    except OSError:
        info["cpu"] = "?"
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            with open(os.path.join(base, idx, "level")) as fl, \
                    open(os.path.join(base, idx, "type")) as ft, \
                    open(os.path.join(base, idx, "size")) as fs:
                caches[f"L{fl.read().strip()}{ft.read().strip()[0].lower()}"] = fs.read().strip()
    except OSError:
        pass
    info["caches"] = caches
    return info


def run_pass(ops) -> tuple[float, list]:
    """Run one pass; returns (wall seconds, outputs), an exception standing
    in for the output of a call that raised."""
    outs = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            outs.append(op())
        except Exception as exc:  # a failed operation is counted, not fatal
            outs.append(exc)
    return time.perf_counter() - t0, outs


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to the workload's inputs built."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
                         check=True, capture_output=True, text=True)
    return float(out.stdout.split()[-1]) - t0


def judge(wl, inp, summaries: list[list], last: list) -> tuple[int, list[str]]:
    """Count failed operations over all passes.

    An operation fails in a pass if it raised, if its output differs from
    the same call's output in the last pass (the inputs are identical), or
    if the last pass's output misses the workload's check.
    """
    notes = []
    if any(isinstance(o, Exception) for o in last):
        ok = [not isinstance(o, Exception) for o in last]
        notes += [f"op {i}: {o!r}" for i, o in enumerate(last) if isinstance(o, Exception)]
    else:
        ok = wl.check(inp, last)
        notes += [f"op {i}: check failed" for i, good in enumerate(ok) if not good]
    failed = 0
    for p, summ in enumerate(summaries):
        for i, s in enumerate(summ):
            bad = not ok[i] or s is None or s != summaries[-1][i]
            failed += bad
            if bad and ok[i]:
                notes.append(f"pass {p} op {i}: output differs from the last pass")
    return failed, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    klsums = import_library()
    import numpy as np

    import workloads
    from hostspeed import HostSpeed
    from tracer import Tracer
    import layers

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    import_s = time.perf_counter() - T_START
    setup_tracer = Tracer(**layers.TRACER_HOOKS) if args.trace else None
    with setup_tracer or contextlib.nullcontext():
        bindings_left = setup_tracer.unwrapped_bindings() if setup_tracer else []
        inp = wl.setup(args.seed)

    run_pass(wl.ops(inp))  # warm-up: FFT plans, allocator arenas
    # the peak of a fresh process after set-up and one pass, read before the
    # bench's own reference kernel maps its memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host = HostSpeed()
    pass_tracer = Tracer(**layers.TRACER_HOOKS) if args.trace else None
    times = {False: [], True: []}  # traced? -> pass wall times
    setup_times = []
    summaries, last = [], None
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        t_iter = time.perf_counter()
        # set-up probes spread over the run, so they do not all fall in one
        # slow period of the host
        if not args.trace and len(setup_times) < SETUP_PROBES * (time.perf_counter() - start) / args.seconds:
            setup_times.append(probe_setup(wl.name, args.seed))
        host.sample()
        traced = bool(args.trace) and len(times[False]) > len(times[True])
        inp = last = None  # free the previous pass before building the next
        inp = wl.setup(args.seed)
        with pass_tracer if traced else contextlib.nullcontext():
            dt, last = run_pass(wl.ops(inp))
        times[traced].append(dt)
        summaries.append([None if isinstance(o, Exception) else wl.summary(i, o)
                          for i, o in enumerate(last)])
        now = time.perf_counter()
        if (now + (now - t_iter) > deadline and len(summaries) >= MIN_PASSES
                and (not args.trace or times[True])):
            break  # the next pass would end past the deadline
    while not args.trace and len(setup_times) < SETUP_PROBES:
        setup_times.append(probe_setup(wl.name, args.seed))

    failed, notes = judge(wl, inp, summaries, last)
    attempted = len(last) * len(summaries)
    info = {"workload": wl.name, "seed": args.seed, "passes": len(summaries),
            "pass_s": times[False], "setup_probe_s": setup_times, "import_s": import_s,
            "reference_s": host.times, "scale": host.scale(), "machine": machine_info(np),
            "working_set_bytes": wl.working_set(inp), "klsums": klsums.__version__}
    if hasattr(wl, "verdicts") and not any(isinstance(o, Exception) for o in last):
        info["verdicts"] = wl.verdicts(last)
    correct = failed == 0
    if args.trace:
        metrics, detail, problems = layers.per_layer(
            wl, setup_tracer, pass_tracer, n_passes=len(times[True]))
        if bindings_left:
            problems.append(f"tracer missed bindings: {bindings_left}")
        metrics["bench.trace_overhead_s"] = (
            statistics.median(times[True]) - statistics.median(times[False]), "s")
        info |= {"traced_pass_s": times[True], "layer_detail": detail, "tracer_problems": problems}
        correct = correct and not problems
    else:
        metrics = {
            "wall_s": (statistics.median(times[False]) * host.scale(), "s"),
            "setup_s": (statistics.median(setup_times) * host.scale(), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
        }
    info["failures"] = notes[:20]
    print(json.dumps(info, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
