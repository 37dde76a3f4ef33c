"""One workload in a fresh, single-threaded process; started by run.py.

    python3 perfbench/worker.py --workload W --mode MODE --seed N
                                (--seconds S | --passes K)

MODE is ``setup`` (time the set-up only), ``plain`` (time closed-loop
``gordon(families=m)`` calls), ``trace`` (the same calls with spans around
the package's public functions) or ``profile`` (the same calls under
cProfile).  A pass calls
every family of every case once with one gordon seed; passes repeat with
new seeds until S seconds of calls have run, or K passes are done.  The
timed modes, setup and plain, also sample the host's speed and give each
time scaled to a nominal host (hostspeed.py).  The last line of standard
output is one JSON object.
"""

import argparse
import contextlib
import cProfile
import json
import os
import platform
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import NEAREST, Probe
from spans import Tracer, wrapper_cost
from workloads import WORKLOADS, pass_seeds

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def setup(cases, tracer=None):
    """Import the package, load the groups, build the parameters and Euler
    families: what a command-line user pays before the first gordon call.
    Returns (the lift module, [(case, group, parameter, families)], start,
    end)."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import cherednik
    from cherednik import algebra, groups, lift
    if not Path(cherednik.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported {cherednik.__file__}, not the checkout")
    if tracer is not None:
        install_spans(tracer)
    built = []
    for case in cases:
        group = groups.load_group(case.group)
        kind, value = case.param
        if kind == "c":
            par = algebra.CherednikParameter(group, group.spec, 0,
                                             list(value))
        elif kind == "ggor":
            par = algebra.ggor_from_values(group, group.spec,
                                           value).to_cherednik()
        else:
            par = algebra.restrict_to_hyperplane(group,
                                                 value).to_cherednik()
        fams = [m for m, _ in sorted(algebra.euler_families(group, par),
                                     key=lambda t: min(t[0]))]
        built.append((case, group, par, fams))
    return lift, built, start, time.perf_counter()


def install_spans(tracer):
    from cherednik import groups, lift, meataxe, modules, restricted

    def nnz(module):
        return sum(len(m.entries) for m in module.mats)

    tracer.install("cherednik", [
        (groups, "load_group", "groups.load_group", None),
        (groups.ReflectionGroup, "coinvariant_algebra",
         "groups.coinvariant_algebra", None),
        (restricted, "bad_primes", "restricted.bad_primes", None),
        (modules, "x_tables", "modules.x_tables", None),
        (modules, "verma_module", "modules.verma_module",
         lambda a, r: {"dim": r.dim, "nnz": nnz(r)}),
        (modules, "graded_character", "modules.graded_character", None),
        (modules, "quotient_module", "modules.quotient_module", None),
        (modules, "graded_spin", "modules.graded_spin", None),
        (meataxe, "is_irreducible", "meataxe.is_irreducible", None),
        (meataxe, "radical", "meataxe.radical", None),
        (meataxe, "chop", "meataxe.chop",
         lambda a, r: {"factors": sum(m for _, m in r)}),
        (meataxe, "is_isomorphic", "meataxe.is_isomorphic", None),
        (lift, "specialize_module", "lift.specialize_module",
         lambda a, r: {"entries": nnz(a[0])}),
        (lift, "abstract_structure", "lift.abstract_structure", None),
        (lift, "find_submodule", "lift.find_submodule",
         lambda a, r: {"unsolved": int(isinstance(r, str))}),
        (lift, "draw_specialization", "lift.draw_specialization", None),
        (lift, "head_and_radical", "lift.head_and_radical", None),
        (lift, "decompose_family", "lift.decompose_family", None),
        (lift, "gordon", "lift.gordon", None),
    ])


def run_passes(lift, built, seed, seconds, passes, invoke, probe):
    calls = []
    elapsed = 0.0
    for index, gseed in enumerate(pass_seeds(seed)):
        if passes is not None and index == passes:
            break
        for case, group, par, fams in built:
            for members in fams:
                spent = probe.spent
                start = time.perf_counter()
                try:
                    record = invoke(lift.gordon, group, par, case.hyperplane,
                                    families=members, seed=gseed)
                    error = None
                except Exception as exc:  # a failed call is counted
                    record, error = None, f"{type(exc).__name__}: {exc}"
                end = time.perf_counter()
                took = end - start - (probe.spent - spent)
                text = None if record is None else record.to_text()
                elapsed += took
                calls.append({"case": case.id, "family": list(members),
                              "pass": index, "gseed": gseed, "s": took,
                              "span": (start, end),
                              "record": text, "error": error})
        if passes is None and elapsed >= seconds:
            break
    return calls


def profile_by_module(profiler, package_dir):
    """cProfile self time grouped by the package module that holds the
    function; everything outside the package is 'other'."""
    out = {}
    for (filename, _, _), row in pstats.Stats(profiler).stats.items():
        path = Path(filename)
        key = path.stem if path.parent == package_dir else "other"
        out[key] = out.get(key, 0.0) + row[2]
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", required=True,
                    choices=("setup", "plain", "trace", "profile"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--passes", type=int)
    args = ap.parse_args()

    tracer = Tracer() if args.mode == "trace" else None
    # the host's speed is sampled where end-to-end times are taken
    probe = Probe()
    timed = args.mode in ("setup", "plain")
    with probe if timed else contextlib.nullcontext():
        lift, built, start, end = setup(WORKLOADS[args.workload], tracer)
        setup_s = end - start - probe.spent
        import numpy
        out = {"setup_s": setup_s, "python": platform.python_version(),
               "numpy": numpy.__version__,
               "threads": {var: os.environ.get(var) for var in THREAD_VARS}}
        if args.mode == "setup":
            # a set-up is short: samples after it make up the scale's count
            for _ in range(NEAREST):
                probe.sample()
        else:
            invoke = lambda fn, *a, **k: fn(*a, **k)
            profiler = None
            if args.mode == "profile":
                profiler = cProfile.Profile()
                invoke = profiler.runcall
            out["calls"] = run_passes(lift, built, args.seed, args.seconds,
                                      args.passes, invoke, probe)
    if timed:
        out["setup_nominal_s"] = probe.scale(setup_s, start, end)
        out["probe"] = {"samples": len(probe.samples),
                        "median_s": statistics.median(
                            t for _, t in probe.samples)}
    for call in out.get("calls", ()):
        span = call.pop("span")
        if timed:
            call["nominal_s"] = probe.scale(call["s"], *span)
    if tracer is not None:
        out["spans"] = tracer.spans
        out["count_s"] = tracer.count_s
        out["wrapper_s"] = wrapper_cost()
    if args.mode == "profile":
        out["profile"] = profile_by_module(
            profiler, Path(lift.__file__).resolve().parent)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
