"""Benchmark of the certified Las Vegas pipeline ``lift.gordon``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh,
single-threaded worker processes (worker.py) that make closed-loop
``gordon(G, par, hyperplane, families=m, seed=s)`` calls, one per Euler
family m of each case; the gordon seeds s come from --seed.  Every record
is checked by checks.py.  With --trace 0 the last output line reports the
end-to-end metrics, times scaled to a nominal host speed (hostspeed.py); with --trace 1 it reports per-layer metrics from a
traced and a profiled run of the same calls.  The run is also written to
.perfbench/ in the checkout.  The exit code is 0 only when every record
passes its checks.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_record, load_pinned
from hostspeed import NOMINAL_S
from spans import aggregate, spans_under
from worker import THREAD_VARS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up samples are taken on both sides of the timed calls, so a drift of
# the host's speed over the run weighs on both, and their median is
# reported.  Each side takes at least this many samples and goes on for at
# least this long.
SETUP_SAMPLES_EACH_SIDE = 5
SETUP_SECONDS_EACH_SIDE = 3.0
WORKER_TIMEOUT_S = 170
# Paid once per process, so reported per run; every other per-layer value
# is per pass.
ONCE_PER_PROCESS = ("groups.load_group.s", "groups.coinvariant_algebra.s",
                    "modules.x_tables.s")


def metric_units(kind):
    """{name: unit} of BENCHMARK.json's end_to_end or per_layer metrics."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class BenchmarkError(Exception):
    """The benchmark could not measure: no result is printed."""


def run_worker(workload, mode, seed, seconds=None, passes=None):
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--mode", mode, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    if passes is not None:
        cmd += ["--passes", str(passes)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} worker ran over {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"{mode} worker exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failed_calls(workload, calls, pinned):
    """[(call, problems)] for calls that raised or gave a bad record."""
    cases = {case.id: case for case in WORKLOADS[workload]}
    out = []
    for call in calls:
        if call["error"] is not None:
            problems = [call["error"]]
        else:
            problems = check_record(cases[call["case"]], call["family"],
                                    call["record"],
                                    pinned.get(call["case"], {}))
        if problems:
            out.append((call, problems))
    return out


def pass_walls(calls, key="s"):
    walls = {}
    for call in calls:
        walls[call["pass"]] = walls.get(call["pass"], 0.0) + call[key]
    return [walls[k] for k in sorted(walls)]


def end_to_end(workload, seed, seconds):
    def setups():
        samples, start = [], time.perf_counter()
        while (len(samples) < SETUP_SAMPLES_EACH_SIDE
               or time.perf_counter() - start < SETUP_SECONDS_EACH_SIDE):
            samples.append(run_worker(workload, "setup", seed))
        return samples

    before = setups()
    plain = run_worker(workload, "plain", seed, seconds=seconds)
    setup_samples = [s["setup_nominal_s"] for s in before + setups()]
    calls = plain["calls"]
    walls = pass_walls(calls, "nominal_s")
    times = [c["nominal_s"] for c in calls]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_nominal_s": statistics.fmean(walls),
        "family_nominal_s.gmean": statistics.geometric_mean(times),
        "peak_rss_mb": plain["rss_mb"],
    }
    probe = plain["probe"]
    notes = [f"setup_s: median of {len(before)} set-ups before and "
             f"{len(setup_samples) - len(before)} after the timed calls; "
             f"least {min(setup_samples):.6g} s",
             f"wall_nominal_s passes: {len(walls)} (gordon seeds "
             f"{list(dict.fromkeys(c['gseed'] for c in calls))}); "
             f"wall_s = {statistics.fmean(pass_walls(calls)):.6g} s as timed",
             f"family_nominal_s.gmean samples: {len(times)}; "
             f"family_s.p50 = {statistics.median(c['s'] for c in calls):.6g}"
             f" s as timed (unbounded)",
             f"host probe: {probe['samples']} samples, median "
             f"{probe['median_s'] * 1e3:.4g} ms against {NOMINAL_S * 1e3:.4g}"
             f" ms nominal"]
    return {"metrics": metrics, "calls": calls, "plain": plain,
            "notes": notes, "mismatch": [],
            "extra": {"setup_samples": setup_samples}}


def per_layer(workload, seed, seconds):
    # the untraced and the traced worker share the run's time
    plain = run_worker(workload, "plain", seed, seconds=seconds / 2)
    traced = run_worker(workload, "trace", seed, seconds=seconds / 2)
    # cProfile triples the run time, so only the first pass is profiled
    profiled = run_worker(workload, "profile", seed, passes=1)
    calls = plain["calls"] + traced["calls"] + profiled["calls"]

    def key(call):
        return call["case"], tuple(call["family"]), call["pass"]

    untraced = {key(c): c["record"] for c in plain["calls"]}
    mismatch = [f"{label} record differs from the untraced one: "
                f"{c['case']} {c['family']} pass {c['pass']}"
                for label, run in (("traced", traced), ("profiled", profiled))
                for c in run["calls"]
                if untraced.get(key(c), c["record"]) != c["record"]]

    passes = len(pass_walls(traced["calls"]))
    layers = aggregate(traced["spans"])
    draws = layers.get("lift.draw_specialization", {}).get("calls", 0)
    families = layers.get("lift.decompose_family", {}).get("calls", 0)
    # what the tracer adds to the timed calls: its wrappers, at the cost
    # the traced worker measured for one, and its counters, timed as they ran
    overhead = (spans_under(traced["spans"], "lift.gordon")
                * traced["wrapper_s"] + traced["count_s"])
    metrics = {}
    for name in metric_units("per_layer"):
        if name == "lift.draws_per_family":
            metrics[name] = draws / families if families else 0.0
        elif name == "trace.overhead_s":
            metrics[name] = overhead / passes
        elif name.startswith("profiled."):
            module = name.split(".")[1]
            metrics[name] = profiled["profile"].get(module, 0.0)
        else:
            span, field = name.rsplit(".", 1)
            scale = 1 if name in ONCE_PER_PROCESS else passes
            metrics[name] = layers.get(span, {}).get(field, 0) / scale
    notes = [f"traced passes: {passes}; per-layer values are per pass, "
             f"except {', '.join(ONCE_PER_PROCESS)}",
             f"trace.overhead_s: {traced['wrapper_s'] * 1e6:.3g} us per "
             f"wrapper, {traced['count_s']:.3g} s of counters",
             "profiled.* is cProfile self time of the first pass, grouped "
             "by source module"]
    return {"metrics": metrics, "calls": calls, "plain": plain,
            "notes": notes, "mismatch": mismatch,
            "extra": {"spans": traced["spans"], "layers": layers,
                      "profile": profiled["profile"]}}


def provenance(plain):
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                   "HEAD"], capture_output=True, text=True)
            sha = proc.stdout.strip() or sha
        except OSError:  # no git on this machine
            pass
    return {"git_sha": sha, "python": plain["python"],
            "numpy": plain["numpy"], "nproc": os.cpu_count(),
            "threads": plain["threads"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # a terminated run raises SystemExit, so subprocess.run kills its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "cherednik" / "lift.py").is_file():
        sys.exit(f"no cherednik sources under {ROOT / 'src'}: run from a "
                 "checkout of the repository")
    try:
        measure = per_layer if args.trace else end_to_end
        result = measure(args.workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        sys.exit(f"benchmark error: {exc}")
    metrics, calls = result["metrics"], result["calls"]
    failures = failed_calls(args.workload, calls, load_pinned())
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        sys.exit(f"benchmark error: measured {sorted(metrics)}, but "
                 f"BENCHMARK.json names {sorted(units)}")
    prov = provenance(result["plain"])

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for key, value in prov.items():
        print(f"  {key}: {value}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed_share = {len(failures)}/{len(calls)} "
          f"= {len(failures) / len(calls):.6g}")
    for note in result["notes"] + result["mismatch"]:
        print(f"  {note}")
    for call, problems in failures:
        print(f"  FAILED {call['case']} {call['family']} gordon seed "
              f"{call['gseed']}: {'; '.join(problems)}")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_dir / name, "w") as f:
        json.dump({"provenance": prov, "metrics": metrics,
                   "notes": result["notes"] + result["mismatch"],
                   "calls": calls, **result["extra"]}, f)

    correct = not failures and not result["mismatch"]
    print(json.dumps({
        "correct": correct, "attempted": len(calls),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
