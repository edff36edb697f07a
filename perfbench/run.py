"""Benchmark of the infrared CLI: seeded instance pools, one closed-loop client.

    python3 perfbench/run.py --workload stokes-generic --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process and one thread call `infrared.cli.main` in-process, each call
only after the previous one returned.  An instance is one CLI call, from
loading its JSON file to writing its JSON output.  Every output is checked
outside the timed region.  `--trace 0` reports the end-to-end metrics, with
times scaled to a reference host speed (below); `--trace 1` repeats a fixed prefix of the pool, each instance once untraced
and once traced, and reports per-layer metrics as means per traced instance.
The last line of standard output is the JSON result.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

BENCH_WORKLOADS = ("stokes-generic", "stokes-convex", "walk", "secondary")
SETUP_REPEATS = 3

# Host-speed reference.  On the shared host this benchmark was written on, a
# core runs all code at one of two speeds, about 1.7x apart, and switches
# between them within a second; the share of slow time drifts over minutes
# (see NOTES.md).  A calibration sample, a fixed Fraction loop that uses
# nothing of infrared, runs before every timed CLI call, outside the timed
# region.  Times are scaled by CAL_REF_S over the mean of nearby samples, so
# they read as seconds at the reference speed, at which a sample takes
# CAL_REF_S.
CAL_REF_S = 0.010
CAL_WINDOW = 2  # samples on each side of a call

# The tail percentile is fixed per workload, at the highest one that leaves at
# least ten samples beyond it in a run of the seed code (see NOTES.md), so that
# two versions of the program are compared at the same percentile.
TAIL_PERCENTILE = {
    "stokes-generic": 65,
    "stokes-convex": 65,
    "walk": 92,
    "secondary": 65,
    "secondary-nested": 100,
}

END_TO_END = {
    "instances_per_s": "1/s",
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = (
    "geometry.general_position.calls", "geometry.general_position.s",
    "geometry.orient.calls", "geometry.segment_wall_events.s",
    "geometry.AlgebraicTime.refine.calls", "geometry.events.horiz",
    "geometry.events.coll_rational", "geometry.events.coll_irrational",
    "geometry.self_s",
    "paths.enumerate_zeta_convex_paths.calls", "paths.enumerate_zeta_convex_paths.s",
    "paths.found", "paths.self_s",
    "fourier.stokes_pair.s", "fourier.iterated_transport.calls",
    "fourier.iterated_transport.s", "fourier.self_s",
    "linalg.MatQ.matmul.calls", "linalg.MatQ.matmul.s", "linalg.MatQ.inverse.calls",
    "linalg.MatQ.inverse.s", "linalg.MatQ.new.calls", "linalg.self_s",
    "perverse.TransportData.new.calls", "perverse.TransportData.new.s",
    "perverse.TransportData.replace.calls", "perverse.gmv_embed.calls",
    "perverse.gmv_embed.s", "perverse.self_s",
    "wallcross.apply_crossing.calls", "wallcross.apply_crossing.s", "wallcross.self_s",
    "secondary.enumerate_subdivisions.s", "secondary.subdivisions",
    "secondary.is_regular.calls", "secondary.is_regular.s", "secondary.regular",
    "secondary.irregular", "secondary.deformation_complex.s",
    "secondary.refinement_poset.s", "secondary.refines.calls", "secondary.self_s",
    "lp.maximize.calls", "lp.maximize.s", "lp.maximize.nonpositive", "lp.tableau_entries",
    "lp.self_s",
    "cli.Instance.load.s", "cli.output_bytes", "cli.self_s",
    "trace.instances_per_s", "trace.untraced_instances_per_s", "trace.overhead",
    "trace.accounted", "trace.spans",
)


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("instances_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "cli.output_bytes":
        return "B"
    if name in ("trace.overhead", "trace.accounted"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# host-speed calibration


def calibration_sample() -> float:
    """Seconds that a fixed Fraction loop takes now.  The collector is off
    so that the program's heap cannot change the sample."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 1200):
            s += Fraction(i, i + 7) * Fraction(3, i + 1)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def at_reference_speed(times: list[float], cal: list[float]) -> list[float]:
    """Scale times[i] by CAL_REF_S over the mean of the calibration samples
    cal[i - CAL_WINDOW .. i + CAL_WINDOW] (cal[i] was taken just before
    times[i]).  A mean, not a median, because the samples come from two
    speeds and a call spans a mix of both."""
    return [t * CAL_REF_S / statistics.fmean(cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i, t in enumerate(times)]


# ---------------------------------------------------------------------------
# running one pool item


class Runner:
    """Runs pool items through the CLI; collects latencies and failures."""

    def __init__(self, workload, seed, run_dir):
        from infrared import cli
        from infrared.errors import InfraredError

        self.cli = cli
        # what a check may raise on a malformed output
        self.check_errors = (ValueError, KeyError, TypeError, IndexError, InfraredError)
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.latencies: list[float] = []
        self.cal: list[float] | None = None  # one sample per call, when set
        self.attempted = 0
        self.failed = 0

    def call(self, argv) -> tuple[float, str | None]:
        buf = io.StringIO()
        if self.cal is not None:
            self.cal.append(calibration_sample())
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a traceback is a failed instance
            return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if rc != 0:
            return dt, f"exit code {rc}: {buf.getvalue().strip()[:200]}"
        return dt, None

    def _out(self, idx, tag):
        return os.path.join(self.run_dir, f"{idx:03d}-{tag}.out.json")

    @staticmethod
    def _load(path):
        with open(path) as fh:
            return json.load(fh)

    def run_item(self, idx: int, item: dict, call=None) -> list[float]:
        """Run the CLI calls of one item and check them; returns the calls'
        latencies.  A failed call or check counts every call of the item."""
        call = call or self.call
        paths = item["paths"]
        times: list[float] = []
        try:
            if item["kind"] == "walk":
                fwd, mid, back = (self._out(idx, t) for t in ("fwd", "mid", "back"))
                dt, err = call(["walk", paths["a0.json"], "--to", paths["a1.json"], "--out", fwd])
                times.append(dt)
                if err is None:
                    target = self._load(paths["a1.json"])
                    target["transport"] = self._load(fwd)["transport"]
                    with open(mid, "w") as fh:
                        json.dump(target, fh)
                    dt, err = call(["walk", mid, "--to", paths["a0.json"], "--out", back])
                    times.append(dt)
                    if err is None:
                        err = workloads.check_walk(item, self._load(back))
            else:
                out = self._out(idx, item["kind"])
                dt, err = call([item["kind"], paths["in.json"], "--out", out])
                times.append(dt)
                if err is None:
                    check = (workloads.check_stokes if item["kind"] == "stokes"
                             else workloads.check_secondary)
                    err = check(item, self._load(out))
        except self.check_errors as exc:
            err = f"check failed on malformed output: {exc!r}"
        self.attempted += len(times)
        self.latencies.extend(times)
        if err is not None:
            self.failed += len(times)
            print(f"FAIL workload={self.workload} seed={self.seed} instance={idx} "
                  f"(N={item['size']}): {err}", file=sys.stderr)
        return times


# ---------------------------------------------------------------------------
# the two kinds of run


def tail(lat: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    xs = sorted(lat)
    rank = max(1, math.ceil(pct / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def untraced_run(runner: Runner, pool, seconds: float) -> dict:
    # warm-up: one item, checked but not timed, so lazy imports and caches
    # of the first call are not in the figures
    runner.run_item(0, pool[0])
    runner.latencies.clear()
    failed_before = runner.failed
    runner.cal = []
    t0 = time.perf_counter()
    k = 1
    while time.perf_counter() - t0 < seconds:
        runner.run_item(k % len(pool), pool[k % len(pool)])
        k += 1
    raw = runner.latencies
    lat = at_reference_speed(raw, runner.cal)
    pct = TAIL_PERCENTILE[runner.workload]
    tail_s, beyond = tail(lat, pct)
    print(f"instance_tail_s is p{pct}: {beyond} of {len(lat)} samples beyond it"
          + ("" if beyond >= 10 else " (fewer than ten)"))
    print(f"pool passes: {(k - 1) / len(pool):.2f} of {len(pool)} items; "
          f"latency min {min(lat):.4f} s, max {max(lat):.4f} s")
    print(f"calibration sample mean {statistics.fmean(runner.cal) * 1e3:.3f} ms "
          f"(reference {CAL_REF_S * 1e3:.1f} ms), min {min(runner.cal) * 1e3:.2f} ms, "
          f"max {max(runner.cal) * 1e3:.2f} ms")
    print(f"wall time, not scaled: {len(raw) / sum(raw):.6g} instances/s, "
          f"p50 {statistics.median(raw):.6g} s, p{pct} {tail(raw, pct)[0]:.6g} s")
    return {
        "instances_per_s": (len(lat) - (runner.failed - failed_before)) / sum(lat),
        "instance_p50_s": statistics.median(lat),
        "instance_tail_s": tail_s,
    }


def traced_run(runner: Runner, pool, seconds: float) -> dict:
    from tracing import LAYERS, Tracer

    tracer = Tracer()
    items = pool[:workloads.TRACE_ITEMS[runner.workload]]
    per_instance: list[dict] = []
    pass_counts: list[dict] = []
    totals = {False: 0.0, True: 0.0}  # instance time, untraced and traced

    def traced_call(argv):
        mark = tracer.mark()
        tracer.install()
        try:
            dt, err = runner.call(argv)
        finally:
            tracer.uninstall()
        summary = tracer.summarize(mark)
        summary["wall_s"] = dt
        if err is None:
            summary["cli.output_bytes"] = os.path.getsize(argv[-1])
        per_instance.append(summary)
        return dt, err

    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        first = len(per_instance)
        for idx, item in enumerate(items):
            # alternate which copy of the instance runs first
            order = (False, True) if (idx + len(pass_counts)) % 2 == 0 else (True, False)
            for traced in order:
                times = runner.run_item(idx, item, traced_call if traced else None)
                totals[traced] += sum(times)
        counts: dict[str, int] = {}
        for summary in per_instance[first:]:
            for key, val in summary.items():
                if isinstance(val, int):
                    counts[key] = counts.get(key, 0) + val
        pass_counts.append(counts)
        now = time.perf_counter()
        if now - t0 + (now - p0) > seconds:
            break
    for k, counts in enumerate(pass_counts[1:], 2):
        if counts != pass_counts[0]:
            diff = sorted(key for key in counts.keys() | pass_counts[0].keys()
                          if counts.get(key) != pass_counts[0].get(key))
            print(f"FAIL workload={runner.workload} seed={runner.seed}: work counts of "
                  f"pass {k} differ from pass 1 in {diff}", file=sys.stderr)
            runner.failed += 1
    tracer.write(os.path.join(runner.run_dir, "spans.tsv"))

    n = len(per_instance)
    out = {name: sum(s.get(name, 0) for s in per_instance) / n for name in PER_LAYER}
    wall = totals[True] / n
    out["trace.instances_per_s"] = n / totals[True]
    out["trace.untraced_instances_per_s"] = n / totals[False]
    out["trace.overhead"] = totals[True] / totals[False] - 1
    out["trace.accounted"] = sum(out[f"{layer}.self_s"] for layer in LAYERS) / wall
    print(f"traced {n} instances in {len(pass_counts)} passes over {len(items)} items")
    print("layer self time, share of traced instance wall time:")
    for layer in LAYERS:
        print(f"  {layer:<10} {out[layer + '.self_s'] / wall:6.3f}")
    print(f"traced instance wall time {wall:.4f} s")
    return out


# ---------------------------------------------------------------------------
# set-up and entry point


def timed_setups(workload, seed, run_dir, repeats) -> list[float]:
    """Run the set-up step in fresh processes: interpreter start, `import
    infrared`, instance generation and file writing; returns wall times."""
    script = os.path.join(HERE, "workloads.py")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, script, workload, str(seed), run_dir], check=True)
        times.append(time.perf_counter() - t0)
    print("set-up wall times, not scaled: " + ", ".join(f"{t:.4f} s" for t in times))
    return times


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = os.path.join(HERE, ".run", workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    # only the untraced run reports setup_s, so the traced run sets up once
    setups = timed_setups(workload, seed, run_dir, 1 if trace else SETUP_REPEATS)
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    pool = manifest["items"]
    print(f"workload {workload}, seed {seed}: pool of {len(pool)} items, "
          f"N in {sorted({it['size'] for it in pool})}, "
          f"total dims in {sorted({it['dim'] for it in pool})}, {manifest['redraws']} redraws")
    runner = Runner(workload, seed, run_dir)
    if trace:
        metrics = traced_run(runner, pool, seconds)
    else:
        metrics = untraced_run(runner, pool, seconds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # a set-up is too short and too early for nearby samples to say how
        # fast the host ran during it; the run's mean sample says which phase
        # the whole run fell in
        metrics["setup_s"] = (statistics.median(setups) * CAL_REF_S
                              / statistics.fmean(runner.cal))
    print(f"attempted {runner.attempted}, failed {runner.failed}, "
          f"failed_share {runner.failed / max(1, runner.attempted)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {_unit(name)}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=BENCH_WORKLOADS + ("secondary-nested", "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workloads.require_infrared()
    if args.workload == "all":
        results = {}
        for w in BENCH_WORKLOADS:
            print(f"== {w}", flush=True)
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=True, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            results[w] = json.loads(lines[-1])
        print(json.dumps(results))
        return 0
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
