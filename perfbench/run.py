"""Benchmark for rmtt: four workloads, end-to-end metrics from untraced
runs, per-layer metrics from a separate traced run.

    python3 perfbench/run.py                       # all four workloads, untraced
    python3 perfbench/run.py --trace 1             # all four, traced
    python3 perfbench/run.py --quick               # self-check at small sizes
    python3 perfbench/run.py --workload kernel --seed 3 --seconds 20 --trace 0

With --workload, one workload runs in this process, single-threaded, one
operation at a time, and the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Without it,
each workload runs in its own child process and a table is printed; the
results are also written under perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench_out"
SETUP_SAMPLES = 9
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def import_rmtt():
    """Import rmtt from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rmtt
    except ImportError as e:
        sys.exit(f"perfbench: cannot import rmtt from {src}: {e}")
    if pathlib.Path(rmtt.__file__).resolve().parent != (src / "rmtt").resolve():
        sys.exit(f"perfbench: rmtt was imported from {rmtt.__file__}, not from {src}")


def make_workload(args):
    from workloads import WORKLOADS

    workdir = OUT / f"work-{os.getpid()}"
    return WORKLOADS[args.workload](args.seed, args.quick, workdir)


def setup_only(args):
    """Child process: import rmtt and make the inputs, then report ready."""
    import_rmtt()
    w = make_workload(args)
    try:
        w.setup()
        print("ready", flush=True)
    finally:
        getattr(w, "cleanup", lambda: None)()


def measure_setup(args):
    """Median time from starting a fresh process until its inputs are
    ready, over SETUP_SAMPLES processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--quick"] if args.quick else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                sys.exit(f"perfbench: set-up of {args.workload} failed")
        samples.append(elapsed)
    return statistics.median(samples)


def timed_rounds(w, seconds, quick):
    """Whole rounds until the next one would end after `seconds` (at
    least one); the wall and CPU time of each, and the peak RSS in MB at
    the end of the first round.  Only the first round keeps its full
    outputs, so that memory held for the checks does not grow with the
    number of rounds."""
    rounds, walls, cpus = [], [], []
    start = time.perf_counter()
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        r = w.run_round()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if rounds:
            r.outputs = None
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds.append(r)
        if quick or time.perf_counter() - start + walls[-1] > seconds:
            return rounds, walls, cpus, peak_rss_mb


def run_workload(args):
    setup_s = None if args.trace else measure_setup(args)
    import_rmtt()
    w = make_workload(args)
    try:
        w.setup()
        if args.trace:
            # one untraced round gives the reference for the tracing overhead
            _, (untraced_wall,), _, _ = timed_rounds(w, 0, True)
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                rounds, walls, cpus, _ = timed_rounds(w, args.seconds, args.quick)
            finally:
                tracer.uninstall()
        else:
            rounds, walls, cpus, peak_rss_mb = timed_rounds(w, args.seconds, args.quick)
        t0 = time.perf_counter()
        problems = w.check(rounds[0])
        if any(r.summary != rounds[0].summary for r in rounds):
            problems.append("rounds gave different outputs")
        check_s = time.perf_counter() - t0
    finally:
        getattr(w, "cleanup", lambda: None)()
    print(f"perfbench: {args.workload}: {len(rounds)} rounds, wall_s each "
          f"{[round(x, 3) for x in walls]}, checks {check_s:.2f} s", file=sys.stderr)
    for p in problems:
        print(f"perfbench: {args.workload}: check failed: {p}", file=sys.stderr)
    for r in rounds[:1]:
        for op in r.failed_ops:
            print(f"perfbench: {args.workload}: failed operation: {op}", file=sys.stderr)

    if args.trace:
        wall = statistics.median(walls)
        values = tracer.metrics(len(rounds))
        values["trace.wall_s"] = wall
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_s"] = wall - untraced_wall
        values["trace.spans"] = tracer.spans / len(rounds)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans_{args.workload}_seed{args.seed}.json")
        from spans import metric_names

        units = {name: unit for name, unit, _ in metric_names()}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        values = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                  "cpu_s": statistics.median(cpus), "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Each workload in its own child process; a table of the results."""
    from workloads import WORKLOADS

    results = {}
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}, no result")
            ok = False
            continue
        res = results[name] = json.loads(lines[-1])
        ok = ok and res["correct"]
        print(f"{name}: correct {str(res['correct']).lower()}, "
              f"attempted {res['attempted']}, failed {res['failed']}")
        metrics = res["metrics"]
        if args.trace:
            wall = metrics["trace.wall_s"]["value"]
            print(f"  traced wall_s {wall:.3f} s, untraced {metrics['trace.untraced_wall_s']['value']:.3f} s, "
                  f"overhead {metrics['trace.overhead_s']['value']:+.3f} s")
            layers = sorted({k.rsplit(".", 1)[0] for k in metrics if k.endswith(".self_s")},
                            key=lambda l: -metrics[f"{l}.self_s"]["value"])
            for layer in layers:
                calls = metrics[f"{layer}.calls"]["value"]
                if not calls:
                    continue
                self_s = metrics[f"{layer}.self_s"]["value"]
                extra = "".join(f", {k.rsplit('.', 1)[1]} {m['value']:g}" for k, m in metrics.items()
                                if k.startswith(layer + ".") and k.rsplit(".", 1)[1]
                                not in ("calls", "self_s"))
                print(f"  {layer:38s} calls {calls:>10g}  self_s {self_s:9.3f} s "
                      f"({100 * self_s / wall:5.1f}% of wall){extra}")
            ratio = metrics["structures.found_per_candidate"]["value"]
            if ratio:
                print(f"  structures.found_per_candidate {ratio:.4g} "
                      f"(= find_structure.found {metrics['structures.find_structure.found']['value']:g}"
                      f" / check_structure.calls {metrics['structures.check_structure.calls']['value']:g})")
        else:
            for k, m in metrics.items():
                print(f"  {k:12s} {m['value']:10.4f} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    kind = "quick" if args.quick else "trace" if args.trace else "results"
    (OUT / f"{kind}_seed{args.seed}.json").write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=("correspondence", "structures", "kernel", "initiality"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="one round at small sizes, all checks on")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.setup_only:
        return setup_only(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
