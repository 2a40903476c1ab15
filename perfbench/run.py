"""Benchmark of the cutting-plane loop and its oracle.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload loop-4n --seed 3 --seconds 45 --trace 0

With ``--workload`` one workload runs in this process and the last line of
standard output is a JSON object: the end-to-end metrics (``--trace 0``) or
the per-layer metrics of one traced pass (``--trace 1``).  Without it, each
workload runs in a fresh process, one after another, and a summary follows.
The exit code is non-zero when an output check fails (a counterexample, a
non-optimal or decreasing bound, a digest that differs between runs).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import bench  # noqa: E402
import hostload  # noqa: E402
import spans  # noqa: E402

SETUP_REPS = 5
DEFAULT_SECONDS = 45


def environment() -> dict:
    from netdes_cuts import simplex

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "lp_kernel": simplex.KERNEL,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_one(args) -> int:
    if not (bench.SRC / "netdes_cuts").is_dir():
        print(f"no package sources under {bench.SRC}", file=sys.stderr)
        return 2
    clock = hostload.LoadClock()
    clock.start()
    sys.path.insert(0, str(bench.SRC))
    import netdes_cuts  # noqa: F401

    imported = time.perf_counter()
    workload = bench.WORKLOADS[args.workload]
    if args.deadline:
        workload = dataclasses.replace(workload, deadline_s=args.deadline)
    workdir = bench.STATE / f"work-{os.getpid()}"
    try:
        generated = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            paths = bench.write_instances(workload, workdir)
            generated.append((t0, time.perf_counter()))

        tracer = spans.Tracer() if args.trace else None
        if tracer is None:
            result = bench.run_workload(workload, paths, args.seed, workload.passes(args.seconds))
        else:
            with spans.installed(tracer, spans.wrap_targets()):
                result = bench.run_workload(workload, paths, args.seed, 1, tracer)
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    corrected = clock.corrector()
    setup_s = corrected(_T0, imported) + statistics.median(corrected(*g) for g in generated)
    seconds = result.seconds(corrected)
    bench.check_digests(result, bench.STATE / f"digests-{bench.code_hash()}.json")

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment()))
    for name in sorted(result.digests):
        print(f"digest {workload.name} {name} {result.digests[name]}")
    for problem in result.problems:
        print(f"CHECK FAILED {problem}")
    reasons = collections.Counter(r for rs in result.reasons.values() for r in rs)
    failures = dict(sorted(result.reasons.items()))

    if tracer is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        per_instance = list(seconds.values())
        e2e = bench.end_to_end(result, workload, per_instance, setup_s, peak_mb)
        tail = bench.tail_percentile(per_instance)
        for name, (value, unit) in e2e.items():
            note = ""
            if name == "instance_s.tail":
                note = f"  (p{tail[0]} of {len(per_instance)} instances)"
            elif name == "failed_frac":
                note = f"  ({result.failed} of {result.attempted} runs; reasons {json.dumps(reasons)})"
            elif name == "wall_s":
                note = f"  (sum of each instance's median of {result.passes} passes)"
            print(f"metric {name} = {value:.6g} {unit}{note}")
        summary = {
            "workload": workload.name,
            "instances": len(workload.specs),
            "passes": result.passes,
            "tail_percentile": tail[0] if tail else None,
            "failures": failures,
            "instance_s": dict(sorted(seconds.items())),
            "raw_pass_s": result.raw_pass_seconds(),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        }
        declared = [m["name"] for m in _declared()["end_to_end"]]
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in declared if k in e2e}
    else:
        trace_path = bench.STATE / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_path)
        layers = spans.layer_metrics(tracer.spans, sum(seconds.values()))
        units = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
        for name, value in layers.items():
            print(f"layer {name} = {value:.6g} {units.get(name, '')}")
        summary = {"workload": workload.name, "failures": failures, "spans": str(trace_path)}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items() if k in units}
    print("result " + json.dumps(summary))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


def _declared() -> dict:
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str, prefix: str = "") -> dict:
    for line in reversed(stdout.splitlines()):
        if line.startswith(prefix + "{"):
            return json.loads(line[len(prefix):])
    return {}


def run_all(args) -> int:
    """Each workload in a fresh process, untraced then traced, then a summary."""
    status = 0
    rows = []
    for name in bench.WORKLOADS:
        figures = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            sys.stdout.flush()
            if proc.returncode != 0:
                status = 1
            figures[trace] = (_last_json(proc.stdout, "result "), _last_json(proc.stdout))
        rows.append((name, figures))

    print("\nsummary")
    for name, figures in rows:
        result, _ = figures[0]
        _, traced = figures[1]
        layers = {k: v["value"] for k, v in traced.get("metrics", {}).items()}
        for metric, mv in result.get("metrics", {}).items():
            print(f"  {name:13s} {metric:16s} {mv['value']:12.6g} {mv['unit']}")
        if result.get("failures"):
            print(f"  {name:13s} failures         {json.dumps(result['failures'])}")
        wall = result.get("metrics", {}).get("wall_s", {}).get("value")
        if wall is not None and "trace.wall_s" in layers:
            print(f"  {name:13s} trace overhead   {layers['trace.wall_s'] - wall:12.6g} s")
        loop_s = layers.get("engine.loop_s") or 0.0
        if loop_s:
            print(f"  {name:13s} separate/loop    {layers['engine.separate_s'] / loop_s:12.3f}")
            print(f"  {name:13s} lp.solve/loop    {layers['lp.solve_s'] / loop_s:12.3f}")
        if layers.get("engine.validate_s"):
            share = layers["engine.validate_s"] / (layers["engine.validate_s"] + loop_s)
            print(f"  {name:13s} validate/(loop+validate) {share:.3f}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float,
                        help="per-instance deadline in seconds, replacing the workload's "
                             "(for diagnosis outside the timed runs)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
