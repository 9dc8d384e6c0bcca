#!/usr/bin/env python3
"""The repository's benchmark: one command, five workloads, every metric.

Three ways to call it, all from the repository root::

    python3 benchmarks/perf/run.py                      # everything (~7 min)
    python3 benchmarks/perf/run.py --workloads hog_scan --repeats 1
    python3 benchmarks/perf/run.py --compare A.json B.json

and the single measured run that the two above are made of, which is also
what ``BENCHMARK.json`` names as the benchmark's command::

    python3 benchmarks/perf/run.py --workload hog_scan --seed 7 --seconds 24 --trace 0

A single run measures one workload in this process — as many passes of it as
fit into ``--seconds``, reduced to the least each piece of work took — and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ledger (of a single pass) with ``--trace 1``.  The full command runs every (workload, repeat)
in a fresh subprocess, serially, and reports the median of the repeats.
Correctness checks are part of every run and cannot be switched off.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
INFO_PREFIX = "#info "


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------- #
# One measured run                                                      #
# --------------------------------------------------------------------- #


def run_single(args: argparse.Namespace, spec: dict) -> int:
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from recorder import Recorder, calibration_ms
    from tracer import Tracer
    from workloads import WORKLOADS, measure

    import_s = time.perf_counter() - started
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        layers.install(tracer)
    recorder = Recorder(tracer)
    recorder.install()

    calib_before = calibration_ms()
    # A traced run is one pass: its ledger is one pass's spans.
    attempted = measure(
        workload, recorder, args.seed, 0.0 if args.trace else args.seconds
    )
    calib_after = calibration_ms()

    passes = recorder.passes
    measured = sum(len(p.pieces) for p in passes)
    if not passes[0].closed or not any(passes[0].closed):
        print(f"{workload.name}: no interval completed", file=sys.stderr)
        return 1
    if measured + recorder.failed < attempted:
        recorder.problem(f"ran {measured} of {attempted} intervals")
    floor_wall_s = float(recorder.floor()["wall"].sum())
    if tracer is None:
        values = recorder.end_to_end()
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        values = layers.per_layer_metrics(tracer, recorder.counts, floor_wall_s)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for layer in workload.must_record:
            if values[f"{layer}.calls"] == 0:
                recorder.problem(f"{layer} recorded no call")
        for layer in workload.must_idle:
            if values[f"{layer}.calls"] != 0:
                recorder.problem(f"{layer} must stay idle on {workload.name}")
        if args.spans:
            tracer.save(args.spans)
    if set(values) != set(units):
        odd = sorted(set(values) ^ set(units))
        raise SystemExit(f"metrics differ from BENCHMARK.json: {odd}")

    failed = min(recorder.failed, attempted)
    correct = failed == 0 and not recorder.problems
    intervals, closed = len(passes[0].pieces), int(sum(passes[0].closed))
    samples = f"n={intervals} intervals, {closed} closed, least of {len(passes)} passes"
    print(
        f"{workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: attempted {attempted} intervals, failed "
        f"{failed}, {'correct' if correct else 'INCORRECT'}"
    )
    for problem in recorder.problems:
        print(f"  problem: {problem}")
    for name in units:
        note = ""
        if name.startswith(("interval_ms", "data_")):
            note = f"  ({samples})"
        elif name == "setup_s":
            note = (
                f"  (median of {len(passes[0].setup_s)} set-ups, least of "
                f"{len(passes)} passes)"
            )
        print(f"  {name:<48} {values[name]:>16.6f} {units[name]}{note}")
    info = {
        "import_s": import_s,
        "calib_ms": [calib_before, calib_after],
        "noisy": abs(calib_after - calib_before)
        > 0.10 * min(calib_before, calib_after),
        "sim_digest": recorder.sim_digest,
        "interval_digests": passes[0].digests,
        "passes": len(passes),
        # Each pass's timed seconds against the least the same work took:
        # how much of the run the neighbours had.
        "pass_wall_s": [float(sum(x.sum() for x in p.pieces)) for p in passes],
        "floor_wall_s": floor_wall_s,
        "intervals": intervals,
        "closed_intervals": closed,
        "setups": len(passes[0].setup_s),
        "problems": recorder.problems,
    }
    print(INFO_PREFIX + json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0


# --------------------------------------------------------------------- #
# Every workload, repeated                                              #
# --------------------------------------------------------------------- #


def _spawn(workload: str, args: argparse.Namespace, trace: int, spans: str | None):
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if spans:
        command += ["--spans", spans]
    # One hash seed for every run: set iteration order then cannot differ
    # between the runs whose digests are compared.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: run exited with {done.returncode}")
    info = next(
        json.loads(line[len(INFO_PREFIX):])
        for line in lines if line.startswith(INFO_PREFIX)
    )
    return json.loads(lines[-1]), info


def run_all(args: argparse.Namespace, spec: dict) -> int:
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]
    ]
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    all_correct = True
    for name in names:
        runs = []
        for repeat in range(args.repeats):
            print(f"[{name}] repeat {repeat + 1}/{args.repeats}", file=sys.stderr)
            runs.append(_spawn(name, args, trace=0, spans=None))
        print(f"[{name}] traced run", file=sys.stderr)
        spans = f"{args.out}.{name}.spans.npz" if args.out else None
        traced, traced_info = _spawn(name, args, trace=1, spans=spans)
        entry = summarise(runs, traced, traced_info)
        report["workloads"][name] = entry
        all_correct &= entry["correct"]
        print_workload(name, entry, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if all_correct else 1


def summarise(runs: list, traced: dict, traced_info: dict) -> dict:
    """Medians of the repeats, digest agreement, and the traced ledger."""
    first_info = runs[0][1]
    reference = first_info["interval_digests"]
    attempted = failed = 0
    digests_agree = True
    for result, info in runs + [(traced, traced_info)]:
        attempted += result["attempted"]
        failed += result["failed"]
        digests = info["interval_digests"]
        # An interval whose digest differs from repeat 1's at the same index
        # failed: same seed, same commit, different simulated outcome.
        differing = sum(a != b for a, b in zip(reference, digests))
        differing += abs(len(reference) - len(digests))
        failed += differing
        digests_agree &= differing == 0
    quiet = [run for run in runs if not run[1]["noisy"]] or runs
    end_to_end = {}
    for name, first in runs[0][0]["metrics"].items():
        end_to_end[name] = {
            "unit": first["unit"],
            "values": [result["metrics"][name]["value"] for result, _ in runs],
            "median": statistics.median(
                result["metrics"][name]["value"] for result, _ in quiet
            ),
        }
    per_layer = dict(traced["metrics"])
    # One traced pass against one untraced pass (each repeat's fastest), not
    # against the floor, which no single pass reaches.
    untraced_pass = statistics.median(
        min(info["pass_wall_s"]) for _, info in quiet
    )
    per_layer["trace.overhead_ratio"] = {
        "value": per_layer["trace.wall_s"]["value"] / untraced_pass,
        "unit": "ratio",
    }
    return {
        "correct": digests_agree
        and all(result["correct"] for result, _ in runs)
        and traced["correct"],
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "sim_digest": first_info["sim_digest"],
        "digests_agree": digests_agree,
        "intervals": first_info["intervals"],
        "closed_intervals": first_info["closed_intervals"],
        "noisy": [info["noisy"] for _, info in runs],
        "passes": [info["passes"] for _, info in runs],
        "calib_ms": [info["calib_ms"] for _, info in runs],
        "import_s": [info["import_s"] for _, info in runs],
        "problems": sorted({
            problem
            for _, info in runs + [(traced, traced_info)]
            for problem in info["problems"]
        }),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def print_workload(name: str, entry: dict, spec: dict) -> None:
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    print(f"\n== {name}: {why}")
    print(
        f"   {'correct' if entry['correct'] else 'INCORRECT'}; attempted "
        f"{entry['attempted']} intervals over all runs, failed "
        f"{entry['failed']} (failed_share {entry['failed_share']:.4f}); "
        f"sim_digest {entry['sim_digest'][:16]}; noisy repeats "
        f"{sum(entry['noisy'])}/{len(entry['noisy'])}"
    )
    for problem in entry["problems"]:
        print(f"   problem: {problem}")
    print(
        f"   end to end, median of {len(entry['noisy'])} untraced repeats "
        f"(percentiles over n={entry['intervals']} intervals, "
        f"{entry['closed_intervals']} closed; passes per repeat "
        f"{entry['passes']}):"
    )
    for metric, data in entry["end_to_end"].items():
        low, high = min(data["values"]), max(data["values"])
        print(
            f"   {metric:<24} {data['median']:>14.4f} {data['unit']:<6} "
            f"[{low:.4f} .. {high:.4f}]"
        )
    per_layer = entry["per_layer"]
    wall = per_layer["trace.wall_s"]["value"]
    # "<layer>.<what>" for the traced layers; anything else (recorder counts,
    # ledger health) is printed as it is.
    traced = {m[: -len(".self_s")] for m in per_layer if m.endswith(".self_s")}
    by_layer: dict[str, dict[str, dict]] = {layer: {} for layer in traced}
    other = {}
    for metric, data in per_layer.items():
        layer, _, what = metric.rpartition(".")
        if layer in traced:
            by_layer[layer][what] = data
        else:
            other[metric] = data
    print("   per layer, one traced run (self time, share of traced wall, calls):")
    for layer, parts in sorted(
        by_layer.items(), key=lambda item: -item[1]["self_s"]["value"]
    ):
        seconds, calls = parts.pop("self_s")["value"], parts.pop("calls")["value"]
        extras = "  ".join(
            f"{what}={data['value']:.6g} {data['unit']}"
            for what, data in parts.items()
        )
        print(
            f"   {layer:<40} {seconds:>9.4f} s {seconds / wall:>6.1%} "
            f"{calls:>9.0f} calls  {extras}"
        )
    for metric, data in other.items():
        print(f"   {metric:<40} {data['value']:>9.4f} {data['unit']}")


# --------------------------------------------------------------------- #
# Entry point                                                           #
# --------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="how long one run measures: passes of the workload are repeated "
        "while they fit (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]],
        help="measure this one workload in this process and print its result",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans", metavar="NPZ", help="with --trace 1: write every span here"
    )
    parser.add_argument(
        "--workloads", help="comma-separated subset for the full command"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out", metavar="FILE",
        help="write the full command's results here, and each traced run's "
        "spans next to it",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(*args.compare, spec)
    if args.workload:
        return run_single(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
