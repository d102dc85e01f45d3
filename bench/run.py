"""End-to-end and per-layer benchmark of the fairbalance CLI.

A timed run (``--trace 0``) makes the workload's inputs from ``--seed``,
then runs its job, a chain of ``python -m fairbalance`` commands, again and
again for ``--seconds``. The chain is a closed loop with one client: each
command starts when the previous one exits, so one child runs at a time.
Every command's output is checked.

A traced run (``--trace 1``) runs the job through the CLI, then the same job
in-process through ``fairbalance.cli.main``, untraced and then with one span
per call into a layer; three rounds of the three. Self times of those spans
give the per-layer metrics, as medians over the rounds.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full report, spans included,
goes to ``.bench_out/`` in the repository root.

    python3 bench/run.py                                   # every workload, both runs
    python3 bench/run.py --workload greedy-deep --seed 3 --seconds 30 --trace 0
    python3 -m cProfile -s cumtime bench/run.py --workload compare-eval --job-only
"""

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
STARTUP_REPS = 5
GROWTH_REPS = 5
TRACED_REPS = 3
# the traced job's gaps between command spans, as a share of its wall time
GAP_SHARE = 0.01
COMMANDS = (
    "validate", "summarize", "relabel", "ids", "es",
    "sample", "single", "equilibrium", "metrics", "pareto",
)
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PER_LAYER = [m["name"] for m in DECLARED["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
# printed and reported, but not declared in BENCHMARK.json
UNITS.update(images_per_s="images/s", failed_ratio="ratio", job_s_tail="s")
# layers whose time metrics "<layer>.<function>_s" are self times of the
# spans "<layer>.<function>"; metrics.pareto_s sums three of them
SPAN_LAYERS = ("manifest", "scoring", "sampling", "metrics")
PARETO_SPANS = ("metrics.runs_to_points", "metrics.pareto_frontier",
                "metrics.write_frontier_csv")
WAIT_S = {"value": 0.0, "note": "one command runs at a time, so no layer has "
          "a queue; waiting is zero by construction"}
# Which end-to-end metric each layer metric should move, and where.
LAYER_MOVES = {
    "manifest": "job_s and images_per_s on both workloads, most on compare-eval, "
                "whose commands all load the manifest; peak_rss_mb everywhere",
    "scoring": "job_s on compare-eval",
    "sampling (greedy)": "job_s on greedy-deep; predicted no change on compare-eval",
    "sampling (baselines, logs)": "job_s on compare-eval; the log writers also run "
                                  "on greedy-deep",
    "metrics": "job_s on compare-eval",
    "synth, rng": "setup_s on both; rng is measured through synth and "
                  "sample_random",
    "cli": "job_s on every workload, in proportion to its command count",
    "trace": "nothing; it keeps the per-layer numbers honest",
}


def unit(name):
    return UNITS[name]


def require_source():
    """Put the checkout's ``src`` first on the path; fail without it."""
    package = ROOT / "src" / "fairbalance" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a fairbalance checkout")
    sys.path.insert(0, str(ROOT / "src"))


class Ledger:
    """Output checks: one entry per command run or standalone check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def calibrate():
    """A fixed pure-Python loop, timed; reported only, never used to scale."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n,
                "note": "fewer than 11 samples; no percentile has ten beyond it"}
    return {"value": sorted(values)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def environment(inputs, seed):
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "inputs": inputs.sizes(),
        "clients": 1,
        "loop": "closed",
    }


def _step_label(index, step):
    return f"{index}:{step.command}"


def timed_run(jobs, workload, seed, seconds, work):
    env = jobs.cli_env()
    ledger = Ledger()
    calibration = [calibrate()]
    jobs.run_cli(["--version"], env, work / "warmup.stderr")
    ledger.record("naive shard", jobs.check_naive_shard(workload, seed))

    setup_times, setup_prints = [], []

    def set_up(directory):
        made, elapsed = jobs.make_inputs(workload, seed, directory, env)
        setup_times.append(elapsed)
        setup_prints.append(_input_digests(jobs, made))
        return made

    inputs = set_up(work / "inputs")
    steps = jobs.job_steps(inputs, _fresh(work / "out"))
    walls, peaks, command_walls = [], [], {}
    reference = None
    # Only job time counts towards --seconds; checks run between jobs. The
    # other set-ups run between the first jobs, so their median is not
    # taken from one moment of the run.
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        wall, results = jobs.run_cli_job(steps, env, work / "command.stderr")
        walls.append(wall)
        peaks.append(max(r.max_rss_kb for r in results) / 1024.0)
        for index, (step, result) in enumerate(zip(steps, results)):
            command_walls.setdefault(_step_label(index, step), []).append(result.wall_s)
        prints = _check_cli_job(jobs, ledger, "", steps, results, inputs, reference)
        reference = reference or prints
        if len(setup_times) < SETUP_REPS:
            set_up(work / "inputs-again")
    while len(setup_times) < SETUP_REPS:
        set_up(work / "inputs-again")
    ledger.record("set-up determinism",
                  [] if all(p == setup_prints[0] for p in setup_prints)
                  else ["inputs differ between set-up repetitions"])
    calibration.append(calibrate())

    job_s = statistics.median(walls)
    metrics = {
        "job_s": job_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(peaks),
    }
    report = {
        "workload": workload.name,
        "mode": "timed",
        "environment": environment(inputs, seed),
        "samples": {"job_s": len(walls), "setup_s": len(setup_times),
                    "peak_rss_mb": len(peaks)},
        # Reported here, not in BENCHMARK.json: images_per_s is images / job_s,
        # failed_ratio is 0 when the program is right, and job_s_tail needs
        # more than ten jobs in a run.
        "images_per_s": inputs.images / job_s,
        "job_s_tail": tail(walls),
        "failed_ratio": ledger.failed / ledger.attempted,
        "wait_s": WAIT_S,
        "job_walls_s": walls,
        "setup_walls_s": setup_times,
        "command_median_s": {k: statistics.median(v) for k, v in command_walls.items()},
        "calibration_s": {"before": calibration[0], "after": calibration[1]},
        "digests": {"inputs": setup_prints[0],
                    "outputs": {_step_label(i, s): p
                                for i, (s, p) in enumerate(zip(steps, reference))}},
        "problems": ledger.problems,
    }
    return ledger, metrics, report


def _input_digests(jobs, inputs):
    paths = (inputs.manifest, inputs.pairs, inputs.runs)
    return {p.name: jobs.file_digest(p) for p in paths if p.exists()}


def _fresh(directory):
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    return directory


def _command_problems(jobs, step, result, inputs):
    if result.exit_code != 0:
        return [f"exit code {result.exit_code}"]
    return jobs.check_output(step, result.stdout, inputs)


def _check_cli_job(jobs, ledger, prefix, steps, results, inputs, reference):
    """Record each command's checks and return the job's fingerprints. With
    no reference yet, the logs are checked against ``compute_es``; later
    repetitions must match the reference byte for byte."""
    prints = []
    for index, (step, result) in enumerate(zip(steps, results)):
        problems = _command_problems(jobs, step, result, inputs)
        prints.append(jobs.fingerprint(step, result.stdout))
        if reference is None:
            problems += jobs.check_final_diagonal(step)
        elif prints[-1] != reference[index]:
            problems.append("output differs from the first repetition")
        ledger.record(prefix + _step_label(index, step), problems)
    return prints


def traced_run(jobs, spans, workload, seed, work):
    env = jobs.cli_env()
    ledger = Ledger()
    calibration = [calibrate()]
    startup = [jobs.run_cli(["--version"], env, work / "startup.stderr").wall_s
               for _ in range(STARTUP_REPS + 1)][1:]
    ledger.record("naive shard", jobs.check_naive_shard(workload, seed))
    inputs, setup_wall = jobs.make_inputs(workload, seed, work / "inputs", env)

    setup_tracer = spans.Tracer("setup")
    synth_out = work / "synth-inprocess.csv"
    with jobs.traced_cli(setup_tracer):
        code, _ = jobs.run_inprocess(jobs.synth_argv(workload, seed, synth_out),
                                     setup_tracer)
    same = code == 0 and synth_out.read_bytes() == inputs.manifest.read_bytes()
    ledger.record("in-process synth",
                  [] if same else ["exit code or manifest bytes differ from the CLI's"])

    def cli_job():
        steps = jobs.job_steps(inputs, _fresh(work / "cli"))
        wall, results = jobs.run_cli_job(steps, env, work / "command.stderr")
        per_command = Counter()
        for step, result in zip(steps, results):
            per_command[step.command] += result.wall_s
        command_walls.append(per_command)
        prints = _check_cli_job(jobs, ledger, "cli ", steps, results, inputs,
                                reference or None)
        reference[:] = reference or prints
        return wall

    def inprocess(kind, tracer):
        steps = jobs.job_steps(inputs, _fresh(work / kind))
        gc.collect()
        wall, codes, printed = jobs.run_inprocess_job(steps, tracer)
        for index, (step, code, text) in enumerate(zip(steps, codes, printed)):
            problems = [] if code == 0 else [f"exit code {code}"]
            if jobs.fingerprint(step, text) != reference[index]:
                problems.append("output differs from the CLI's")
            ledger.record(f"{kind} {_step_label(index, step)}", problems)
        return wall

    labels = [_step_label(i, s) for i, s in enumerate(jobs.job_steps(inputs, work))]
    # Rotate through the CLI job, the untraced and the traced in-process job,
    # so that drift in machine speed falls on all three; each metric is a
    # median over the repetitions.
    reference, command_walls = [], []
    cli_walls, plain_walls, traced_walls, tracers = [], [], [], []
    for rep in range(TRACED_REPS):
        cli_walls.append(cli_job())
        plain_walls.append(inprocess("untraced", None))
        tracers.append(spans.Tracer(f"{workload.name}/{seed}/{rep}"))
        traced_walls.append(inprocess("traced", tracers[-1]))
    plain_wall = statistics.median(plain_walls)

    growth = greedy_growth(workload, seed)
    calibration.append(calibrate())

    per_rep = [layer_metrics(spans, t, setup_tracer, inputs.images) for t in tracers]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    for command in COMMANDS:
        metrics[f"cli.{command}_s"] = statistics.median(c[command] for c in command_walls)
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["cli.overhead_s"] = statistics.median(cli_walls) - plain_wall
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - plain_wall
    metrics["sampling.greedy_growth_4x"] = growth["ratio"]

    # Self times add up to the command spans they sit in, so the layers
    # account for the job up to its gaps between commands, which must be
    # small in every round.
    gaps = []
    for tracer, wall in zip(tracers, traced_walls):
        gap, problems = spans.coverage(tracer.spans, wall, GAP_SHARE)
        gaps.append(gap)
        ledger.record(f"trace coverage {tracer.job_id}", problems)
    report = {
        "workload": workload.name,
        "mode": "traced",
        "environment": environment(inputs, seed),
        "samples": {"cli.startup_s": len(startup), "jobs": TRACED_REPS,
                    "sampling.greedy_growth_4x": growth["samples"]},
        "setup_wall_s": setup_wall,
        "job_walls_s": {"cli": cli_walls, "untraced": plain_walls, "traced": traced_walls},
        "coverage": {"traced_job_s": traced_walls, "gaps_s": gaps,
                     "max_gap_share": GAP_SHARE},
        "greedy_growth": growth,
        "wait_s": WAIT_S,
        "calibration_s": {"before": calibration[0], "after": calibration[1]},
        "layer_moves": LAYER_MOVES,
        "not_separated": [
            "_util (atomic_write, fmt_float) runs inside every write_* span",
            "sample_protocol calls compute_ids and Manifest.remove_identities; "
            "their cost stays in the sampling span",
        ],
        "digests": dict(zip(labels, reference)),
        "problems": ledger.problems,
        "spans": {t.job_id: t.spans for t in (setup_tracer, *tracers)},
        "counts": dict(tracer.counts),
    }
    return ledger, metrics, report


def layer_metrics(spans, tracer, setup_tracer, images):
    own = spans.self_time_by_name(tracer.spans)
    counts = tracer.counts
    metrics = {
        f"{layer}.self_s": sum(t for name, t in own.items() if name.split(".")[0] == layer)
        for layer in ("cli", *SPAN_LAYERS)
    }
    for name in PER_LAYER:
        if name.split(".")[0] in SPAN_LAYERS and unit(name) == "s" and name not in metrics:
            metrics[name] = own[name[:-2]]
    metrics["metrics.pareto_s"] = sum(own[name] for name in PARETO_SPANS)
    greedy_s = sum(metrics[f"sampling.sample_protocol_{p}_s"] for p in "ABC")
    pairs_s = metrics["metrics.read_pairs_csv_s"] + metrics["metrics.group_accuracy_s"]
    generate_s = spans.self_time_by_name(setup_tracer.spans)["synth.generate"]
    metrics.update({
        "manifest.rows_loaded": counts["manifest.rows_loaded"],
        "manifest.rows_per_s": _rate(counts["manifest.rows_loaded"],
                                     metrics["manifest.load_manifest_s"]),
        "scoring.relabelled": counts["scoring.relabelled"],
        "sampling.greedy_steps_per_s": _rate(counts["sampling.greedy_steps"], greedy_s),
        "sampling.removed": counts["sampling.removed"],
        "sampling.equilibrium_step": counts["sampling.equilibrium_step"],
        "metrics.pairs_per_s": _rate(counts["metrics.pairs"], pairs_s),
        "metrics.frontier_size": counts["metrics.frontier_size"],
        "synth.generate_s": generate_s,
        "synth.images_per_s": _rate(images, generate_s),
    })
    return metrics


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def greedy_growth(workload, seed):
    """``sample_protocol(A)`` on the greedy-deep manifest over the same on a
    quarter-size manifest made the same way: about 4 for a linear step,
    about 16 for a quadratic one. Only greedy-deep measures it; elsewhere
    the ratio reads 0."""
    from fairbalance import Protocol, generate, sample_protocol

    if workload.name != "greedy-deep":
        return {"ratio": 0.0, "samples": 0,
                "note": "measured on greedy-deep only"}
    full = generate(workload.synth_config(seed))
    quarter = generate(workload.synth_config(
        seed, tuple(max(1, n // 4) for n in workload.identities_per_group)))

    def timed(m):
        z = round(m.identity_count * workload.remove_fraction)
        times = []
        for _ in range(GROWTH_REPS):
            start = time.perf_counter()
            sample_protocol(m, Protocol.A, z)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    full_s, quarter_s = timed(full), timed(quarter)
    return {"ratio": full_s / quarter_s, "full_s": full_s, "quarter_s": quarter_s,
            "samples": GROWTH_REPS}


def job_only(jobs, spans, workload, seed, trace, work):
    """Set up, then run the in-process job once: the thing to profile."""
    inputs, _ = jobs.make_inputs(workload, seed, work / "inputs", jobs.cli_env())
    tracer = spans.Tracer(workload.name) if trace else None
    steps = jobs.job_steps(inputs, _fresh(work / "out"))
    wall, codes, printed = jobs.run_inprocess_job(steps, tracer)
    ledger = Ledger()
    for index, (step, code, text) in enumerate(zip(steps, codes, printed)):
        ledger.record(_step_label(index, step), [f"exit code {code}"] if code
                      else jobs.check_output(step, text, inputs))
    return ledger, {"job_s": wall}, {"workload": workload.name, "mode": "job-only",
                                     "inprocess_job_s": wall}


def print_metrics(title, metrics):
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit(name)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="greedy-deep, compare-eval or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long a timed run repeats the job")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: timed run only; 1: traced run only; default both")
    parser.add_argument("--job-only", action="store_true",
                        help="set up, then run the in-process job once (for cProfile)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply identities and pairs (tests use a tiny scale)")
    args = parser.parse_args(argv)

    require_source()
    import jobs
    import spans

    names = list(jobs.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in jobs.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    modes = [0, 1] if args.trace is None else [args.trace]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    total = Ledger()
    result_metrics = {}
    for name in names:
        workload = jobs.WORKLOADS[name]
        if args.scale != 1.0:
            workload = workload.scaled(args.scale)
        for mode in modes:
            work = _fresh(out_dir / f"work-{os.getpid()}")
            try:
                if args.job_only:
                    ledger, metrics, report = job_only(
                        jobs, spans, workload, args.seed, mode == 1, work)
                elif mode == 0:
                    ledger, metrics, report = timed_run(
                        jobs, workload, args.seed, args.seconds, work)
                else:
                    ledger, metrics, report = traced_run(
                        jobs, spans, workload, args.seed, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            report["metrics"] = {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}
            path = out_dir / f"{name}-seed{args.seed}-{report['mode']}.json"
            path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
            print_metrics(f"{name} {report['mode']} (report: {path.relative_to(ROOT)})",
                          metrics)
            for key in ("images_per_s", "failed_ratio", "job_s_tail"):
                if key in report:
                    print(f"  report only: {key} {json.dumps(report[key])} {unit(key)}")
            for problem in ledger.problems:
                print(f"  FAILED {problem}")
            total.attempted += ledger.attempted
            total.failed += ledger.failed
            prefix = "" if len(names) == 1 else f"{name}."
            result_metrics.update({f"{prefix}{k}": {"value": v, "unit": unit(k)}
                                   for k, v in metrics.items()})
            if args.job_only:
                break
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
