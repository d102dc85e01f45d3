"""Workloads: inputs made from a seed, the chain of CLI commands that forms a
job, the same job run in-process through ``fairbalance.cli.main`` with a span
around each call into a layer, and the checks on every output.

The caller puts ``src`` on ``sys.path`` before importing this module.
"""

import functools
import hashlib
import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

from fairbalance import (
    GroupSet,
    Protocol,
    SynthConfig,
    cli,
    compute_es,
    generate,
    load_manifest,
    read_diag_series,
    sample_naive,
    sample_protocol,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LABELS = ("African", "Asian", "Caucasian", "Indian")
CONCENTRATION = (2, 4, 6, 8)
LABEL_NOISE = 0.05
EPSILON = 0.01
COMMAND_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    identities_per_group: tuple
    images_per_identity: tuple
    # budget of the job's removal commands, as a share of all identities
    remove_fraction: float
    pairs_per_group: int = 0
    runs: int = 0

    @property
    def identities(self):
        return sum(self.identities_per_group)

    @property
    def budget(self):
        return round(self.identities * self.remove_fraction)

    def scaled(self, factor):
        """Same shape with ``factor`` times the identities and pairs."""
        return replace(
            self,
            identities_per_group=tuple(
                max(4, round(n * factor)) for n in self.identities_per_group
            ),
            pairs_per_group=round(self.pairs_per_group * factor),
        )

    def synth_config(self, seed, identities_per_group=None):
        return SynthConfig(
            seed=seed,
            groups=GroupSet(LABELS),
            identities_per_group=identities_per_group or self.identities_per_group,
            images_per_identity=self.images_per_identity,
            concentration=CONCENTRATION,
            label_noise=LABEL_NOISE,
        )


# Two workloads keep a whole benchmark session short: on a small shared host
# the machine's speed drifts by up to 1.5x over minutes. compare-eval also
# carries the load and scoring commands.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "greedy-deep",
            "unequal groups of 1k-2.5k identities with 1-2 images each, 3500 "
            "removals under A, B and C: the greedy sampler's per-step group "
            "re-sum is the largest layer",
            (1000, 1500, 2000, 2500),
            (1, 2),
            0.5,
        ),
        Workload(
            "compare-eval",
            "summarize, relabel, ids and es, then random and single-group "
            "baselines, 200k similarity pairs and a 200-run Pareto ranking: "
            "every layer but the greedy heap",
            (1250, 1250, 1250, 1250),
            (1, 8),
            0.5,
            pairs_per_group=50_000,
            runs=200,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """The generated files of one workload and their sizes."""

    workload: Workload
    seed: int
    directory: Path
    images: int

    @property
    def manifest(self):
        return self.directory / "manifest.csv"

    @property
    def pairs(self):
        return self.directory / "pairs.csv"

    @property
    def runs(self):
        return self.directory / "runs.csv"

    def sizes(self):
        return {
            "images": self.images,
            "identities_per_group": dict(
                zip(LABELS, self.workload.identities_per_group)
            ),
            "pairs": self.workload.pairs_per_group * len(LABELS),
            "runs": self.workload.runs,
        }


def cli_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("FAIRBALANCE_LOG", None)
    return env


@dataclass
class CommandResult:
    argv: list
    wall_s: float
    exit_code: int
    stdout: str
    max_rss_kb: int


def run_cli(argv, env, stderr_path):
    """Run ``python -m fairbalance *argv`` and wait for it; the rusage of
    the child comes from ``os.wait4``."""
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fairbalance", *argv],
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
            cwd=ROOT,
        )
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandResult(
        list(argv), wall, proc.returncode, out.decode("utf-8"), usage.ru_maxrss
    )


# --- set-up -----------------------------------------------------------------


def make_inputs(workload, seed, directory, env):
    """Write the workload's input files; returns (Inputs, wall seconds).

    The manifest comes from a ``fairbalance synth`` subprocess; the pairs
    and runs files (compare-eval only) from a seeded ``random.Random``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    argv = synth_argv(workload, seed, directory / "manifest.csv")
    result = run_cli(argv, env, directory / "synth.stderr")
    if result.exit_code != 0:
        raise RuntimeError(f"synth exited {result.exit_code}")
    if workload.pairs_per_group:
        _write_pairs(directory / "pairs.csv", workload.pairs_per_group, seed)
        _write_runs(directory / "runs.csv", workload.runs, seed)
    elapsed = time.perf_counter() - start
    images = count_lines(directory / "manifest.csv") - 1
    return Inputs(workload, seed, directory, images), elapsed


def synth_argv(workload, seed, out):
    """The ``fairbalance synth`` command that writes the workload's manifest."""
    return [
        "synth",
        "--seed", str(seed),
        "--identities-per-group", ",".join(map(str, workload.identities_per_group)),
        "--images-per-identity", ",".join(map(str, workload.images_per_identity)),
        "--concentration", ",".join(map(str, CONCENTRATION)),
        "--label-noise", str(LABEL_NOISE),
        "--out", str(out),
    ]


def _write_pairs(path, per_group, seed):
    """Similarity-mode pairs, scores at 4 decimals so thresholds tie."""
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("group,similarity,is_genuine\n")
        for g, label in enumerate(LABELS):
            spread = 0.10 + 0.02 * g
            lines = []
            for _ in range(per_group):
                genuine = rng.random() < 0.5
                score = rng.gauss(0.62 if genuine else 0.30, spread)
                lines.append(f"{label},{score:.4f},{int(genuine)}\n")
            handle.writelines(lines)


def _write_runs(path, count, seed):
    """Run summaries; every 40th run has one perfect group, so ``--bias ser``
    skips it."""
    rng = random.Random(seed ^ 0x5EED)
    strategies = ("A", "B", "C", "random", "single-min")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(
            "run_id,strategy,size," + ",".join(f"acc_{g}" for g in LABELS) + "\n"
        )
        for i in range(count):
            accs = [f"{rng.uniform(0.80, 0.995):.4f}" for _ in LABELS]
            if i % 40 == 39:
                accs[i % len(LABELS)] = "1.0"
            size = ("25%", "50%", "75%")[i % 3]
            handle.write(
                f"run{i:04d},{strategies[i % len(strategies)]},{size},"
                + ",".join(accs) + "\n"
            )


def count_lines(path):
    with open(path, "rb") as handle:
        return handle.read().count(b"\n")


# --- the job ----------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    command: str
    args: tuple

    def argv(self):
        return [self.command, *self.args]


def job_steps(inputs, out):
    """The command chain of one job; outputs go under ``out``."""
    w, m = inputs.workload, str(inputs.manifest)
    z, seed = str(w.budget), str(inputs.seed)
    eps = str(EPSILON)

    def o(name):
        return str(out / name)

    if w.name == "greedy-deep":
        return [
            Step("validate", (m,)),
            Step("sample", (m, "--protocol", "A", "--remove", z,
                            "--log", o("a.log.csv"), "--evolution", o("a.evo.csv"),
                            "--out", o("a.csv"))),
            Step("equilibrium", ("--trace", o("a.evo.csv"), "--epsilon", eps)),
            Step("sample", (m, "--protocol", "B", "--remove", z, "--relabel-first",
                            "--log", o("b.log.csv"), "--out", o("b.csv"))),
            Step("sample", (m, "--protocol", "C", "--remove", z,
                            "--evolution", o("c.evo.csv"), "--out", o("c.csv"))),
            Step("equilibrium", ("--trace", o("b.log.csv"), "--epsilon", eps)),
        ]
    if w.name == "compare-eval":
        return [
            Step("summarize", (m, "--out", o("summary.json"))),
            Step("relabel", (m, "--out", o("relabelled.csv"))),
            Step("ids", (o("relabelled.csv"), "--protocol", "A", "--out", o("ids.csv"))),
            Step("es", (m, "--protocol", "B", "--format", "json")),
            Step("sample", (m, "--protocol", "random", "--remove", z, "--seed", seed,
                            "--log", o("random.log.csv"), "--out", o("random.csv"))),
            Step("single", (m, "--group", LABELS[0], "--strategy", "min",
                            "--keep-fraction", "0.5",
                            "--log", o("min.log.csv"), "--out", o("min.csv"))),
            Step("single", (m, "--group", LABELS[-1], "--strategy", "rand",
                            "--keep-fraction", "0.25", "--seed", seed,
                            "--log", o("rand.log.csv"), "--out", o("rand.csv"))),
            Step("equilibrium", ("--trace", o("random.log.csv"), "--epsilon", eps)),
            Step("metrics", ("--pairs", str(inputs.pairs), "--mode", "similarity")),
            Step("pareto", ("--runs", str(inputs.runs), "--bias", "std",
                            "--out", o("frontier.csv"))),
            Step("pareto", ("--runs", str(inputs.runs), "--bias", "ser")),
        ]
    raise ValueError(f"unknown workload {w.name!r}")


def run_cli_job(steps, env, stderr_path):
    """The closed loop: each command starts when the previous one exits.
    Returns (job wall seconds, [CommandResult])."""
    start = time.perf_counter()
    results = [run_cli(step.argv(), env, stderr_path) for step in steps]
    return time.perf_counter() - start, results


# --- the same job in-process --------------------------------------------------
#
# The in-process job calls ``fairbalance.cli.main`` itself, so it runs exactly
# the code each command runs. For a traced job, every layer function that
# ``fairbalance.cli`` imports is swapped for a wrapper that records a span
# "<module>.<function>" around the call, under the command's span
# "cli.<command>". Calls made inside a layer go through the layer's own names
# and stay inside the caller's span.

TRACED_MODULES = ("manifest", "scoring", "sampling", "metrics", "synth")


def _removed(result, *_args):
    return len(result[1].events)


def _relabelled(result, manifest, *_args):
    return sum(
        1
        for ident, rec in manifest.identities.items()
        if result.identities[ident].group != rec.group
    )


# Counts taken from a traced call's return value and arguments.
COUNTS = {
    "load_manifest": (("manifest.rows_loaded", lambda result, *_: len(result.images)),),
    "relabel": (("scoring.relabelled", _relabelled),),
    "sample_protocol": (("sampling.removed", _removed), ("sampling.greedy_steps", _removed)),
    "sample_random": (("sampling.removed", _removed),),
    "sample_single_group": (("sampling.removed", _removed),),
    "equilibrium_step": (("sampling.equilibrium_step", lambda result, *_: result or 0),),
    "read_pairs_csv": (("metrics.pairs", lambda result, *_: len(result)),),
    "pareto_frontier": (("metrics.frontier_size", lambda result, *_: len(result)),),
}


def _traced(tracer, function):
    name = f"{function.__module__.split('.')[-1]}.{function.__name__}"
    counts = COUNTS.get(function.__name__, ())

    @functools.wraps(function)
    def call(*args, **kwargs):
        span = name
        if function.__name__ == "sample_protocol":
            span += "_" + Protocol(args[1]).value
        with tracer.span(span):
            result = function(*args, **kwargs)
        for key, count in counts:
            tracer.count(key, count(result, *args))
        return result

    return call


@contextmanager
def traced_cli(tracer):
    """Swap ``fairbalance.cli``'s layer functions for span-recording
    wrappers; put the originals back on exit."""
    originals = {
        attr: value
        for attr, value in vars(cli).items()
        if inspect.isfunction(value)
        and value.__module__.split(".")[-1] in TRACED_MODULES
    }
    try:
        for attr, function in originals.items():
            setattr(cli, attr, _traced(tracer, function))
        yield
    finally:
        for attr, function in originals.items():
            setattr(cli, attr, function)


def run_inprocess(argv, tracer=None):
    """``fairbalance.cli.main(argv)`` in this process, inside a span
    "cli.<command>" when traced. Returns (exit code, stdout text)."""
    buffer = io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else nullcontext()
    with span, redirect_stdout(buffer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buffer.getvalue()


def run_inprocess_job(steps, tracer=None):
    """The job in-process, traced when given a tracer. Returns
    (job wall seconds, [exit code], [stdout text]), one entry per step."""
    codes, printed = [], []
    with traced_cli(tracer) if tracer else nullcontext():
        start = time.perf_counter()
        for step in steps:
            code, text = run_inprocess(step.argv(), tracer)
            codes.append(code)
            printed.append(text)
        wall = time.perf_counter() - start
    return wall, codes, printed


# --- output checks ------------------------------------------------------------


def _option(step, flag):
    args = list(step.args)
    return args[args.index(flag) + 1] if flag in args else None


def check_output(step, stdout, inputs):
    """Problems with one command's stdout and output files ([] if none)."""
    w = inputs.workload
    total = w.identities
    try:
        payload = json.loads(stdout) if stdout else None
    except ValueError:
        return [f"{step.command}: stdout is not JSON"]
    out = _option(step, "--out")
    problems = []

    def expect(condition, what):
        if not condition:
            problems.append(f"{step.command}: {what}")

    def lines(path):
        return count_lines(path) if path and os.path.exists(path) else -1

    if step.command == "validate":
        expect(payload == {
            "images": inputs.images,
            "identities": total,
            "groups": list(LABELS),
            "per_group_identities": dict(zip(LABELS, w.identities_per_group)),
            "rejected_rows": 0,
        }, "payload does not match the generated manifest")
    elif step.command == "summarize":
        expect(payload is None, "printed output despite --out")
        try:
            with open(out, encoding="utf-8") as handle:
                report = json.load(handle)
            counts = [report["per_group"][g]["identities"] for g in LABELS]
            ok = (report["identities"] == total and report["images"] == inputs.images
                  and counts == list(w.identities_per_group))
        except (OSError, ValueError, KeyError, TypeError):
            ok = False
        expect(ok, "summary counts do not match the manifest")
    elif step.command == "relabel":
        expect(isinstance(payload, dict) and payload.keys() == {"identities", "relabelled"}
               and payload["identities"] == total
               and 0 <= payload["relabelled"] <= total, "bad payload")
        expect(lines(out) == inputs.images + 1, "relabelled manifest row count")
    elif step.command == "ids":
        expect(payload is None, "printed output despite --out")
        expect(lines(out) == total + 1, "ids row count")
    elif step.command == "es":
        expect(isinstance(payload, dict) and list(payload) == list(LABELS)
               and all(list(row) == list(LABELS) for row in payload.values()),
               "matrix labels")
    elif step.command in ("sample", "single"):
        if step.command == "sample":
            removed = int(_option(step, "--remove"))
        else:
            n = w.identities_per_group[LABELS.index(_option(step, "--group"))]
            removed = n - math.ceil(float(_option(step, "--keep-fraction")) * n)
        expect(isinstance(payload, dict)
               and payload.keys() == {"removed", "identities", "images"},
               "payload keys")
        if not problems:
            expect(payload["removed"] == removed, f"removed {payload['removed']} != {removed}")
            expect(payload["identities"] == total - removed, "identities != before - removed")
            expect(payload["images"] == lines(out) - 1, "images != subset rows")
        log, evolution = _option(step, "--log"), _option(step, "--evolution")
        if log:
            expect(lines(log) == removed + 1, "removal log row count")
        if evolution:
            expect(lines(evolution) == removed + 2, "evolution row count")
    elif step.command == "equilibrium":
        expect(isinstance(payload, dict) and payload.keys() == {"step"}
               and (payload["step"] is None
                    or (isinstance(payload["step"], int) and payload["step"] >= 1)),
               "bad payload")
    elif step.command == "metrics":
        expect(isinstance(payload, dict)
               and payload.keys() == {"per_group", "average", "std", "ser", "flags"}
               and list(payload["per_group"]) == list(LABELS)
               and all(0 <= v <= 100 for v in payload["per_group"].values()),
               "bad payload")
    elif step.command == "pareto":
        ok = (isinstance(payload, dict)
              and payload.keys() == {"points", "skipped", "frontier"}
              and payload["points"] + payload["skipped"] == w.runs
              and len(payload["frontier"]) >= 1)
        expect(ok, "bad payload")
        if out and ok:
            with open(out, encoding="utf-8") as handle:
                flagged = handle.read().count(",true\n")
            expect(lines(out) == w.runs + 1 and flagged == len(payload["frontier"]),
                   "frontier file does not match the payload")
    return problems


def check_final_diagonal(step):
    """The last diagonal of the step's removal log and evolution file equals
    ``compute_es(subset).diag()`` of the subset it wrote, bitwise. The
    baselines (random, single) track protocol-A means, so they are checked
    under A."""
    logs = [p for p in (_option(step, "--log"), _option(step, "--evolution")) if p]
    if step.command not in ("sample", "single") or not logs:
        return []
    protocol = _option(step, "--protocol")
    if protocol in (None, "random"):
        protocol = "A"
    expected = compute_es(load_manifest(_option(step, "--out")), protocol).diag()
    problems = []
    for path in logs:
        _labels, series = read_diag_series(path)
        last = series[-1][1] if series else ()
        if [v.hex() for v in last] != [v.hex() for v in expected]:
            problems.append(
                f"{os.path.basename(path)}: last diagonal differs from "
                "compute_es(subset).diag()"
            )
    return problems


def file_digest(path):
    """First 16 hex digits of the file's sha256."""
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()[:16]


def fingerprint(step, stdout):
    """Digest of what one step printed and of every file it wrote."""
    result = {"stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()[:16]}
    for flag in ("--out", "--log", "--evolution"):
        path = _option(step, flag)
        if path and os.path.exists(path):
            result[os.path.basename(path)] = file_digest(path)
    return result


def _trace_key(subset, trace):
    return (
        list(subset.identities),
        [
            (e.step, e.identity_id, e.group, e.own_group_ids.hex(),
             [v.hex() for v in e.diag_before], [v.hex() for v in e.diag_after])
            for e in trace.events
        ],
    )


def check_naive_shard(workload, seed):
    """``sample_protocol`` and ``sample_naive`` agree on a small shard made
    from the workload seed, under A, B and C, event for event."""
    config = workload.synth_config(seed, identities_per_group=(20, 24, 28, 32))
    manifest = generate(config)
    # fewer steps than the smallest group has identities, so no group empties
    z = 16
    problems = []
    for protocol in ("A", "B", "C"):
        fast = _trace_key(*sample_protocol(manifest, Protocol(protocol), z))
        oracle = _trace_key(*sample_naive(manifest, Protocol(protocol), z))
        if fast != oracle:
            problems.append(f"protocol {protocol}: sample_protocol differs from sample_naive")
    return problems
