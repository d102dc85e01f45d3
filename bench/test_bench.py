"""Tests of the benchmark itself: every workload runs at a tiny scale, every
printed metric is declared in BENCHMARK.json, and each output check fires
on a tampered output.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

run.require_source()
import jobs  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
SCALE = "0.04"


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", SCALE, *args],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture
def scratch():
    path = run.ROOT / ".bench_out" / "test-scratch"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_every_workload_runs_and_every_metric_is_declared():
    lines = _bench("--seconds", "0.1")
    result = json.loads(lines[-1])
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {**END_TO_END, **PER_LAYER}
    for key, metric in result["metrics"].items():
        workload, name = key.split(".", 1)
        assert workload in jobs.WORKLOADS
        assert declared.get(name) == metric["unit"], name
    printed = [line.split()[0] for line in lines if line.startswith("  ") and
               not line.lstrip().startswith(("report only:", "FAILED"))]
    assert printed and set(printed) <= set(declared)


@pytest.mark.parametrize("trace, declared", [("0", END_TO_END), ("1", PER_LAYER)])
def test_single_workload_prints_exactly_the_declared_metrics(trace, declared):
    lines = _bench("--workload", "greedy-deep",
                   "--seconds", "0.1", "--trace", trace)
    result = json.loads(lines[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_benchmark_fails_without_the_package(scratch):
    (scratch / "bench").mkdir()
    for name in ("run.py", "jobs.py", "spans.py"):
        shutil.copy(BENCH / name, scratch / "bench" / name)
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "greedy-deep"],
                          capture_output=True, text=True, cwd=scratch, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# --- each check fires on a tampered output ------------------------------------


@pytest.fixture
def cli_job(scratch):
    workload = jobs.WORKLOADS["greedy-deep"].scaled(0.04)
    env = jobs.cli_env()
    inputs, _ = jobs.make_inputs(workload, 1, scratch / "inputs", env)
    out = scratch / "out"
    out.mkdir()
    steps = jobs.job_steps(inputs, out)
    _wall, results = jobs.run_cli_job(steps, env, scratch / "stderr")
    for step, result in zip(steps, results):
        assert result.exit_code == 0
        assert jobs.check_output(step, result.stdout, inputs) == []
        assert jobs.check_final_diagonal(step) == []
    return inputs, steps, results


def _step(steps, command, protocol=None):
    return next(s for s in steps if s.command == command
                and (protocol is None or protocol in s.args))


def test_payload_check_fires_on_wrong_counts(cli_job):
    inputs, steps, results = cli_job
    step = _step(steps, "sample", "A")
    payload = json.loads(results[steps.index(step)].stdout)
    for key, delta in (("removed", 1), ("identities", -1), ("images", 2)):
        bad = dict(payload, **{key: payload[key] + delta})
        assert jobs.check_output(step, json.dumps(bad), inputs), key
    assert jobs.check_output(step, json.dumps({"removed": payload["removed"]}), inputs)
    assert jobs.check_output(step, "not json", inputs)
    validate = _step(steps, "validate")
    payload = json.loads(results[steps.index(validate)].stdout)
    payload["per_group_identities"]["African"] += 1
    assert jobs.check_output(validate, json.dumps(payload), inputs)


def test_exit_code_check_fires(cli_job):
    inputs, steps, results = cli_job
    failed = jobs.CommandResult(steps[0].argv(), 0.1, 1, results[0].stdout, 1)
    assert run._command_problems(jobs, steps[0], failed, inputs) == ["exit code 1"]


def test_final_diagonal_check_fires_on_a_tampered_log(cli_job):
    _inputs, steps, _results = cli_job
    step = _step(steps, "sample", "B")
    log = Path(jobs._option(step, "--log"))
    rows = log.read_text(encoding="utf-8").splitlines()
    cells = rows[-1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-12)
    log.write_text("\n".join(rows[:-1] + [",".join(cells)]) + "\n", encoding="utf-8")
    assert jobs.check_final_diagonal(step)


def test_fingerprint_changes_with_any_output_byte(cli_job):
    # Determinism across repetitions and CLI/in-process identity both
    # compare these fingerprints.
    _inputs, steps, results = cli_job
    step = _step(steps, "sample", "C")
    before = jobs.fingerprint(step, results[steps.index(step)].stdout)
    path = Path(jobs._option(step, "--evolution"))
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n", 1))
    assert jobs.fingerprint(step, results[steps.index(step)].stdout) != before
    assert jobs.fingerprint(step, results[steps.index(step)].stdout + " ") != \
        jobs.fingerprint(step, results[steps.index(step)].stdout)


def test_inprocess_job_matches_the_cli_byte_for_byte(cli_job, scratch):
    inputs, steps, results = cli_job
    out = scratch / "inprocess"
    out.mkdir()
    mine = jobs.job_steps(inputs, out)
    tracer = spans.Tracer("test")
    wall, codes, printed = jobs.run_inprocess_job(mine, tracer)
    assert codes == [0] * len(mine)
    for cli_step, result, step, text in zip(steps, results, mine, printed):
        assert jobs.fingerprint(step, text) == jobs.fingerprint(cli_step, result.stdout)
    # command spans are the roots; every other span has one as its parent
    roots = [s for s in tracer.spans if s["parent"] is None]
    assert [s["name"] for s in roots] == [f"cli.{s.command}" for s in mine]
    assert {s["name"] for s in tracer.spans} >= {
        "manifest.load_manifest", "sampling.sample_protocol_A",
        "sampling.sample_protocol_B", "scoring.relabel", "sampling.write_evolution"}
    assert tracer.counts["sampling.removed"] == 3 * inputs.workload.budget
    assert spans.coverage(tracer.spans, wall, run.GAP_SHARE)[1] == []
    # the CLI's own functions are back in place
    assert jobs.cli.load_manifest is jobs.load_manifest


def test_coverage_check_fires_on_a_delay_between_commands():
    tracer = spans.Tracer("t")
    start = time.perf_counter()
    with tracer.span("cli.validate"):
        time.sleep(0.05)
    with tracer.span("cli.sample"):
        time.sleep(0.05)
    assert spans.coverage(tracer.spans, time.perf_counter() - start, 0.05)[1] == []
    time.sleep(0.02)
    with tracer.span("cli.equilibrium"):
        time.sleep(0.05)
    gaps, problems = spans.coverage(tracer.spans, time.perf_counter() - start, 0.05)
    assert gaps >= 0.02 and problems


def test_coverage_check_fires_on_a_span_outside_every_command():
    tracer = spans.Tracer("t")
    start = time.perf_counter()
    with tracer.span("cli.validate"):
        time.sleep(0.05)
    with tracer.span("manifest.load_manifest"):
        pass
    _gaps, problems = spans.coverage(tracer.spans, time.perf_counter() - start, 0.05)
    assert problems == ["span manifest.load_manifest lies outside every command span"]


def test_naive_shard_check_fires_when_the_fast_path_drifts(monkeypatch):
    workload = jobs.WORKLOADS["greedy-deep"]
    assert jobs.check_naive_shard(workload, 1) == []
    real = jobs.sample_protocol

    def drifting(manifest, protocol, z):
        subset, trace = real(manifest, protocol, z)
        last = trace.events[-1]
        trace.events[-1] = type(last)(**{**last.__dict__,
                                         "own_group_ids": last.own_group_ids + 1e-15})
        return subset, trace

    monkeypatch.setattr(jobs, "sample_protocol", drifting)
    assert len(jobs.check_naive_shard(workload, 1)) == 3


def test_self_time_subtracts_children():
    records = [
        {"name": "cli.x", "start": 0.0, "end": 10.0, "parent": None, "job": "j"},
        {"name": "a.f", "start": 1.0, "end": 4.0, "parent": 0, "job": "j"},
        {"name": "b.g", "start": 5.0, "end": 6.5, "parent": 0, "job": "j"},
    ]
    assert spans.self_times(records) == [5.5, 3.0, 1.5]


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10)))["value"] is None
    result = run.tail(list(range(20)))
    assert result["value"] == 9 and result["percentile"] == 50.0
