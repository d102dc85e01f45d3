"""In-memory span recorder for the traced in-process run.

A span records a name, start, end, the index of its parent span and the job
id. Counts are recorded at the same call boundaries. Nothing is written while
the job runs; the caller dumps ``spans`` and ``counts`` when the run ends.
"""

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job_id,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name, amount):
        self.counts[name] += amount


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for record in spans:
        if record["parent"] is not None:
            children[record["parent"]].append((record["start"], record["end"]))
    result = []
    for record, covered in zip(spans, children):
        busy = 0.0
        reach = record["start"]
        for start, end in sorted(covered):
            start, end = max(start, reach), min(end, record["end"])
            if end > start:
                busy += end - start
                reach = end
        result.append(record["end"] - record["start"] - busy)
    return result


def self_time_by_name(spans):
    totals = Counter()
    for record, own in zip(spans, self_times(spans)):
        totals[record["name"]] += own
    return totals


def coverage(spans, wall, max_gap_share, root_prefix="cli."):
    """How far the command spans (roots named ``root_prefix*``) cover a job
    that took ``wall`` seconds. Returns (gaps in seconds, problems): the
    gaps must stay within ``max_gap_share`` of the wall time, and no span
    may lie outside every command span."""
    commands_s = sum(
        r["end"] - r["start"]
        for r in spans
        if r["parent"] is None and r["name"].startswith(root_prefix)
    )
    gaps = wall - commands_s
    problems = [
        f"span {r['name']} lies outside every command span"
        for r in spans
        if r["parent"] is None and not r["name"].startswith(root_prefix)
    ]
    if gaps > max_gap_share * wall:
        problems.append(
            f"command spans cover {commands_s:.6f} s of a {wall:.6f} s job; "
            f"gaps of {gaps:.6f} s exceed {max_gap_share:.0%} of it"
        )
    return gaps, problems
