"""Greedy removal loops, random baselines, and trace bookkeeping.

The greedy samplers remove one identity per step. Under the mean-based
protocols (A, B) a step targets the group whose own-group diagonal entry is
lowest and removes that group's weakest identity, which can only raise the
group's mean. Under the sum-based protocol (C) a step targets the group with
the highest own-group total and pulls it down. Ties on the diagonal go to the
lowest group index; ties on identity score go to the earliest identity in
first-appearance order.

Every fast sampler only chooses who goes next: the greedy one from each
group's members sorted once by own-group score, the baselines from their
removal lists. One loop, ``_run``, records the events and keeps the diagonal
in a ``_DiagTracker``, which holds each group's own-score total as the
non-overlapping partials of Shewchuk's algorithm (the one behind
``math.fsum``): a removal adds the negated score, and the entry is read back
with ``fsum`` over those few partials. They always add up exactly to the
survivors' scores, so each entry is the correctly rounded double that
``fsum`` over the survivors gives, at a cost per step that does not grow
with the group. Both samplers therefore see bitwise-identical diagonals and
make identical choices; ``sample_naive`` rebuilds every table each iteration
and is the literal-transcription oracle that certifies the fast path.
"""

import math
from dataclasses import dataclass, field
from itertools import chain, compress, count
from operator import is_not

from ._util import read_csv, warn, write_csv
from .errors import SamplingError
from .manifest import Manifest
from .rng import SplitMix64
from .scoring import Protocol, compute_es, compute_ids


@dataclass(frozen=True)
class RemovalEvent:
    """One removal: who was removed, from which group, with which own-group
    score, and the diagonal right before and right after. Only the touched
    group's entry may differ between the two vectors."""

    step: int
    identity_id: str
    group: str
    own_group_ids: float
    diag_before: tuple
    diag_after: tuple


@dataclass
class RemovalTrace:
    name: str
    group_labels: tuple
    initial_diag: tuple
    seed: int = None
    events: list = field(default_factory=list)
    final_manifest: Manifest = None

    def removed_ids(self):
        return [event.identity_id for event in self.events]


def _check_budget(z):
    # bool is an int subclass, but True is no budget
    if not isinstance(z, int) or isinstance(z, bool) or z < 0:
        raise SamplingError(f"removal budget must be a non-negative integer, got {z!r}")


def _check_protocol_budget(manifest, protocol, z):
    _check_budget(z)
    total = manifest.identity_count
    if protocol.group_mean:
        floor = manifest.groups.d
        if total - z < floor:
            raise SamplingError(
                f"budget {z} would leave fewer than one identity per group "
                f"({total} identities, {floor} groups)"
            )
        for i, count in enumerate(manifest.group_counts):
            if count == 0:
                raise SamplingError(
                    f"group {manifest.groups.labels[i]!r} has no identities; "
                    f"protocol {protocol.value} needs every group non-empty"
                )
    else:
        if total - z < 1:
            raise SamplingError(
                f"budget {z} would remove every identity ({total} available)"
            )


def _pick_target(diag, counts, group_mean):
    """Index of the group to shrink. Lowest diagonal for A/B, highest for C
    (ignoring exhausted groups); exact ties resolve to the lowest index."""
    if group_mean:
        return diag.index(min(diag))
    best = None
    for i, value in enumerate(diag):
        if counts[i] and (best is None or value > diag[best]):
            best = i
    return best


# What fsum returns for a multiset of negative zeros: 0.0 or -0.0, depending
# on the interpreter.
_FSUM_NEG_ZEROS = math.fsum((-0.0,))


class _ExactSum:
    """Exact running sum of a multiset of finite non-negative floats.

    ``partials`` are nonzero, non-overlapping and add up exactly to the
    multiset, so ``value()`` is the same correctly rounded double as
    ``math.fsum`` over it. Zeros only count by sign, which decides the sign
    of an all-zero sum. Adding or removing one value costs O(len(partials)),
    a handful of floats.
    """

    __slots__ = ("partials", "zeros")

    def __init__(self):
        self.partials = []
        self.zeros = [0, 0]  # how many +0.0 and -0.0 are in the multiset

    def add(self, x):
        if not x:
            self.zeros[math.copysign(1.0, x) < 0] += 1
            return
        partials = self.partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x] if x else []

    def remove(self, x):
        if x:
            self.add(-x)
        else:
            self.zeros[math.copysign(1.0, x) < 0] -= 1

    def value(self):
        if self.partials:
            return math.fsum(self.partials)
        return _FSUM_NEG_ZEROS if self.zeros[1] and not self.zeros[0] else 0.0


class _DiagTracker:
    """Diagonal of a shrinking manifest, from ``own``, the own-group scores
    by identity index. Per group it keeps the survivor count, the exact sum
    of their own-group scores, and the entry: the sum divided by the count
    under group-mean protocols, the raw sum otherwise, and 0.0 for an
    emptied group."""

    def __init__(self, manifest, own, group_mean):
        self.labels = manifest.groups.labels
        self.group_mean = group_mean
        self.counts = list(manifest.group_counts)
        self.sums = [_ExactSum() for _ in self.labels]
        for g, value in zip(manifest._identity_groups, own):
            self.sums[g].add(value)
        self.diag = [self._entry(g) for g in range(len(self.labels))]
        # the diagonal as of the last event, which is the next one's before
        self.last = tuple(self.diag)

    def _entry(self, g):
        count = self.counts[g]
        if not count:
            return 0.0
        total = self.sums[g].value()
        return total / count if self.group_mean else total

    def remove(self, step, ident, g, own_value):
        """Drop one survivor of group ``g`` and return the step's event.
        Its ``diag_before`` is the previous ``diag_after`` tuple itself, and
        its ``diag_after`` shares every entry but ``g`` with it."""
        before = self.last
        self.counts[g] -= 1
        self.sums[g].remove(own_value)
        self.diag[g] = self._entry(g)
        self.last = tuple(self.diag)
        return RemovalEvent(
            step=step,
            identity_id=ident,
            group=self.labels[g],
            own_group_ids=own_value,
            diag_before=before,
            diag_after=self.last,
        )


def _members(manifest):
    """Each group's identity indices, in first-appearance order."""
    members = [[] for _ in manifest.groups.labels]
    for j, g in enumerate(manifest._identity_groups):
        members[g].append(j)
    return members


def _run(manifest, own, name, group_mean, picks, seed=None):
    """The removal loop of every fast sampler: one event per ``(group
    index, identity index)`` that ``picks(tracker)`` yields, with ``own``
    the own-group scores by identity index. Returns ``(subset, trace)``; the
    subset is ``manifest`` itself when nothing was removed. A SamplingError
    from ``picks`` leaves with the partial trace attached."""
    ids = manifest._identity_ids
    tracker = _DiagTracker(manifest, own, group_mean)
    trace = RemovalTrace(name, tracker.labels, tracker.last, seed)
    try:
        for step, (g, j) in enumerate(picks(tracker), start=1):
            trace.events.append(tracker.remove(step, ids[j], g, own[j]))
    except SamplingError as exc:
        exc.partial_trace = trace
        raise
    finally:
        if trace.events:
            manifest = manifest.remove_identities(trace.removed_ids())
        trace.final_manifest = manifest
    return manifest, trace


def sample_protocol(manifest, protocol, z):
    """Remove ``z`` identities greedily under one protocol.

    Returns ``(subset_manifest, trace)``. A step that would empty a group
    under A or B raises SamplingError with the partial trace attached.
    """
    protocol = Protocol(protocol)
    _check_protocol_budget(manifest, protocol, z)
    group_mean = protocol.group_mean
    labels = manifest.groups.labels

    # the values of IdsTable.own_scores, by identity index
    own = manifest._own_column(protocol.identity_mean)
    # each group's members, weakest first; the sort is stable, so equal
    # scores keep first-appearance order
    queues = [iter(sorted(m, key=own.__getitem__)) for m in _members(manifest)]

    def picks(tracker):
        diag, counts = tracker.diag, tracker.counts
        for step in range(1, z + 1):
            target = _pick_target(diag, counts, group_mean)
            if group_mean and counts[target] == 1:
                raise SamplingError(
                    f"step {step}: removing the last identity of group "
                    f"{labels[target]!r} would empty it under protocol "
                    f"{protocol.value}"
                )
            yield target, next(queues[target])

    return _run(manifest, own, protocol.value, group_mean, picks)


def sample_naive(manifest, protocol, z):
    """Literal transcription of the per-step procedure: rebuild every score
    table from scratch each iteration. Slow on purpose; it is the oracle the
    incremental sampler is tested against."""
    protocol = Protocol(protocol)
    _check_protocol_budget(manifest, protocol, z)

    labels = manifest.groups.labels
    current = manifest
    diag = compute_es(current, protocol).diag()
    trace = RemovalTrace(
        name=protocol.value,
        group_labels=labels,
        initial_diag=diag,
    )

    for step in range(1, z + 1):
        counts = current.group_counts
        target = _pick_target(diag, counts, protocol.group_mean)
        if protocol.group_mean and counts[target] == 1:
            trace.final_manifest = current
            raise SamplingError(
                f"step {step}: removing the last identity of group "
                f"{labels[target]!r} would empty it under protocol "
                f"{protocol.value}",
                partial_trace=trace,
            )
        ids = compute_ids(current, protocol)
        victim = None
        victim_own = None
        for rank, (ident, rec) in enumerate(current.identities.items()):
            if rec.group != target:
                continue
            value = ids.entries[ident][target]
            if victim is None or value < victim_own:
                victim, victim_own = ident, value
        current = current.remove_identities({victim})
        after = compute_es(current, protocol).diag()
        trace.events.append(
            RemovalEvent(
                step=step,
                identity_id=victim,
                group=labels[target],
                own_group_ids=victim_own,
                diag_before=diag,
                diag_after=after,
            )
        )
        diag = after

    trace.final_manifest = current
    return current, trace


def sample_random(manifest, z, seed):
    """Remove ``z`` identities uniformly at random, keeping per-group removal
    counts as equal as possible.

    Every group loses floor(z / d); the remainder is spread over distinct
    groups chosen by a seeded draw (restricted to groups that can afford the
    extra removal). Identical seeds give identical results.
    """
    _check_budget(z)
    if seed is None:
        raise SamplingError("sample_random requires an explicit seed")
    total = manifest.identity_count
    if z >= total:
        raise SamplingError(f"budget {z} would remove every identity ({total} available)")

    d = manifest.groups.d
    quota, remainder = divmod(z, d)
    counts = manifest.group_counts
    short = [i for i, c in enumerate(counts) if c < quota]
    if short:
        raise SamplingError(
            f"group {manifest.groups.labels[short[0]]!r} has {counts[short[0]]} "
            f"identities, fewer than the per-group removal quota {quota}"
        )
    if remainder:
        if len(set(counts)) == 1:
            warn(
                __name__,
                "budget %d is not divisible by %d groups; removal counts "
                "will differ by one",
                z,
                d,
            )
        eligible = [i for i, c in enumerate(counts) if c >= quota + 1]
        if len(eligible) < remainder:
            raise SamplingError(
                "not enough groups can afford an extra removal "
                f"(need {remainder}, have {len(eligible)})"
            )

    rng = SplitMix64(seed)
    extras = set(rng.sample(eligible, remainder)) if remainder else set()

    removals = []
    for g, members in enumerate(_members(manifest)):
        take = quota + (1 if g in extras else 0)
        removals.extend((g, j) for j in sorted(rng.sample(members, take)))
    own = manifest._own_column(mean=True)
    return _run(manifest, own, "random", True, lambda _: removals, seed)


_SINGLE_STRATEGIES = ("min", "max", "rand")


def sample_single_group(manifest, group, strategy, keep_fraction, seed=None):
    """Shrink one group, leaving the others untouched.

    Keeps ceil(keep_fraction * N) identities of the group: those with the
    smallest own-group mean scores (``min``), the largest (``max``), or a
    seeded uniform subset (``rand``).
    """
    if strategy not in _SINGLE_STRATEGIES:
        raise SamplingError(
            f"unknown strategy {strategy!r}; expected one of {_SINGLE_STRATEGIES}"
        )
    if not (
        isinstance(keep_fraction, (int, float))
        and not isinstance(keep_fraction, bool)
        and math.isfinite(keep_fraction)
        and 0.0 < keep_fraction <= 1.0
    ):
        raise SamplingError(f"keep_fraction must be in (0, 1], got {keep_fraction!r}")
    g = manifest.groups.index(group)
    members = _members(manifest)[g]
    if not members:
        raise SamplingError(f"group {group!r} has no identities")

    keep = math.ceil(keep_fraction * len(members))
    own = manifest._own_column(mean=True)
    if strategy == "rand":
        if seed is None:
            raise SamplingError("strategy 'rand' requires an explicit seed")
        kept = set(SplitMix64(seed).sample(members, keep))
    else:
        # a stable sort of the members, which are in identity order, so
        # equal scores keep first-appearance order under both strategies
        ordered = sorted(members, key=own.__getitem__, reverse=strategy == "max")
        kept = set(ordered[:keep])

    removals = [(g, j) for j in members if j not in kept]
    name = f"single-{strategy}-{manifest.groups.labels[g]}"
    seed = seed if strategy == "rand" else None
    return _run(manifest, own, name, True, lambda _: removals, seed)


def equilibrium_step(trace, epsilon):
    """First step whose post-removal diagonal spread drops below epsilon.

    Accepts a RemovalTrace or an iterable of (step, diagonal) pairs; returns
    None when the spread never gets there.
    """
    if not (
        isinstance(epsilon, (int, float))
        and not isinstance(epsilon, bool)
        and epsilon > 0
    ):
        raise SamplingError(f"epsilon must be positive, got {epsilon!r}")
    if isinstance(trace, RemovalTrace):
        series = [(event.step, event.diag_after) for event in trace.events]
    else:
        series = list(trace)
    if not series:
        raise SamplingError("empty trace")
    for step, diag in series:
        if max(diag) - min(diag) < epsilon:
            return step
    return None


def _formatted(diags):
    """``repr`` over each diagonal tuple of ``diags``, as lists of
    strings. A tuple that is the very object before it reuses its strings,
    and an entry is formatted only when it is not the very float object at
    its place in the tuple before: the same object gives the same string,
    so this is exact, and a sampler's trace, which shares both, formats one
    new entry per step."""
    previous, strings = (), []
    for diag in diags:
        if diag is not previous:
            if len(diag) == len(previous):
                strings = strings.copy()
                for i in compress(count(), map(is_not, diag, previous)):
                    strings[i] = repr(diag[i])
            else:
                strings = list(map(repr, diag))
            previous = diag
        yield strings


def write_removal_log(trace, path):
    labels = trace.group_labels
    events = trace.events
    # the before and after strings of each event in turn
    strings = _formatted(
        chain.from_iterable((e.diag_before, e.diag_after) for e in events)
    )
    write_csv(
        path,
        ["step", "identity_id", "group", "own_group_ids"]
        + [f"diag_{g}_before" for g in labels]
        + [f"diag_{g}_after" for g in labels],
        (
            [e.step, e.identity_id, e.group, e.own_group_ids, *before, *after]
            for e, before, after in zip(events, strings, strings)
        ),
    )


def write_evolution(trace, path):
    """Step-by-step diagonal series; step 0 is the pre-removal state."""
    labels = trace.group_labels
    events = trace.events
    steps = chain((0,), (e.step for e in events))
    strings = _formatted(chain((trace.initial_diag,), (e.diag_after for e in events)))
    write_csv(
        path,
        ["step", *[f"diag_{g}" for g in labels]],
        ([step, *row] for step, row in zip(steps, strings)),
    )


def read_diag_series(path):
    """Diagonal series from a removal log or an evolution file.

    A header that starts ``step,identity_id,group,own_group_ids`` is a log,
    read from the after half of its diagonal columns, ``diag_<label>_after``;
    any other must be ``step`` and then ``diag_<label>`` columns only.

    Returns (group_labels, [(step, diag), ...]) with step 0 rows skipped, so
    the result is directly usable with :func:`equilibrium_step`.
    """
    with read_csv(path, SamplingError) as (header, records):
        if header is None:
            raise SamplingError(f"{path}: empty file")
        if header[:4] == ["step", "identity_id", "group", "own_group_ids"]:
            diag_count = len(header) - 4
            first, suffix = 4 + diag_count // 2, "_after"
            ok = diag_count and not diag_count % 2
        else:
            first, suffix = 1, ""
            ok = header[:1] == ["step"] and len(header) > 1
        names = header[first:]
        if not ok or not all(
            name.startswith("diag_") and name.endswith(suffix) for name in names
        ):
            raise SamplingError(f"{path}: not a removal log or evolution file")
        labels = tuple(name[len("diag_"):len(name) - len(suffix)] for name in names)
        width = len(header)
        series = []
        for lineno, row in records:
            if len(row) < width:
                raise SamplingError(
                    f"{path}: line {lineno}: expected {width} "
                    f"fields, got {len(row)}"
                )
            try:
                step = int(row[0])
                if step == 0:
                    continue
                series.append((step, tuple(map(float, row[first:width]))))
            except ValueError as exc:
                raise SamplingError(f"{path}: line {lineno}: {exc}") from None
    return labels, series
