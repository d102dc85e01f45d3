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
removal lists. One loop, ``_run``, records the events and keeps the
diagonal: each group's own-score total is held exactly, as an integer count
of 2**-k, one scale for the run at which every own score is whole. A removal
subtracts the score's count, and the entry is the count divided by 2**k,
which CPython rounds correctly: the same double that ``fsum`` over the
survivors gives, at a cost per step that does not grow with the group. Both
samplers therefore see bitwise-identical diagonals and make identical
choices; ``sample_naive`` rebuilds every table each iteration and is the
literal-transcription oracle that certifies the fast path.
"""

import copyreg
import math
from collections import namedtuple
from itertools import chain, compress, count
from operator import is_not
from types import SimpleNamespace

from ._util import read_csv, warn, write_csv
from .errors import SamplingError
from .rng import SplitMix64
from .scoring import Protocol, compute_es, compute_ids


class RemovalEvent(namedtuple(
    "RemovalEvent", "step identity_id group own_group_ids diag_before diag_after"
)):
    """One removal: who was removed, from which group, with which own-group
    score, and the diagonal right before and right after. Only the touched
    group's entry may differ between the two vectors."""

    __slots__ = ()
    # a named tuple has no instance dict; this one stands in for it, so a
    # caller can rebuild an event with type(event)(**{**vars(event), ...})
    __dict__ = property(lambda self: self._asdict())


class RemovalTrace(SimpleNamespace):
    def __init__(self, name, group_labels, initial_diag, seed=None, events=None,
                 final_manifest=None):
        super().__init__(
            name=name, group_labels=group_labels, initial_diag=initial_diag, seed=seed,
            events=[] if events is None else events, final_manifest=final_manifest,
        )

    def __reduce__(self):
        # SimpleNamespace's would rebuild a trace by calling it with no arguments
        return copyreg.__newobj__, (type(self),), vars(self)

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
    return max(compress(range(len(diag)), counts), key=diag.__getitem__)


# What fsum returns for a multiset of negative zeros: 0.0 or -0.0, depending
# on the interpreter.
_FSUM_NEG_ZEROS = math.fsum((-0.0,))


def _members(manifest):
    """Each group's identity indices, in first-appearance order."""
    members = [[] for _ in manifest.groups.labels]
    for j, g in enumerate(manifest._identity_groups):
        members[g].append(j)
    return members


def _run(manifest, own, name, group_mean, picks, seed=None):
    """The removal loop of every fast sampler: one event per ``(group
    index, identity index)`` that ``picks(diag, counts)`` yields, with ``own``
    the own-group scores by identity index. Per group it keeps the survivor
    count, the exact sum of their scores and the diagonal entry: the mean
    under group-mean protocols, else the sum, and 0.0 for an emptied group.
    A sum counts units of 2**-k, 2**k the largest ``as_integer_ratio()``
    denominator in ``own``, and a count of +0.0 survivors signs a zero sum.
    Returns ``(subset, trace)``; the subset is ``manifest`` itself when nothing
    was removed. A SamplingError from ``picks`` leaves with the partial trace."""
    ids, labels = manifest._identity_ids, manifest.groups.labels
    counts = list(manifest.group_counts)
    k = max(x.as_integer_ratio()[1] for x in own).bit_length() - 1

    def units(x):
        n, d = x.as_integer_ratio()
        return n << (k + 1 - d.bit_length())

    def positive_zero(x):
        return not x and math.copysign(1.0, x) > 0

    sums, positive_zeros = [0] * len(labels), [0] * len(labels)
    for g, value in zip(manifest._identity_groups, own):
        sums[g] += units(value)
        positive_zeros[g] += positive_zero(value)

    def entry(g):
        if not counts[g]:
            return 0.0
        if not (sums[g] or positive_zeros[g]):
            return _FSUM_NEG_ZEROS  # every survivor is -0.0
        total = sums[g] / (1 << k)
        return total / counts[g] if group_mean else total

    diag = [entry(g) for g in range(len(labels))]
    # the diagonal as of the last event: each event's diag_before is the
    # previous one's diag_after tuple itself
    after = tuple(diag)
    trace = RemovalTrace(name, labels, after, seed)
    try:
        for step, (g, j) in enumerate(picks(diag, counts), start=1):
            counts[g] -= 1
            sums[g] -= units(own[j])
            positive_zeros[g] -= positive_zero(own[j])
            diag[g] = entry(g)
            before, after = after, tuple(diag)
            trace.events.append(
                RemovalEvent(step, ids[j], labels[g], own[j], before, after)
            )
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

    def picks(diag, counts):
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


def _generator(seed, caller):
    """SplitMix64 from ``seed``, an integer in [0, 2^64), for ``caller``."""
    if seed is None:
        raise SamplingError(f"{caller} requires an explicit seed")
    try:
        return SplitMix64(seed)
    except ValueError as exc:
        raise SamplingError(str(exc)) from None


def sample_random(manifest, z, seed):
    """Remove ``z`` identities uniformly at random, keeping per-group removal
    counts as equal as possible.

    Every group loses floor(z / d); the remainder is spread over distinct
    groups chosen by a seeded draw (restricted to groups that can afford the
    extra removal). Identical seeds give identical results.
    """
    _check_budget(z)
    rng = _generator(seed, "sample_random")
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
    extras = set(rng.sample(eligible, remainder)) if remainder else set()

    removals = []
    for g, members in enumerate(_members(manifest)):
        take = quota + (1 if g in extras else 0)
        removals.extend((g, j) for j in sorted(rng.sample(members, take)))
    own = manifest._own_column(mean=True)
    return _run(manifest, own, "random", True, lambda *_: removals, seed)


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
        kept = set(_generator(seed, "strategy 'rand'").sample(members, keep))
    else:
        # a stable sort of the members, which are in identity order, so
        # equal scores keep first-appearance order under both strategies
        ordered = sorted(members, key=own.__getitem__, reverse=strategy == "max")
        kept = set(ordered[:keep])

    removals = [(g, j) for j in members if j not in kept]
    name = f"single-{strategy}-{manifest.groups.labels[g]}"
    seed = seed if strategy == "rand" else None
    return _run(manifest, own, name, True, lambda *_: removals, seed)


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

    A header that starts ``step,identity_id,group,own_group_ids`` is a log:
    ``diag_<label>_before`` columns and then ``diag_<label>_after`` columns
    with the same labels in the same order, and the after half is read. Any
    other must be ``step`` and then ``diag_<label>`` columns only.

    Returns (group_labels, [(step, diag), ...]) with step 0 rows checked and
    skipped, so the result is directly usable with :func:`equilibrium_step`.
    """
    prefix = ("step", "identity_id", "group", "own_group_ids")
    with read_csv(path, SamplingError, (), "") as (header, records):
        if header[:4] == prefix:
            first, halves = (len(header) + 4) // 2, ("_before", "_after")
        else:
            first, prefix, halves = 1, ("step",), ("",)
        suffix = halves[-1]
        labels = tuple(n[len("diag_"):len(n) - len(suffix)] for n in header[first:])
        # either kind of header is rebuilt from its own labels
        expected = (*prefix, *(f"diag_{g}{half}" for half in halves for g in labels))
        if not labels or header != expected:
            raise SamplingError(f"{path}: not a removal log or evolution file")
        series = []
        for lineno, row in records:
            try:
                step = int(row[0])
                diag = tuple(map(float, row[first:]))
                if not all(map(math.isfinite, diag)):
                    raise ValueError("non-finite diagonal entry")
                if step != 0:
                    series.append((step, diag))
            except ValueError as exc:
                raise SamplingError(f"{path}: line {lineno}: {exc}") from None
    return labels, series
