"""Verification-pair accuracies, fairness aggregates, and Pareto analysis.

Trained-model accuracies enter this module as data (verification outcomes,
similarity scores, or pre-computed per-group accuracy lists); nothing here
trains or evaluates a model.
"""

import math
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress

from ._util import read_csv, write_csv
from .errors import MetricsError

_MODES = ("outcomes", "similarity")


@dataclass(frozen=True, slots=True)
class PairRecord:
    """One verification pair. ``correct`` is set in outcomes mode;
    ``similarity`` and ``is_genuine`` in similarity mode."""

    group: str
    correct: bool = None
    similarity: float = None
    is_genuine: bool = None


class _PairTable(Sequence):
    """Verification pairs held as columns: the group labels in appearance
    order, and per pair a group index, a similarity (similarity mode only)
    and a 0/1 flag (``is_genuine``, or the verdict in outcomes mode).

    Indexing builds a ``PairRecord`` on demand; the records of a group share
    one label string.
    """

    __slots__ = ("mode", "labels", "groups", "similarities", "flags", "_index")

    def __init__(self, mode):
        self.mode = mode
        self.labels = []
        self._index = {}  # label -> position in labels
        self.groups = array("I")
        self.similarities = array("d")
        self.flags = bytearray()

    def group_index(self, label):
        """Position of ``label``, registering it on first sight."""
        g = self._index.get(label)
        if g is None:
            g = self._index[label] = len(self.labels)
            self.labels.append(label)
        return g

    def append(self, group, flag, similarity=None):
        self.groups.append(group)
        self.flags.append(flag)
        if similarity is not None:
            self.similarities.append(similarity)

    def __len__(self):
        return len(self.flags)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        flag = self.flags[index] == 1
        group = self.labels[self.groups[index]]
        if self.mode == "outcomes":
            return PairRecord(group, correct=flag)
        return PairRecord(
            group, similarity=self.similarities[index], is_genuine=flag
        )


def group_accuracy(pairs, mode):
    """Per-group verification accuracy.

    In ``outcomes`` mode each pair carries its own verdict and the accuracy
    is the plain fraction correct. In ``similarity`` mode each group gets the
    accuracy of its single best threshold; candidate thresholds sit between
    consecutive distinct similarity values, plus one below the minimum and
    one above the maximum. The result depends only on the ordering of the
    similarities, so any strictly monotone rescaling leaves it unchanged.
    Groups are returned in first-appearance order.
    """
    if mode not in _MODES:
        raise MetricsError(f"unknown mode {mode!r}; expected one of {_MODES}")
    table, incomplete = _as_table(pairs, mode)
    if not table.labels:
        raise MetricsError("no pairs given")
    similarity = mode == "similarity"
    if similarity:
        # per group: (impostor, genuine) similarities, indexed by the flag;
        # flat arrays, so float objects exist for one group at a time, in
        # the sweep's sort
        sides = [(array("d"), array("d")) for _ in table.labels]
        for g, value, flag in zip(table.groups, table.similarities, table.flags):
            sides[g][flag].append(value)
    else:
        totals = Counter(table.groups)
        right = Counter(compress(table.groups, table.flags))

    result = {}
    for g, group in enumerate(table.labels):
        if g in incomplete:
            missing = "similarity or genuineness" if similarity else "a verdict"
            raise MetricsError(f"group {group!r}: pair without {missing}")
        if not similarity:
            result[group] = right[g] / totals[g]
            continue
        impostor, genuine = sides[g]
        if not genuine or not impostor:
            raise MetricsError(
                f"group {group!r}: similarity mode needs both genuine "
                "and impostor pairs"
            )
        # a NaN equals nothing, so the sweep could never step past it
        if not all(map(math.isfinite, chain(genuine, impostor))):
            raise MetricsError(f"group {group!r}: non-finite similarity")
        result[group] = _best_threshold_accuracy(genuine, impostor)
    return result


def _as_table(pairs, mode):
    """``pairs`` as a ``_PairTable`` in ``mode``, plus the indices of the
    groups that have a pair lacking the mode's value or flag. A table read
    in the same mode is used as it is; anything else is read as
    ``PairRecord``s."""
    if isinstance(pairs, _PairTable) and pairs.mode == mode:
        return pairs, ()
    table = _PairTable(mode)
    incomplete = set()
    for pair in pairs:
        g = table.group_index(pair.group)
        if mode == "similarity":
            value, flag = pair.similarity, pair.is_genuine
            complete = value is not None and flag is not None
        else:
            value, flag = None, pair.correct
            complete = flag is not None
        if complete:
            table.append(g, bool(flag), value)
        else:
            incomplete.add(g)
    return table, incomplete


def _best_threshold_accuracy(genuine, impostor):
    """Best single-threshold accuracy, predicting genuine at or above the
    threshold. Sweeps from below the minimum (everything genuine) upwards;
    crossing a value flips all its pairs to the impostor side. The two
    sides are sorted apart and merged one distinct value at a time."""
    genuine = sorted(genuine)
    impostor = sorted(impostor)
    n_genuine, n_impostor = len(genuine), len(impostor)
    correct = best = n_genuine
    i = j = 0
    while i < n_genuine or j < n_impostor:
        if j == n_impostor or (i < n_genuine and genuine[i] <= impostor[j]):
            value = genuine[i]
        else:
            value = impostor[j]
        while i < n_genuine and genuine[i] == value:
            i += 1
            correct -= 1
        while j < n_impostor and impostor[j] == value:
            j += 1
            correct += 1
        if correct > best:
            best = correct
    return best / (n_genuine + n_impostor)


@dataclass
class FairnessReport:
    """Fairness aggregates over per-group accuracies.

    Accuracies are stored as fractions in [0, 1]. ``std`` is the sample
    (n-1) standard deviation of the accuracies on the percent scale; ``ser``
    is the ratio of the worst group's error to the best group's error, which
    is 1 for perfect balance and infinite when some group is error-free.
    """

    per_group: dict
    average: float
    std: float
    ser: float
    flags: tuple

    def to_dict(self):
        """JSON-ready form; accuracy fields on the percent scale."""
        return {
            "per_group": {k: v * 100.0 for k, v in self.per_group.items()},
            "average": self.average * 100.0,
            "std": self.std,
            "ser": self.ser,
            "flags": list(self.flags),
        }


def fairness_report(accuracies):
    """Build a FairnessReport from per-group accuracies.

    Accepts a mapping from group label to accuracy or a plain sequence
    (labelled g1..gd). Values may be fractions in [0, 1] or percents; any
    value above 1 switches the whole input to the percent reading.
    """
    if hasattr(accuracies, "items"):
        labels = list(accuracies.keys())
        values = [float(v) for v in accuracies.values()]
    else:
        values = [float(v) for v in accuracies]
        labels = [f"g{i + 1}" for i in range(len(values))]
    if len(values) < 2:
        raise MetricsError("need accuracies for at least two groups")
    if any(not math.isfinite(v) or v < 0 for v in values):
        raise MetricsError("accuracies must be finite and non-negative")
    if any(v > 1.0 for v in values):
        values = [v / 100.0 for v in values]
    if any(v > 1.0 for v in values):
        raise MetricsError("accuracies above 100 percent")

    import statistics

    average = math.fsum(values) / len(values)
    std = statistics.stdev([v * 100.0 for v in values])
    worst, best = min(values), max(values)
    flags = []
    if best >= 1.0:
        ser = math.inf
        flags.append("infinite_ser")
    else:
        ser = (1.0 - worst) / (1.0 - best)
    return FairnessReport(
        per_group=dict(zip(labels, values)),
        average=average,
        std=std,
        ser=ser,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class RunPoint:
    """One training run placed on the error/bias plane. ``error`` is
    1 - average accuracy as a fraction; ``bias`` is the chosen spread
    measure (std or ser)."""

    run_id: str
    strategy: str
    size: str
    error: float
    bias: float


def pareto_frontier(points):
    """Points not strictly dominated by any other.

    A point dominates another when it is no worse on both coordinates and
    strictly better on at least one. Duplicated coordinates survive together
    (neither strictly dominates the other). Output is sorted by error,
    keeping input order among equal errors.
    """
    points = list(points)
    if not points:
        raise MetricsError("no points given")
    ordered = sorted(points, key=lambda p: p.error)
    kept = []
    best_before = math.inf
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j].error == ordered[i].error:
            j += 1
        tier = ordered[i:j]
        tier_min = min(p.bias for p in tier)
        for p in tier:
            if p.bias < best_before and p.bias == tier_min:
                kept.append(p)
        if tier_min < best_before:
            best_before = tier_min
        i = j
    return kept


def read_pairs_csv(path, mode):
    """Load verification pairs: ``group,correct`` for outcomes mode,
    ``group,similarity,is_genuine`` for similarity mode (flags are 0/1).
    Returns a read-only sequence of ``PairRecord``s."""
    if mode not in _MODES:
        raise MetricsError(f"unknown mode {mode!r}; expected one of {_MODES}")
    expected = (
        ["group", "correct"]
        if mode == "outcomes"
        else ["group", "similarity", "is_genuine"]
    )
    similarity = mode == "similarity"
    table = _PairTable(mode)
    with read_csv(path, MetricsError) as (header, records):
        if header != expected:
            raise MetricsError(
                f"{path}: expected header {','.join(expected)!r}"
            )
        for lineno, row in records:
            if len(row) != len(expected) or not row[0]:
                raise MetricsError(f"{path}: line {lineno}: malformed row")
            value = None
            try:
                flag = _parse_flag(row[-1])
                if similarity:
                    value = float(row[1])
                    if not math.isfinite(value):
                        raise ValueError
            except ValueError:
                raise MetricsError(
                    f"{path}: line {lineno}: malformed value"
                ) from None
            table.append(table.group_index(row[0]), flag, value)
    if not table:
        raise MetricsError(f"{path}: no pairs")
    return table


def _parse_flag(cell):
    if cell == "0":
        return False
    if cell == "1":
        return True
    raise ValueError(cell)


def read_runs_csv(path):
    """Load run summaries: ``run_id,strategy,size`` plus one ``acc_<group>``
    column per group. Returns (group_labels, rows) where each row is a dict
    with the raw fields and an ``accs`` mapping."""
    with read_csv(path, MetricsError) as (header, records):
        if header is None or header[:3] != ["run_id", "strategy", "size"]:
            raise MetricsError(
                f"{path}: header must start with run_id,strategy,size"
            )
        acc_cols = header[3:]
        if len(acc_cols) < 2 or not all(c.startswith("acc_") for c in acc_cols):
            raise MetricsError(f"{path}: need at least two acc_<group> columns")
        labels = tuple(c[len("acc_"):] for c in acc_cols)
        rows = []
        for lineno, row in records:
            if len(row) != len(header):
                raise MetricsError(f"{path}: line {lineno}: malformed row")
            try:
                accs = {
                    label: float(cell) for label, cell in zip(labels, row[3:])
                }
            except ValueError:
                raise MetricsError(
                    f"{path}: line {lineno}: non-numeric accuracy"
                ) from None
            rows.append(
                {
                    "run_id": row[0],
                    "strategy": row[1],
                    "size": row[2],
                    "accs": accs,
                }
            )
    if not rows:
        raise MetricsError(f"{path}: no runs")
    return labels, rows


def runs_to_points(rows, bias_axis):
    """Convert run rows into RunPoints on the chosen bias axis.

    Rows whose ser is flagged infinite are skipped when ser is the axis (an
    infinite coordinate cannot sit on a meaningful frontier); the skip count
    is returned alongside the points.
    """
    if bias_axis not in ("std", "ser"):
        raise MetricsError(f"bias axis must be 'std' or 'ser', got {bias_axis!r}")
    points = []
    skipped = 0
    for row in rows:
        report = fairness_report(row["accs"])
        if bias_axis == "ser" and not math.isfinite(report.ser):
            skipped += 1
            points.append(None)
            continue
        points.append(
            RunPoint(
                run_id=row["run_id"],
                strategy=row["strategy"],
                size=row["size"],
                error=1.0 - report.average,
                bias=report.std if bias_axis == "std" else report.ser,
            )
        )
    return points, skipped


def write_frontier_csv(labels, rows, points, frontier, path):
    """Input runs plus an ``on_frontier`` column. ``points`` aligns with
    ``rows`` (None where a row was skipped); frontier membership is by
    object identity so duplicate coordinates stay distinct."""
    frontier_ids = {id(p) for p in frontier}
    write_csv(
        path,
        ["run_id", "strategy", "size"]
        + [f"acc_{label}" for label in labels]
        + ["on_frontier"],
        (
            [row["run_id"], row["strategy"], row["size"]]
            + [row["accs"][label] for label in labels]
            + ["true" if point is not None and id(point) in frontier_ids else "false"]
            for row, point in zip(rows, points)
        ),
    )
