"""Verification-pair accuracies, fairness aggregates, and Pareto analysis.

Trained-model accuracies enter this module as data (verification outcomes,
similarity scores, or pre-computed per-group accuracy lists); nothing here
trains or evaluates a model.
"""

import math
import os
import stat
from array import array
from bisect import bisect_left
from codecs import BOM_UTF8
from collections import Counter, namedtuple
from collections.abc import Sequence
from itertools import chain, compress, groupby
from operator import attrgetter

from ._util import field_limit, read_csv, write_csv
from .errors import MetricsError

_MODES = ("outcomes", "similarity")
# bytes read per bulk step of read_pairs_csv
PAIR_CHUNK = 1 << 14
_FLAGS = frozenset((b"0", b"1"))
_FLAG_BYTES = bytes.maketrans(b"01", b"\0\1")
# every byte but the comma and LF
_NOT_SEPARATORS = bytes(set(range(256)) - set(b",\n"))


class PairRecord(
    namedtuple(
        "PairRecord", "group correct similarity is_genuine", defaults=(None,) * 3
    )
):
    """One verification pair. ``correct`` is set in outcomes mode;
    ``similarity`` and ``is_genuine`` in similarity mode."""

    __slots__ = ()


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
        # the threshold search's sort
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
        # a NaN orders against nothing, so the sorted sides would be wrong
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
    threshold. A threshold at a genuine value v gets right the genuine pairs
    at or above v and the impostor pairs below it; one above every value
    gets every impostor right. Any other threshold can rise to the next
    genuine value, or past the top, losing no genuine pair, so one of these
    is best, and bisection counts each."""
    genuine, impostor = sorted(genuine), sorted(impostor)
    n_genuine = len(genuine)
    best = max(
        n_genuine - bisect_left(genuine, v) + bisect_left(impostor, v)
        for v in set(genuine)
    )
    return max(best, len(impostor)) / (n_genuine + len(impostor))


class FairnessReport(namedtuple("FairnessReport", "per_group average std ser flags")):
    """Fairness aggregates over per-group accuracies.

    Accuracies are stored as fractions in [0, 1]. ``std`` is the sample
    (n-1) standard deviation of the accuracies on the percent scale; ``ser``
    is the ratio of the worst group's error to the best group's error, which
    is 1 for perfect balance and infinite when some group is error-free.
    """

    __slots__ = ()

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


class RunPoint(namedtuple("RunPoint", "run_id strategy size error bias")):
    """One training run placed on the error/bias plane. ``error`` is
    1 - average accuracy as a fraction; ``bias`` is the chosen spread
    measure (std or ser)."""

    __slots__ = ()


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
    error = attrgetter("error")
    kept = []
    best_before = math.inf
    for _, tier in groupby(sorted(points, key=error), error):
        tier = list(tier)
        tier_min = min(p.bias for p in tier)
        if tier_min < best_before:
            kept.extend(p for p in tier if p.bias == tier_min)
            best_before = tier_min
    return kept


def read_pairs_csv(path, mode):
    """Load verification pairs: ``group,correct`` for outcomes mode,
    ``group,similarity,is_genuine`` for similarity mode (flags are 0/1).
    Returns a read-only sequence of ``PairRecord``s.

    A regular file whose header is exactly those columns is read
    ``PAIR_CHUNK`` bytes of whole lines at a time, each chunk in bulk; when
    a chunk is not clean, the whole file is read again one record at a
    time, which gives every error its message and line number."""
    if mode not in _MODES:
        raise MetricsError(f"unknown mode {mode!r}; expected one of {_MODES}")
    columns = (
        ("group", "similarity", "is_genuine")
        if mode == "similarity"
        else ("group", "correct")
    )
    table = _read_pairs_bulk(path, mode, columns)
    if table is None:
        table = _read_pairs_rows(path, mode, columns)
    if not table:
        raise MetricsError(f"{path}: no pairs")
    return table


def _read_pairs_bulk(path, mode, columns):
    """The pairs of ``path`` read ``PAIR_CHUNK`` bytes of lines at a time,
    or None when it is not a regular file, cannot be read, or its header is
    not exactly ``columns`` or a chunk is not clean (see ``_extend_clean``)."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        handle = open(path, "rb")
    except (OSError, TypeError, ValueError):
        return None
    table = _PairTable(mode)
    # group index by the label's bytes
    index = {}
    header = ",".join(columns).encode() + b"\n"
    limit = field_limit()
    with handle:
        try:
            if handle.readline(len(header) + 4) not in (header, BOM_UTF8 + header):
                return None
            pending = b""
            while data := handle.read(PAIR_CHUNK):
                data = pending + data
                # no field in a chunk is longer than the csv module reads
                if len(data) > limit:
                    return None
                end = data.rfind(b"\n") + 1
                pending = data[end:]
                if not _extend_clean(table, index, data[:end], len(columns)):
                    return None
        except OSError:
            return None
    # the last line has no line end
    return None if pending else table


def _extend_clean(table, index, data, width):
    """Add the pairs of ``data``, whole lines of ``width`` cells each, to
    ``table`` and return True when they are clean: no ``"``, CR or NUL,
    every line ends in LF and has exactly ``width - 1`` commas, no group is
    empty or outside UTF-8, each flag is exactly ``0`` or ``1`` and each
    similarity is a finite ``float()``. Then they are the records the CSV
    reader reads and the per-row reader accepts. Otherwise return False,
    maybe with some labels registered. ``index`` maps a label's bytes to its
    group index."""
    n = data.count(b"\n")
    if (
        b'"' in data
        or b"\r" in data
        or b"\0" in data
        or data.translate(None, _NOT_SEPARATORS) != (b"," * (width - 1) + b"\n") * n
    ):
        return False
    cells = data.replace(b"\n", b",").split(b",")
    cells.pop()  # after the last line end
    groups, flags = cells[::width], cells[width - 1::width]
    if b"" in groups or not _FLAGS.issuperset(flags):
        return False
    if table.mode == "similarity":
        try:
            values = array("d", map(float, cells[1::width]))
        except ValueError:
            return False
        if not all(map(math.isfinite, values)):
            return False
    # new labels are registered in first-appearance order
    if not index.keys() >= set(groups):
        for label in dict.fromkeys(groups):
            if label not in index:
                try:
                    index[label] = table.group_index(label.decode())
                except UnicodeDecodeError:
                    return False
    table.groups.extend(map(index.__getitem__, groups))
    table.flags += b"".join(flags).translate(_FLAG_BYTES)
    if table.mode == "similarity":
        table.similarities.extend(values)
    return True


def _read_pairs_rows(path, mode, columns):
    """The pairs of ``path`` read one record at a time."""
    similarity = mode == "similarity"
    table = _PairTable(mode)
    with read_csv(path, MetricsError, columns) as (_, records):
        for lineno, row in records:
            if not row[0]:
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
    with read_csv(
        path, MetricsError, ("run_id", "strategy", "size"), "acc_"
    ) as (labels, records):
        if len(labels) < 2:
            raise MetricsError(f"{path}: need at least two acc_<group> columns")
        rows = []
        for lineno, row in records:
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
