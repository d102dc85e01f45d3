"""Identity-level and group-level score aggregation, plus relabeling.

Three aggregation protocols share one pipeline. A averages each identity's
image scores and then averages identities within a group, so every value
stays on the per-image scale. B sums within an identity (image-rich
identities weigh more) but still averages across a group. C sums at both
levels, so a group's entry grows with its population.

All reductions use math.fsum, which returns the exactly rounded sum of its
inputs regardless of order. That makes every table and matrix here a pure
function of the data multiset, bit for bit, which downstream sampling relies
on when it compares an incremental run against a full recomputation.
"""

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from operator import gt, itemgetter

from ._util import warn, write_csv
from .errors import ScoringError
from .manifest import Manifest


class Protocol(Enum):
    """Aggregation protocol: A = mean/mean, B = sum/mean, C = sum/sum."""

    A = "A"
    B = "B"
    C = "C"

    @property
    def identity_mean(self):
        return self is Protocol.A

    @property
    def group_mean(self):
        return self is not Protocol.C


@dataclass(frozen=True)
class IdsTable:
    """Per-identity aggregated score vectors, keyed by identity id in
    first-appearance order."""

    protocol: Protocol
    entries: dict

    def own_scores(self, manifest):
        """Each identity's component for its own assigned group."""
        return {
            ident: self.entries[ident][g]
            for ident, g in zip(manifest._identity_ids, manifest._identity_groups)
        }


@dataclass(frozen=True)
class EsMatrix:
    """Group-by-group score matrix. Row r aggregates the identities assigned
    to group r; column c is their score mass on group c. The diagonal is what
    the greedy samplers steer on."""

    protocol: Protocol
    groups: tuple
    values: tuple

    def diag(self):
        return tuple(self.values[i][i] for i in range(len(self.values)))


def compute_ids(manifest, protocol):
    """Aggregate image scores into one vector per identity.

    Mean over the identity's images under protocol A, componentwise sum
    under B and C.
    """
    protocol = Protocol(protocol)
    columns = manifest._score_columns(protocol.identity_mean)
    return IdsTable(
        protocol=protocol, entries=dict(zip(manifest._identity_ids, zip(*columns)))
    )


def compute_es(manifest, protocol, ids=None):
    """Aggregate identity vectors into the group-by-group matrix.

    Rows are means over the group's identities for A and B, sums for C.
    A and B reject empty groups (their mean is undefined); under C an empty
    group contributes a zero row.
    """
    protocol = Protocol(protocol)
    if ids is None:
        columns = manifest._score_columns(protocol.identity_mean)
    elif ids.protocol is not protocol:
        raise ScoringError(
            f"ids table was built for protocol {ids.protocol.value}, "
            f"not {protocol.value}"
        )
    else:
        vectors = list(map(ids.entries.__getitem__, manifest._identity_ids))
        columns = [
            array("d", map(itemgetter(c), vectors)) for c in range(manifest.groups.d)
        ]
    rows = []
    for r, count in enumerate(manifest.group_counts):
        if not count and protocol.group_mean:
            raise ScoringError(
                f"group {manifest.groups.labels[r]!r} has no identities; "
                f"its mean is undefined under protocol {protocol.value}"
            )
        # an empty group's fsum is 0.0, the zero row of protocol C
        members = bytes(map(r.__eq__, manifest._identity_groups))
        totals = [math.fsum(compress(column, members)) for column in columns]
        if protocol.group_mean:
            totals = [t / count for t in totals]
        rows.append(tuple(totals))
    return EsMatrix(protocol=protocol, groups=manifest.groups.labels, values=tuple(rows))


def relabel(manifest):
    """Reassign every identity to the group its mean score vector favours.

    The argmax of the protocol-A identity vector decides; exact ties go to
    the lowest group index. Labels feed only the group assignment, never the
    scores, so applying this twice changes nothing. Moving whole identities
    between groups cannot break a row invariant, so the rows are not
    validated again, and the result shares the row columns.
    """
    best, *others = manifest._score_columns(mean=True)
    groups = array("I", [0]) * len(best)
    # only a strictly greater score moves the maximum: ties keep the lowest
    # group index
    for c, column in enumerate(others, start=1):
        for j in compress(range(len(best)), map(gt, column, best)):
            best[j] = column[j]
            groups[j] = c
    return Manifest._of_columns(
        manifest.groups,
        manifest._image_ids,
        manifest._row_identity,
        manifest._scores,
        manifest._identity_ids,
        groups,
    )


@dataclass(frozen=True)
class ScatterResult:
    """Per-image pairing of own-group score against an external score.

    ``correlations`` maps each group label to a Pearson coefficient, or None
    when it is undefined (fewer than two points, or a constant side).
    """

    rows: tuple
    correlations: dict
    skipped: int


def score_scatter(manifest, external_scores):
    """Join own-group image scores with an externally supplied score table.

    ``external_scores`` maps image ids to floats. Images without an external
    value are skipped and counted; an empty intersection is an error.
    """
    rows = []
    per_group = [[] for _ in manifest.groups.labels]
    skipped = 0
    for img in manifest.images:
        if img.image_id not in external_scores:
            skipped += 1
            continue
        ext = float(external_scores[img.image_id])
        own = img.scores[img.group]
        rows.append((img.image_id, manifest.groups.labels[img.group], own, ext))
        per_group[img.group].append((own, ext))
    if not rows:
        raise ScoringError("no overlap between manifest and external scores")
    import statistics

    correlations = {}
    for i, label in enumerate(manifest.groups.labels):
        points = per_group[i]
        if len(points) < 2:
            correlations[label] = None
            continue
        own_values = [p[0] for p in points]
        ext_values = [p[1] for p in points]
        try:
            correlations[label] = statistics.correlation(own_values, ext_values)
        except statistics.StatisticsError:
            warn(__name__, "group %s: correlation undefined (constant input)", label)
            correlations[label] = None
    return ScatterResult(rows=tuple(rows), correlations=correlations, skipped=skipped)


def write_ids_csv(manifest, ids, path):
    labels = manifest.groups.labels
    write_csv(
        path,
        ["identity_id", "group", *[f"ids_{label}" for label in labels]],
        (
            [ident, labels[g], *ids.entries[ident]]
            for ident, g in zip(manifest._identity_ids, manifest._identity_groups)
        ),
    )


def write_es_csv(es, path):
    write_csv(
        path,
        ["group", *es.groups],
        ([label, *row] for label, row in zip(es.groups, es.values)),
    )


def write_scatter_csv(result, path):
    write_csv(path, ["image_id", "group", "own_score", "external_score"], result.rows)
