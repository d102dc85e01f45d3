"""Score-manifest data model and its CSV/JSON serialization.

A manifest is an ordered collection of image rows. Each row names an image,
the identity it belongs to, the identity's assigned group, and one
group-membership score per group. Rows keep file order, identities keep
first-appearance order, and score vectors are renormalized once at load so
every row sums to one (rows already within 1e-12 of one are left untouched,
which keeps write/load round trips byte-stable).
"""

import math
import re
from array import array
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, sub, truediv

from ._util import read_csv, warn, write_csv
from .errors import InternalInvariantError, ManifestError

# accepted deviation of a raw row's score sum from 1, before renormalization
SUM_TOLERANCE = 1e-3
# sums already this close to 1 are not rescaled
_RENORM_SKIP = 1e-12
# U+0000-U+001F and U+007F-U+009F: Unicode category Cc
_CONTROL_CHARS = re.compile(r"[\x00-\x1f\x7f-\x9f]")

DEFAULT_GROUP_LABELS = ("African", "Asian", "Caucasian", "Indian")


@dataclass(frozen=True)
class GroupSet:
    """Ordered, distinct group labels. Order is significant everywhere:
    score columns, matrix rows, and tie-breaking all follow it."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 2:
            raise ManifestError("a group set needs at least two groups")
        if len(set(labels)) != len(labels):
            raise ManifestError("group labels must be distinct")
        for label in labels:
            if not isinstance(label, str) or not label:
                raise ManifestError("group labels must be non-empty strings")

    @property
    def d(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise ManifestError(f"unknown group name: {label!r}") from None

    def score_columns(self):
        return [f"score_{label}" for label in self.labels]


DEFAULT_GROUPS = GroupSet(DEFAULT_GROUP_LABELS)


@dataclass(frozen=True, slots=True)
class ImageRecord:
    """One image row: ids, assigned group (index into the GroupSet), and the
    per-group membership scores, which sum to one after load."""

    image_id: str
    identity_id: str
    group: int
    scores: tuple


@dataclass(frozen=True, slots=True)
class IdentityRecord:
    identity_id: str
    group: int
    image_ids: tuple

    @property
    def image_count(self):
        return len(self.image_ids)


class Manifest:
    """Validated image collection, held as columns.

    Per row it keeps the image id, the identity's index and the scores (one
    flat array of doubles, ``d`` per row); per identity, in first-appearance
    order, the id and the group, and from first use the row indices. No
    record per row is stored: ``images`` is a read-only sequence and
    ``identities`` a read-only mapping by identity id, and both build their
    ``ImageRecord`` or ``IdentityRecord`` on access.

    Equality compares the groups and the rows; ``identities``,
    ``group_counts`` and ``rejected_rows`` are excluded. Construct through
    :meth:`from_images` or :func:`load_manifest`; both enforce the
    invariants, the loader in the same pass that parses the rows.
    """

    @classmethod
    def from_images(cls, groups, images, rejected_rows=0):
        """Manifest over ``ImageRecord``s, checked for field types, then by
        the loader's row rules and messages; the first bad record raises."""
        d = groups.d
        columns = _Columns(groups)
        for img in images:
            if not (isinstance(img.image_id, str) and isinstance(img.identity_id, str)):
                problem = "image_id and identity_id must be strings"
            elif not isinstance(img.group, int) or isinstance(img.group, bool):
                problem = f"group must be an integer index, got {img.group!r}"
            elif not isinstance(img.scores, Sequence):
                problem = f"scores must be a sequence, got {img.scores!r:.40}"
            elif not 0 <= img.group < d:
                problem = "group index out of range"
            elif len(img.scores) != d:
                problem = f"expected {d} scores, got {len(img.scores)}"
            else:
                problem = columns.add(
                    img.image_id, img.identity_id, groups.labels[img.group], img.scores
                )
            if problem is not None:
                raise ManifestError(f"{img.image_id!r}: {problem}")
        return columns.manifest(rejected_rows)

    @classmethod
    def _of_columns(
        cls,
        groups,
        image_ids,
        row_identity,
        scores,
        identity_ids,
        identity_groups,
        rejected_rows=0,
    ):
        """Manifest over columns that already hold every row invariant
        (unique non-empty ids, in-range groups, normalized scores, one group
        per identity): per row ``image_ids``, ``row_identity`` (an index into
        ``identity_ids``) and ``d`` doubles of ``scores``; per identity
        ``identity_ids`` and ``identity_groups``. The columns are kept, not
        copied, and must not change afterwards."""
        n = len(image_ids)
        if (
            len(row_identity) != n
            or len(scores) != n * groups.d
            or len(identity_groups) != len(identity_ids)
        ):
            raise InternalInvariantError(
                f"manifest columns disagree: {n} image ids, "
                f"{len(row_identity)} identity indices, {len(scores)} scores "
                f"for {groups.d} groups, {len(identity_ids)} identity ids and "
                f"{len(identity_groups)} identity groups"
            )
        self = object.__new__(cls)
        self.groups = groups
        self.rejected_rows = rejected_rows
        self._image_ids = image_ids
        self._row_identity = row_identity
        self._scores = scores
        self._identity_ids = identity_ids
        self._identity_groups = identity_groups
        self._index = None
        self.group_counts = tuple(identity_groups.count(g) for g in range(groups.d))
        self._rows = None
        return self

    @property
    def images(self):
        return _ImageView(self)

    @property
    def identities(self):
        return _IdentityView(self)

    @property
    def identity_count(self):
        return len(self._identity_ids)

    def __eq__(self, other):
        if not isinstance(other, Manifest):
            return NotImplemented
        # equal per-row identity ids give equal first-appearance orders, so
        # the rows are equal exactly when all these columns are
        return (
            self.groups == other.groups
            and self._image_ids == other._image_ids
            and self._identity_ids == other._identity_ids
            and self._row_identity == other._row_identity
            and self._identity_groups == other._identity_groups
            and self._scores == other._scores
        )

    def __hash__(self):
        return hash((self.groups, len(self._image_ids)))

    def __repr__(self):
        return (
            f"Manifest(groups={self.groups.labels!r}, "
            f"images={len(self._image_ids)}, identities={self.identity_count}, "
            f"rejected_rows={self.rejected_rows})"
        )

    def remove_identities(self, identity_ids):
        """New manifest without the named identities; row order is kept.

        One keep-mask pass over the columns. Removal cannot break a row
        invariant, so nothing is validated again.
        """
        removed = set(identity_ids)
        keep = bytes(ident not in removed for ident in self._identity_ids)
        # kept identity j becomes identity renumber[j]
        renumber = array("I", accumulate(keep, initial=0))
        row_keep = bytes(map(keep.__getitem__, self._row_identity))
        d = self.groups.d
        score_keep = bytearray(len(self._scores))
        for c in range(d):
            score_keep[c::d] = row_keep
        return Manifest._of_columns(
            self.groups,
            list(compress(self._image_ids, row_keep)),
            array("I", map(renumber.__getitem__, compress(self._row_identity, row_keep))),
            array("d", compress(self._scores, score_keep)),
            list(compress(self._identity_ids, keep)),
            array("I", compress(self._identity_groups, keep)),
        )

    def identities_of_group(self, group_index):
        """Identity records assigned to a group, in first-appearance order."""
        return [
            self._identity_record(j)
            for j, g in enumerate(self._identity_groups)
            if g == group_index
        ]

    def _image_record(self, r):
        r = range(len(self._image_ids))[r]
        j = self._row_identity[r]
        d = self.groups.d
        return ImageRecord(
            self._image_ids[r],
            self._identity_ids[j],
            self._identity_groups[j],
            tuple(self._scores[r * d:r * d + d]),
        )

    def _identity_record(self, j):
        rows, starts = self._rows_by_identity()
        rows = rows[starts[j]:starts[j + 1]]
        return IdentityRecord(
            self._identity_ids[j],
            self._identity_groups[j],
            tuple(map(self._image_ids.__getitem__, rows)),
        )

    def _identity_index(self):
        """Identity id to identity index, built on first use."""
        if self._index is None:
            self._index = {ident: j for j, ident in enumerate(self._identity_ids)}
        return self._index

    def _rows_by_identity(self):
        """The row indices grouped by identity, in identity order and row
        order within an identity, and where each identity's rows start:
        identity j's rows are ``rows[starts[j]:starts[j + 1]]``. Built on
        first use, by a stable sort of the row indices on their identity."""
        if self._rows is None:
            row_identity = self._row_identity
            counts = Counter(row_identity)
            starts = array(
                "I",
                accumulate(
                    map(counts.__getitem__, range(len(self._identity_ids))),
                    initial=0,
                ),
            )
            rows = sorted(range(len(row_identity)), key=row_identity.__getitem__)
            self._rows = array("I", rows), starts
        return self._rows

    def _row_counts(self):
        """Each identity's row count, by identity index."""
        _, starts = self._rows_by_identity()
        return array("I", map(sub, islice(starts, 1, None), starts))

    def _identity_sums(self, values, mean):
        """Per identity, in first-appearance order, as an ``array('d')``: the
        ``fsum`` of its rows' entries of ``values``, a per-row column given
        in identity order (the order of ``_rows_by_identity``), divided by
        its row count when ``mean`` (protocol A)."""
        counts = self._row_counts()
        values = iter(values)
        totals = map(math.fsum, map(islice, repeat(values), counts))
        return array("d", map(truediv, totals, counts) if mean else totals)

    def _score_columns(self, mean):
        """The identity vectors as ``d`` columns: column ``c`` holds each
        identity's reduced score on group ``c``."""
        d = self.groups.d
        rows, _ = self._rows_by_identity()
        return [
            self._identity_sums(map(self._scores[c::d].__getitem__, rows), mean)
            for c in range(d)
        ]

    def _own_column(self, mean):
        """Each identity's reduced score on its own group, by identity
        index: the diagonal component of its identity vector."""
        d = self.groups.d
        rows, _ = self._rows_by_identity()
        # each row's own group, in identity order
        own_groups = chain.from_iterable(
            map(repeat, self._identity_groups, self._row_counts())
        )
        offsets = map(add, map(d.__mul__, rows), own_groups)
        return self._identity_sums(map(self._scores.__getitem__, offsets), mean)


class _ImageView(Sequence):
    """A manifest's rows, read-only; indexing builds an ``ImageRecord``."""

    __slots__ = ("_manifest",)

    def __init__(self, manifest):
        self._manifest = manifest

    def __len__(self):
        return len(self._manifest._image_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self._manifest._image_record(index)


class _IdentityView(Mapping):
    """A manifest's identities by id, in first-appearance order, read-only;
    lookup builds an ``IdentityRecord``."""

    __slots__ = ("_manifest",)

    def __init__(self, manifest):
        self._manifest = manifest

    def __len__(self):
        return len(self._manifest._identity_ids)

    def __iter__(self):
        return iter(self._manifest._identity_ids)

    def __contains__(self, identity_id):
        return identity_id in self._manifest._identity_index()

    def __getitem__(self, identity_id):
        manifest = self._manifest
        return manifest._identity_record(manifest._identity_index()[identity_id])


class _Columns:
    """The columns of a manifest under construction, one checked row at a
    time. Identities are numbered in first-appearance order; the first
    duplicated image id and the first row that puts an identity in a second
    group are kept and reported by :meth:`manifest`."""

    def __init__(self, groups):
        self.groups = groups
        self.label_index = {label: i for i, label in enumerate(groups.labels)}
        self.image_ids = []
        self.row_identity = array("I")
        self.scores = array("d")
        self.identity_ids = []
        self.identity_groups = array("I")
        self.index = {}
        self.seen = set()
        self.duplicate = None
        self.conflict = None

    def add(self, image_id, identity_id, group_label, cells):
        """Check one row and add it, with its scores renormalized unless
        they already sum to within 1e-12 of one. Returns the first problem
        that rejects the row, in this order: an empty id, a control
        character in an id, an unknown group, a non-numeric score, a score
        outside [0, 1], a sum more than ``SUM_TOLERANCE`` from 1; or None
        once the row is added."""
        if not image_id or not identity_id:
            return "empty image_id or identity_id"
        if _CONTROL_CHARS.search(image_id) or _CONTROL_CHARS.search(identity_id):
            return "control character in image_id or identity_id"
        group = self.label_index.get(group_label)
        if group is None:
            return f"unknown group name {group_label!r}"
        try:
            scores = tuple(map(float, cells))
        except (TypeError, ValueError):
            return "non-numeric score"
        # the chained comparison is also false for inf and nan
        if not all(0.0 <= s <= 1.0 for s in scores):
            return "score outside [0, 1]"
        total = math.fsum(scores)
        deviation = abs(total - 1.0)
        if deviation > SUM_TOLERANCE:
            return f"score sum {total!r} deviates from 1 by more than {SUM_TOLERANCE}"
        if deviation > _RENORM_SKIP:
            scores = tuple(s / total for s in scores)

        if image_id in self.seen:
            if self.duplicate is None:
                self.duplicate = image_id
        else:
            self.seen.add(image_id)
        j = self.index.get(identity_id)
        if j is None:
            j = self.index[identity_id] = len(self.identity_ids)
            self.identity_ids.append(identity_id)
            self.identity_groups.append(group)
        elif self.conflict is None and self.identity_groups[j] != group:
            first = self.groups.labels[self.identity_groups[j]]
            self.conflict = (
                f"identity {identity_id!r} appears in two groups: "
                f"{first!r} and {group_label!r}"
            )
        self.image_ids.append(image_id)
        self.row_identity.append(j)
        self.scores.extend(scores)
        return None

    def manifest(self, rejected_rows=0):
        """The manifest over the rows added; a duplicated image id, then an
        identity in two groups, raises."""
        if self.duplicate is not None:
            raise ManifestError(f"duplicate image_id: {self.duplicate!r}")
        if self.conflict is not None:
            raise ManifestError(self.conflict)
        return Manifest._of_columns(
            self.groups,
            self.image_ids,
            self.row_identity,
            self.scores,
            self.identity_ids,
            self.identity_groups,
            rejected_rows,
        )


_FIXED_COLUMNS = ("image_id", "identity_id", "group")


def load_manifest(path, groups=None, permissive=False):
    """Read a manifest CSV.

    Header must be ``image_id,identity_id,group`` followed by one
    ``score_<label>`` column per group. When ``groups`` is omitted the group
    set is inferred from the score columns, in file order.

    Row-level problems (unknown group, score outside [0, 1], sum more than
    1e-3 from 1, malformed fields, a control character in an id) reject the
    row; by default any rejection
    fails the load, while ``permissive=True`` skips the bad rows and keeps a
    count. An identity assigned to two groups or a duplicated image id is
    structural corruption and always fatal. Errors keep this precedence:
    rejected rows (strict mode), then the first duplicated image id in file
    order, then an identity found in two groups.

    Each row is checked, renormalized and added to the manifest's columns
    by ``_Columns.add``, the row check ``Manifest.from_images`` shares, in
    the one pass that parses the rows.
    """
    with read_csv(path, ManifestError) as (header, records):
        if header is None:
            raise ManifestError(f"{path}: empty file")
        groups = _check_header(path, header, groups)
        width = 3 + groups.d
        columns = _Columns(groups)
        problems = []
        for lineno, row in records:
            if len(row) != width:
                problem = f"expected {width} fields, got {len(row)}"
            else:
                problem = columns.add(row[0], row[1], row[2], row[3:])
            if problem is not None:
                problems.append(f"line {lineno}: {problem}")

    if problems:
        if not permissive:
            raise ManifestError(
                f"{path}: rejected {len(problems)} row(s); first: {problems[0]}"
            )
        warn(__name__, "%s: skipped %d invalid row(s)", path, len(problems))
    if not columns.image_ids:
        raise ManifestError(f"{path}: empty manifest (no valid rows)")
    return columns.manifest(rejected_rows=len(problems))


def _check_header(path, header, groups):
    if tuple(header[:3]) != _FIXED_COLUMNS:
        raise ManifestError(
            f"{path}: header must start with {','.join(_FIXED_COLUMNS)}"
        )
    score_cols = header[3:]
    for col in score_cols:
        if not col.startswith("score_"):
            raise ManifestError(f"{path}: unexpected column {col!r}")
    if groups is None:
        labels = tuple(col[len("score_"):] for col in score_cols)
        try:
            return GroupSet(labels)
        except ManifestError as exc:
            raise ManifestError(f"{path}: bad score columns: {exc}") from None
    expected = groups.score_columns()
    if score_cols != expected:
        raise ManifestError(
            f"{path}: score columns {score_cols!r} do not match "
            f"expected {expected!r}"
        )
    return groups


def write_manifest(manifest, path):
    """Write the manifest back to CSV (UTF-8, LF, shortest float repr)."""
    if not manifest.images:
        raise ManifestError("refusing to write an empty manifest")
    labels = manifest.groups.labels
    ids, groups = manifest._identity_ids, manifest._identity_groups
    # the flat score column, d doubles at a time
    vectors = zip(*[iter(manifest._scores)] * manifest.groups.d)
    write_csv(
        path,
        [*_FIXED_COLUMNS, *manifest.groups.score_columns()],
        (
            [image_id, ids[j], labels[groups[j]], *vector]
            for image_id, j, vector in zip(
                manifest._image_ids, manifest._row_identity, vectors
            )
        ),
    )


def summarize(manifest):
    """JSON-ready summary: counts plus, per group, the distribution of its
    identities' own-group mean scores (mean of the identity's images' own
    component)."""
    own_by_group = [[] for _ in manifest.groups.labels]
    image_counts = [0] * manifest.groups.d
    for g, own, count in zip(
        manifest._identity_groups,
        manifest._own_column(mean=True),
        manifest._row_counts(),
    ):
        own_by_group[g].append(own)
        image_counts[g] += count

    per_group = {}
    for i, label in enumerate(manifest.groups.labels):
        values = own_by_group[i]
        entry = {
            "identities": manifest.group_counts[i],
            "images": image_counts[i],
        }
        entry["own_score"] = _distribution(values)
        per_group[label] = entry

    return {
        "groups": list(manifest.groups.labels),
        "identities": manifest.identity_count,
        "images": len(manifest.images),
        "rejected_rows": manifest.rejected_rows,
        "per_group": per_group,
    }


def _distribution(values):
    if not values:
        return None
    if len(values) == 1:
        value = values[0]
        return {
            "mean": value,
            "std": None,
            "min": value,
            "max": value,
            "deciles": [value] * 9,
        }
    import statistics

    return {
        "mean": math.fsum(values) / len(values),
        "std": statistics.stdev(values),
        "min": min(values),
        "max": max(values),
        "deciles": statistics.quantiles(values, n=10, method="inclusive"),
    }
