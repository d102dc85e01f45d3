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
from collections import Counter, namedtuple
from collections.abc import Mapping, Sequence
from itertools import accumulate, chain, compress, count, filterfalse, islice, repeat
from operator import add, eq, ge, le, or_, sub, truediv

from ._util import read_csv, warn
from .errors import InternalInvariantError, ManifestError

# accepted deviation of a raw row's score sum from 1, before renormalization
SUM_TOLERANCE = 1e-3
# sums already this close to 1 are not rescaled
_RENORM_SKIP = 1e-12
# U+0000-U+001F and U+007F-U+009F: Unicode category Cc
_CONTROL_CHARS = re.compile(r"[\x00-\x1f\x7f-\x9f]")

DEFAULT_GROUP_LABELS = ("African", "Asian", "Caucasian", "Indian")


class GroupSet(namedtuple("GroupSet", "labels")):
    """Ordered, distinct group labels. Order is significant everywhere:
    score columns, matrix rows, and tie-breaking all follow it."""

    __slots__ = ()

    def __new__(cls, labels):
        labels = tuple(labels)
        if len(labels) < 2:
            raise ManifestError("a group set needs at least two groups")
        if len(set(labels)) != len(labels):
            raise ManifestError("group labels must be distinct")
        for label in labels:
            if not isinstance(label, str) or not label:
                raise ManifestError("group labels must be non-empty strings")
        return super().__new__(cls, labels)

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


class ImageRecord(namedtuple("ImageRecord", "image_id identity_id group scores")):
    """One image row: ids, assigned group (index into the GroupSet), and the
    per-group membership scores, which sum to one after load."""

    __slots__ = ()


class IdentityRecord(namedtuple("IdentityRecord", "identity_id group image_ids")):
    __slots__ = ()

    @property
    def image_count(self):
        return len(self.image_ids)


class _Source(namedtuple("_Source", "path key count rows marks")):
    """Where a manifest's rows can be copied from: the CSV at the absolute
    ``path``, whose sidecar, stored by ``write_manifest`` under ``key``,
    says that its line r + 1 is the formatting of its row r, for each of its
    ``count`` rows. Per manifest row, in ``bytes`` ``marks`` and the
    ascending sequence ``rows``: 1 where the row must be formatted anew, and
    its row in the source."""

    __slots__ = ()

    @classmethod
    def of_file(cls, path, key, count):
        """The source of a manifest that is every row of the CSV ``path``."""
        return cls(path, key, count, range(count), bytes(count))

    def kept(self, row_keep):
        """The source of the manifest's rows where ``row_keep`` is 1."""
        return self._replace(
            rows=array("I", compress(self.rows, row_keep)),
            marks=bytes(compress(self.marks, row_keep)),
        )

    def moved(self, row_marks):
        """The source with the rows where ``row_marks`` is 1 marked too."""
        return self._replace(marks=bytes(map(or_, self.marks, row_marks)))


class Manifest:
    """Validated image collection, held as columns.

    Per row it keeps the image id, the identity's index and the scores (one
    flat array of doubles, ``d`` per row); per identity, in first-appearance
    order, the id and the group, and from first use the row indices. No
    record per row is stored: ``images`` is a read-only sequence and
    ``identities`` a read-only mapping by identity id, and both build their
    ``ImageRecord`` or ``IdentityRecord`` on access.

    Equality compares the groups and the rows; ``identities``,
    ``group_counts``, ``rejected_rows`` and the source that
    ``write_manifest`` may copy rows from are excluded. Construct through
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
        source=None,
    ):
        """Manifest over columns that already hold every row invariant
        (unique non-empty ids, in-range groups, normalized scores, one group
        per identity): per row ``image_ids``, ``row_identity`` (an index into
        ``identity_ids``) and ``d`` doubles of ``scores``; per identity
        ``identity_ids`` and ``identity_groups``. The columns are kept, not
        copied, and must not change afterwards. ``source`` is the
        ``_Source`` of the rows, if any."""
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
        self._source = source
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
            source=None if self._source is None else self._source.kept(row_keep),
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
            # rows in identity order need no sort
            rows = range(len(row_identity))
            if not all(map(le, row_identity, islice(row_identity, 1, None))):
                rows = sorted(rows, key=row_identity.__getitem__)
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
    """The columns of a manifest under construction, checked one row at a
    time by :meth:`add` or a chunk of rows at a time by :meth:`extend`.
    Identities are numbered in first-appearance order; the first duplicated
    image id and the first row that puts an identity in a second group are
    kept and reported by :meth:`manifest`."""

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

    def extend(self, image_ids, identity_ids, group_labels, cells):
        """Check a chunk of rows and add them, as :meth:`add` would one at a
        time: per row an image id, an identity id and a group label, and
        ``d`` score cells, row after row, in ``cells``; at least one row.
        Returns the problems of the rows not added, as ``(offset in the
        chunk, problem)`` pairs.

        A clean chunk is checked and added in passes over whole columns.
        Clean means non-empty ids with no control character, known groups,
        scores in [0, 1] with every row's sum within ``SUM_TOLERANCE`` of
        1, no image id seen before and no identity in a second group. Any
        other chunk goes through :meth:`add` row by row, so the problems,
        the first duplicate and the conflict are the per-row check's."""
        d = self.groups.d
        try:
            # arrays fill faster from lists than from iterators
            scores = list(map(float, cells))
            groups = list(map(self.label_index.__getitem__, group_labels))
        except (KeyError, TypeError, ValueError):
            return self._add_rows(image_ids, identity_ids, group_labels, cells)
        chunk_ids = set(image_ids)
        ids = "".join(chain(image_ids, identity_ids))
        # one group per identity within the chunk: the last one seen
        group_of = dict(zip(identity_ids, groups))
        known = list(filter(self.index.__contains__, group_of))
        earlier_groups = map(
            self.identity_groups.__getitem__, map(self.index.__getitem__, known)
        )
        if not (
            all(image_ids)
            and all(identity_ids)
            # a control character is never printable, so a printable text
            # need not be searched
            and (ids.isprintable() or not _CONTROL_CHARS.search(ids))
            # not min and max: a nan compares false, and must fail here
            and all(map(le, repeat(0.0), scores))
            and all(map(ge, repeat(1.0), scores))
            and len(chunk_ids) == len(image_ids)
            and self.seen.isdisjoint(chunk_ids)
            and all(map(eq, map(group_of.__getitem__, identity_ids), groups))
            and all(map(eq, map(group_of.__getitem__, known), earlier_groups))
        ):
            return self._add_rows(image_ids, identity_ids, group_labels, cells)
        totals = list(map(math.fsum, zip(*[iter(scores)] * d)))
        deviations = list(map(abs, map(sub, totals, repeat(1.0))))
        # the scores are in [0, 1], so no deviation is a nan
        worst = max(deviations)
        if worst > SUM_TOLERANCE:
            return self._add_rows(image_ids, identity_ids, group_labels, cells)
        if worst > _RENORM_SKIP:
            # dividing by 1.0 is exact, so one pass rescales just the rows
            # that need it
            divisors = [
                total if deviation > _RENORM_SKIP else 1.0
                for total, deviation in zip(totals, deviations)
            ]
            per_cell = chain.from_iterable(map(repeat, divisors, repeat(d)))
            scores = list(map(truediv, scores, per_cell))

        new = list(filterfalse(self.index.__contains__, group_of))
        self.index.update(zip(new, count(len(self.identity_ids))))
        self.identity_ids += new
        self.identity_groups.extend(map(group_of.__getitem__, new))
        self.seen |= chunk_ids
        self.image_ids += image_ids
        self.row_identity.extend(map(self.index.__getitem__, identity_ids))
        self.scores.fromlist(scores)
        return []

    def _add_rows(self, image_ids, identity_ids, group_labels, cells):
        """:meth:`extend` one row at a time through :meth:`add`."""
        d = self.groups.d
        problems = []
        for offset, row in enumerate(zip(image_ids, identity_ids, group_labels)):
            problem = self.add(*row, cells[offset * d:offset * d + d])
            if problem is not None:
                problems.append((offset, problem))
        return problems

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
# rows per bulk check, in the CSV parse and in synth. A chunk's records are
# two tracked objects each, so 256 of them stay under the garbage
# collector's first threshold (700) and set off no collection while held.
# Small chunks also keep synth's peak on a 1.15M-image manifest at the
# per-record generator's (4,096-row chunks read about 9 MB more).
_CHUNK_ROWS = 256


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

    The rows are checked, renormalized and added to the manifest's columns
    in the one pass that parses them, ``_CHUNK_ROWS`` records at a time:
    ``_Columns.extend`` adds a clean chunk in bulk and sends any other
    through ``_Columns.add``, the row check ``Manifest.from_images`` uses,
    one row at a time, so every message, line number and count is the
    per-row check's.
    """
    # a clean load leaves a sidecar that later loads read instead
    from . import _sidecar

    return _sidecar.load(_parse, path, groups, permissive)


def _parse(path, groups, permissive):
    with read_csv(
        path, ManifestError, _FIXED_COLUMNS, "score_", check_width=False
    ) as (labels, records):
        groups = _check_groups(path, labels, groups)
        width = 3 + groups.d
        columns = _Columns(groups)
        problems = []
        for chunk in iter(lambda: list(islice(records, _CHUNK_ROWS)), []):
            linenos, rows = zip(*chunk)
            if set(map(len, rows)) == {width}:
                fields = list(chain.from_iterable(rows))
                fixed = fields[0::width], fields[1::width], fields[2::width]
                # dropping each row's first field three times leaves the
                # score cells, row after row
                for row_width in range(width, width - 3, -1):
                    del fields[0::row_width]
                found = columns.extend(*fixed, fields)
            else:
                found = [
                    (
                        offset,
                        columns.add(row[0], row[1], row[2], row[3:])
                        if len(row) == width
                        else f"expected {width} fields, got {len(row)}",
                    )
                    for offset, row in enumerate(rows)
                ]
            problems += (
                f"line {linenos[offset]}: {problem}"
                for offset, problem in found
                if problem is not None
            )

    if problems:
        if not permissive:
            raise ManifestError(
                f"{path}: rejected {len(problems)} row(s); first: {problems[0]}"
            )
        warn(__name__, "%s: skipped %d invalid row(s)", path, len(problems))
    if not columns.image_ids:
        raise ManifestError(f"{path}: empty manifest (no valid rows)")
    return columns.manifest(rejected_rows=len(problems))


def _check_groups(path, labels, groups):
    if groups is None:
        try:
            return GroupSet(labels)
        except ManifestError as exc:
            raise ManifestError(f"{path}: bad score columns: {exc}") from None
    if labels != groups.labels:
        raise ManifestError(
            f"{path}: score columns {[f'score_{label}' for label in labels]!r} "
            f"do not match expected {groups.score_columns()!r}"
        )
    return groups


def write_manifest(manifest, path):
    """Write the manifest back to CSV (UTF-8, LF, shortest float repr) and
    store its sidecar. A manifest whose rows come from a CSV that this
    function wrote copies their lines from it; see ``_sidecar.write``."""
    if not manifest.images:
        raise ManifestError("refusing to write an empty manifest")
    from . import _sidecar

    _sidecar.write(manifest, path, [*_FIXED_COLUMNS, *manifest.groups.score_columns()])


def _records(manifest, rows=None):
    """The CSV records of the manifest's rows: every row in order, or the
    row indices ``rows``."""
    labels = manifest.groups.labels
    ids, groups = manifest._identity_ids, manifest._identity_groups
    d = manifest.groups.d
    image_ids, row_identity, scores = (
        manifest._image_ids, manifest._row_identity, manifest._scores
    )
    if rows is None:
        # the flat score column, d doubles at a time
        vectors = zip(*[iter(scores)] * d)
    else:
        image_ids = map(image_ids.__getitem__, rows)
        row_identity = map(row_identity.__getitem__, rows)
        vectors = (scores[r * d:r * d + d] for r in rows)
    return (
        [image_id, ids[j], labels[groups[j]], *vector]
        for image_id, j, vector in zip(image_ids, row_identity, vectors)
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
