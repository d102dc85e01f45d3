"""Score-manifest data model and its CSV/JSON serialization.

A manifest is an ordered collection of image rows. Each row names an image,
the identity it belongs to, the identity's assigned group, and one
group-membership score per group. Rows keep file order, identities keep
first-appearance order, and score vectors are renormalized once at load so
every row sums to one (rows already within 1e-12 of one are left untouched,
which keeps write/load round trips byte-stable).
"""

import csv
import logging
import math
import statistics
from dataclasses import dataclass, field, replace

from ._util import atomic_write, decode_errors_as, fmt_float
from .errors import ManifestError

log = logging.getLogger(__name__)

# accepted deviation of a raw row's score sum from 1, before renormalization
SUM_TOLERANCE = 1e-3
# sums already this close to 1 are not rescaled
_RENORM_SKIP = 1e-12

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


@dataclass(frozen=True)
class Manifest:
    """Validated image collection.

    ``identities`` and ``group_counts`` are derived from ``images`` and
    excluded from equality. Construct through :meth:`from_images` or
    :func:`load_manifest`; both enforce the invariants, the loader in the
    same pass that parses the rows.
    """

    groups: GroupSet
    images: tuple
    identities: dict = field(compare=False, repr=False)
    group_counts: tuple = field(compare=False)
    rejected_rows: int = field(compare=False, default=0)

    @classmethod
    def from_images(cls, groups, images, rejected_rows=0):
        return cls._of_valid_rows(
            groups, tuple(_validated_images(groups, images)), rejected_rows
        )

    @classmethod
    def _of_valid_rows(cls, groups, images, rejected_rows=0):
        """Manifest over a tuple of rows that already hold every row
        invariant (unique image ids, in-range groups, normalized scores);
        only the identity partition is derived and checked."""
        identities, group_counts = _derive_identities(groups, images)
        return cls(
            groups=groups,
            images=images,
            identities=identities,
            group_counts=group_counts,
            rejected_rows=rejected_rows,
        )

    @property
    def identity_count(self):
        return len(self.identities)

    def remove_identities(self, identity_ids):
        """New manifest without the named identities; row order is kept.

        Skips per-row revalidation: surviving records come from an already
        validated manifest and removal cannot break any row invariant.
        """
        removed = set(identity_ids)
        return Manifest._of_valid_rows(
            self.groups,
            tuple(img for img in self.images if img.identity_id not in removed),
        )

    def identities_of_group(self, group_index):
        """Identity records assigned to a group, in first-appearance order."""
        return [
            rec for rec in self.identities.values() if rec.group == group_index
        ]


def _validated_images(groups, images):
    d = groups.d
    seen = set()
    out = []
    for img in images:
        if img.image_id in seen:
            raise ManifestError(f"duplicate image_id: {img.image_id!r}")
        seen.add(img.image_id)
        if not img.image_id or not img.identity_id:
            raise ManifestError("image_id and identity_id must be non-empty")
        if not 0 <= img.group < d:
            raise ManifestError(f"group index out of range for {img.image_id!r}")
        scores = tuple(float(s) for s in img.scores)
        if len(scores) != d:
            raise ManifestError(
                f"{img.image_id!r}: expected {d} scores, got {len(scores)}"
            )
        for s in scores:
            if not math.isfinite(s) or not 0.0 <= s <= 1.0:
                raise ManifestError(
                    f"{img.image_id!r}: score {s!r} outside [0, 1]"
                )
        total = math.fsum(scores)
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ManifestError(
                f"{img.image_id!r}: scores sum to {total!r}, "
                f"more than {SUM_TOLERANCE} away from 1"
            )
        if abs(total - 1.0) > _RENORM_SKIP:
            scores = tuple(s / total for s in scores)
        if scores != img.scores:
            img = replace(img, scores=scores)
        out.append(img)
    return out


def _derive_identities(groups, images):
    by_identity = {}
    for img in images:
        rec = by_identity.get(img.identity_id)
        if rec is None:
            by_identity[img.identity_id] = (img.group, [img.image_id])
        else:
            if rec[0] != img.group:
                raise ManifestError(
                    f"identity {img.identity_id!r} appears in two groups: "
                    f"{groups.labels[rec[0]]!r} and {groups.labels[img.group]!r}"
                )
            rec[1].append(img.image_id)
    identities = {
        ident: IdentityRecord(ident, grp, tuple(ids))
        for ident, (grp, ids) in by_identity.items()
    }
    counts = [0] * groups.d
    for rec in identities.values():
        counts[rec.group] += 1
    return identities, tuple(counts)


_FIXED_COLUMNS = ("image_id", "identity_id", "group")


def load_manifest(path, groups=None, permissive=False):
    """Read a manifest CSV.

    Header must be ``image_id,identity_id,group`` followed by one
    ``score_<label>`` column per group. When ``groups`` is omitted the group
    set is inferred from the score columns, in file order.

    Row-level problems (unknown group, score outside [0, 1], sum more than
    1e-3 from 1, malformed fields) reject the row; by default any rejection
    fails the load, while ``permissive=True`` skips the bad rows and keeps a
    count. An identity assigned to two groups or a duplicated image id is
    structural corruption and always fatal. Errors keep this precedence:
    rejected rows (strict mode), then the first duplicated image id in file
    order, then an identity found in two groups.

    Rows are checked, renormalized and tested for duplicate ids in the one
    pass that parses them.
    """
    try:
        handle = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ManifestError(f"cannot read {path}: {exc}") from exc
    with handle, decode_errors_as(ManifestError, path):
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError(f"{path}: empty file") from None
        groups = _check_header(path, header, groups)
        d = groups.d
        label_index = {label: i for i, label in enumerate(groups.labels)}

        images = []
        problems = []
        seen = set()
        duplicate = None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            problem = None
            if len(row) != 3 + d:
                problem = f"expected {3 + d} fields, got {len(row)}"
            else:
                image_id, identity_id, group_label = row[0], row[1], row[2]
                if not image_id or not identity_id:
                    problem = "empty image_id or identity_id"
                elif group_label not in label_index:
                    problem = f"unknown group name {group_label!r}"
                else:
                    try:
                        scores = tuple(map(float, row[3:]))
                    except ValueError:
                        problem = "non-numeric score"
                    else:
                        # the chained comparison is also false for inf and nan
                        if not all(0.0 <= s <= 1.0 for s in scores):
                            problem = "score outside [0, 1]"
                        else:
                            total = math.fsum(scores)
                            deviation = abs(total - 1.0)
                            if deviation > SUM_TOLERANCE:
                                problem = (
                                    f"score sum {total!r} deviates from 1 "
                                    f"by more than {SUM_TOLERANCE}"
                                )
                            elif deviation > _RENORM_SKIP:
                                scores = tuple(s / total for s in scores)
            if problem is not None:
                problems.append(f"line {lineno}: {problem}")
                continue
            if image_id in seen:
                if duplicate is None:
                    duplicate = image_id
            else:
                seen.add(image_id)
            images.append(
                ImageRecord(image_id, identity_id, label_index[group_label], scores)
            )

    if problems:
        if not permissive:
            raise ManifestError(
                f"{path}: rejected {len(problems)} row(s); first: {problems[0]}"
            )
        log.warning("%s: skipped %d invalid row(s)", path, len(problems))
    if not images:
        raise ManifestError(f"{path}: empty manifest (no valid rows)")
    if duplicate is not None:
        raise ManifestError(f"duplicate image_id: {duplicate!r}")
    return Manifest._of_valid_rows(
        groups, tuple(images), rejected_rows=len(problems)
    )


def _check_header(path, header, groups):
    if len(header) != len(set(header)):
        raise ManifestError(f"{path}: duplicate columns in header")
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
    with atomic_write(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(_FIXED_COLUMNS) + manifest.groups.score_columns())
        labels = manifest.groups.labels
        for img in manifest.images:
            writer.writerow(
                [img.image_id, img.identity_id, labels[img.group]]
                + [fmt_float(s) for s in img.scores]
            )


def summarize(manifest):
    """JSON-ready summary: counts plus, per group, the distribution of its
    identities' own-group mean scores (mean of the identity's images' own
    component)."""
    own_by_group = [[] for _ in manifest.groups.labels]
    image_counts = [0] * manifest.groups.d

    per_identity = {}
    for img in manifest.images:
        per_identity.setdefault(img.identity_id, []).append(
            img.scores[img.group]
        )
        image_counts[img.group] += 1
    for ident, rec in manifest.identities.items():
        values = per_identity[ident]
        own_by_group[rec.group].append(math.fsum(values) / len(values))

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
    return {
        "mean": math.fsum(values) / len(values),
        "std": statistics.stdev(values),
        "min": min(values),
        "max": max(values),
        "deciles": statistics.quantiles(values, n=10, method="inclusive"),
    }
