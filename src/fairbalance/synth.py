"""Deterministic synthetic manifest generation.

Everything is driven by one SplitMix64 stream (see rng.py) consumed in a
documented order, so a reimplementation can reproduce files byte for byte.

Score construction, per image, with d groups and the identity's generation
concentration k (w = k / (k + 1)):

    u     = next_float()
    own   = 1/d + (1 - 1/d) * u**(1/k)        # Beta(k, 1) via inverse CDF
    lam   = 2 * w * (1 - w)
    e_i   = -ln(next_float())                 # d - 1 draws, peak excluded
    v_i   = e_i / sum(e)                      # simplex point over the rest
    off_i = (1 - own) * ((1 - lam) / (d - 1) + lam * v_i)

The own component goes to the identity's peak group, the off components to
the remaining groups in group order. Large k drives every vector toward the
one-hot peak; k near zero drives it toward the uniform vector (own mass to
1/d and the jitter weight lam to zero). The expected own-group score is
1/d + (1 - 1/d) * k / (k + 1), strictly increasing in k.

Draw order, fixed: identities are generated group by group in group order,
numbered from zero. Per identity: one uniform for the label-noise test; if
it fires (u < label_noise), one bounded integer in [0, d - 1) selecting the
peak among the other groups; one bounded integer for the image count in
[min, max]; then per image the draws listed above. The identity keeps its
assigned group label either way; only the score peak moves, which is what
lets relabeling detect the mislabelled fraction later.

The manifest is built as columns, not image records: the draws of a chunk
of rows (``manifest._CHUNK_ROWS``) are taken in the order above, the scores
of those rows are computed one operation at a time over all of them, and
the chunk goes through the loader's bulk row check, ``_Columns.extend``.
Each score is the same expression on the same draws, so the draw order and
the output bytes are those of one record at a time.
"""

import math
from collections import namedtuple
from itertools import chain, repeat, starmap
from operator import add, mul, neg, sub, truediv

from .errors import ManifestError, SynthError
from .manifest import _CHUNK_ROWS, GroupSet, _Columns
from .rng import SEEDS, SplitMix64


class SynthConfig(
    namedtuple(
        "SynthConfig",
        "seed groups identities_per_group images_per_identity concentration "
        "label_noise",
    )
):
    """Generation settings.

    ``identities_per_group`` and ``concentration`` have one entry per group;
    scalars are broadcast. ``images_per_identity`` is an inclusive (min, max)
    range. ``label_noise`` is the probability that an identity's score peak
    is moved to a uniformly random other group.
    """

    __slots__ = ()

    def __new__(
        cls, seed, groups, identities_per_group, images_per_identity,
        concentration, label_noise=0.0,
    ):
        if not _is_int(seed) or seed not in SEEDS:
            raise SynthError("seed must be an integer in [0, 2**64)")
        d = groups.d
        counts = _broadcast(identities_per_group, d, "identities_per_group")
        if any(not _is_int(c) or c < 0 for c in counts):
            raise SynthError("identity counts must be non-negative integers")
        span = tuple(images_per_identity)
        if (
            len(span) != 2
            or any(not _is_int(v) for v in span)
            or not 1 <= span[0] <= span[1]
        ):
            raise SynthError(
                "images_per_identity must be an integer (min, max) with "
                "1 <= min <= max"
            )
        conc = _broadcast(concentration, d, "concentration")
        # float() would take "2" or True for a number
        if any(isinstance(c, (bool, str)) for c in conc):
            raise SynthError("concentration values must be numbers")
        conc = tuple(float(c) for c in conc)
        if any(not math.isfinite(c) or c <= 0 for c in conc):
            raise SynthError("concentration values must be positive")
        if not (
            isinstance(label_noise, (int, float))
            and not isinstance(label_noise, bool)
            and 0.0 <= label_noise < 1.0
        ):
            raise SynthError("label_noise must be in [0, 1)")
        return super().__new__(cls, seed, groups, counts, span, conc, label_noise)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise SynthError(f"config must be a JSON object, got {data!r:.40}")
        try:
            extra = set(data) - set(cls._fields)
            if extra:
                raise SynthError(f"unknown config fields: {sorted(extra)}")
            groups = data["groups"]
            if not isinstance(groups, (list, tuple)):
                raise SynthError(f"groups must be a list of labels, got {groups!r:.40}")
            return cls(
                seed=data["seed"],
                groups=GroupSet(tuple(groups)),
                identities_per_group=_as_tuple(data["identities_per_group"]),
                images_per_identity=tuple(data["images_per_identity"]),
                concentration=_as_tuple(data["concentration"]),
                label_noise=data.get("label_noise", 0.0),
            )
        except KeyError as exc:
            raise SynthError(f"missing config field: {exc.args[0]}") from None
        except (TypeError, ValueError) as exc:  # e.g. a number where a list belongs
            raise SynthError(f"bad config value: {exc}") from None


def _is_int(value):
    """An int that is not a bool: JSON ``true`` loads as one, and must not
    pass for a seed or a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_tuple(value):
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


def _broadcast(value, d, name):
    if isinstance(value, (int, float)):
        value = (value,)
    value = tuple(value)
    if len(value) == 1:
        value = value * d
    if len(value) != d:
        raise SynthError(f"{name} needs 1 or {d} entries, got {len(value)}")
    return value


def generate(config):
    """Build a manifest from the config; a pure function of its fields."""
    if all(c == 0 for c in config.identities_per_group):
        raise SynthError("all groups empty; nothing to generate")
    columns = _Columns(config.groups)
    for chunk in _chunks(config):
        problems = columns.extend(*chunk)
        if problems:
            offset, problem = problems[0]
            raise ManifestError(f"{chunk[0][offset]!r}: {problem}")
    return columns.manifest()


def _chunks(config):
    """The manifest's rows in draw order, up to ``_CHUNK_ROWS`` rows of one
    group at a time, as the columns ``_Columns.extend`` takes: image ids,
    identity ids, group labels and the score cells, row after row. An
    identity's rows may span two chunks."""
    d = config.groups.d
    rng = SplitMix64(config.seed)
    next_float, next_below = rng.next_float, rng.next_below
    lo, hi = config.images_per_identity
    suffixes = [f"_{m:03d}" for m in range(hi)]
    for g, label in enumerate(config.groups.labels):
        kappa = config.concentration[g]
        w = kappa / (kappa + 1.0)
        lam = 2.0 * w * (1.0 - w)
        inv_kappa = 1.0 / kappa
        # the rows drawn and not yet cut into a chunk, with their peaks and
        # their d draws each
        image_ids, identity_ids, peaks, draws = [], [], [], []

        def cut(k):
            chunk = (
                image_ids[:k],
                identity_ids[:k],
                [label] * k,
                _cells(draws[:k * d], peaks[:k], d, inv_kappa, lam),
            )
            del image_ids[:k], identity_ids[:k], peaks[:k], draws[:k * d]
            return chunk

        for i in range(config.identities_per_group[g]):
            identity_id = f"{label}_{i:04d}"
            peak = g
            if next_float() < config.label_noise:
                other = next_below(d - 1)
                peak = other if other < g else other + 1
            count = lo + next_below(hi - lo + 1)
            image_ids += map(identity_id.__add__, suffixes[:count])
            identity_ids += [identity_id] * count
            peaks += [peak] * count
            draws += starmap(next_float, repeat((), d * count))
            while len(image_ids) >= _CHUNK_ROWS:
                yield cut(_CHUNK_ROWS)
        if image_ids:
            yield cut(len(image_ids))


def _cells(draws, peaks, d, inv_kappa, lam):
    """The score cells, row after row, of the rows whose draws are
    ``draws``, ``d`` per row in draw order, and whose peaks are ``peaks``:
    the construction in the module docstring, one pass per operation.
    Leaves only the exponential draws in ``draws``."""
    u = draws[0::d]
    del draws[0::d]
    # 1/d + (1 - 1/d) * u**(1/k)
    powers = map(pow, u, repeat(inv_kappa))
    own = list(map(add, repeat(1.0 / d), map(mul, repeat(1.0 - 1.0 / d), powers)))
    exps = list(map(neg, map(math.log, draws)))
    totals = list(map(math.fsum, zip(*[iter(exps)] * (d - 1))))
    rests = list(map(sub, repeat(1.0), own))
    base = (1.0 - lam) / (d - 1)
    # off cell i of each row: rest * (base + lam * e_i / total)
    jitters = list(map(mul, repeat(lam), exps))
    offs = [
        map(mul, rests, map(add, repeat(base), map(truediv, jitters[i::d - 1], totals)))
        for i in range(d - 1)
    ]
    rows = list(map(list, zip(*offs)))
    for row, peak, value in zip(rows, peaks, own):
        row.insert(peak, value)
    return list(chain.from_iterable(rows))
