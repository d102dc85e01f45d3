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
"""

import math
from dataclasses import dataclass

from .errors import SynthError
from .manifest import GroupSet, ImageRecord, Manifest
from .rng import SplitMix64


@dataclass(frozen=True)
class SynthConfig:
    """Generation settings.

    ``identities_per_group`` and ``concentration`` have one entry per group;
    scalars are broadcast. ``images_per_identity`` is an inclusive (min, max)
    range. ``label_noise`` is the probability that an identity's score peak
    is moved to a uniformly random other group.
    """

    seed: int
    groups: GroupSet
    identities_per_group: tuple
    images_per_identity: tuple
    concentration: tuple
    label_noise: float = 0.0

    def __post_init__(self):
        if not _is_int(self.seed):
            raise SynthError("seed must be an integer")
        d = self.groups.d
        counts = _broadcast(self.identities_per_group, d, "identities_per_group")
        if any(not _is_int(c) or c < 0 for c in counts):
            raise SynthError("identity counts must be non-negative integers")
        object.__setattr__(self, "identities_per_group", counts)
        span = tuple(self.images_per_identity)
        if (
            len(span) != 2
            or any(not _is_int(v) for v in span)
            or not 1 <= span[0] <= span[1]
        ):
            raise SynthError(
                "images_per_identity must be an integer (min, max) with "
                "1 <= min <= max"
            )
        object.__setattr__(self, "images_per_identity", span)
        conc = _broadcast(self.concentration, d, "concentration")
        # float() would take "2" or True for a number
        if any(isinstance(c, (bool, str)) for c in conc):
            raise SynthError("concentration values must be numbers")
        conc = tuple(float(c) for c in conc)
        if any(not math.isfinite(c) or c <= 0 for c in conc):
            raise SynthError("concentration values must be positive")
        object.__setattr__(self, "concentration", conc)
        if not (
            isinstance(self.label_noise, (int, float))
            and not isinstance(self.label_noise, bool)
            and 0.0 <= self.label_noise < 1.0
        ):
            raise SynthError("label_noise must be in [0, 1)")

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise SynthError(f"config must be a JSON object, got {data!r:.40}")
        try:
            known = {
                "seed",
                "groups",
                "identities_per_group",
                "images_per_identity",
                "concentration",
                "label_noise",
            }
            extra = set(data) - known
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
    return Manifest.from_images(config.groups, _images(config))


def _images(config):
    """The manifest's image records, generated one at a time in draw order,
    so no list of records is ever held."""
    d = config.groups.d
    rng = SplitMix64(config.seed)
    lo, hi = config.images_per_identity
    for g, label in enumerate(config.groups.labels):
        kappa = config.concentration[g]
        w = kappa / (kappa + 1.0)
        lam = 2.0 * w * (1.0 - w)
        inv_kappa = 1.0 / kappa
        for i in range(config.identities_per_group[g]):
            identity_id = f"{label}_{i:04d}"
            peak = g
            noise_draw = rng.next_float()
            if noise_draw < config.label_noise:
                other = rng.next_below(d - 1)
                peak = other if other < g else other + 1
            count = lo + rng.next_below(hi - lo + 1)
            for m in range(count):
                yield ImageRecord(
                    image_id=f"{identity_id}_{m:03d}",
                    identity_id=identity_id,
                    group=g,
                    scores=_score_vector(rng, d, peak, inv_kappa, lam),
                )


def _score_vector(rng, d, peak, inv_kappa, lam):
    own = 1.0 / d + (1.0 - 1.0 / d) * rng.next_float() ** inv_kappa
    exps = [-math.log(rng.next_float()) for _ in range(d - 1)]
    total = math.fsum(exps)
    rest = 1.0 - own
    base = (1.0 - lam) / (d - 1)
    scores = []
    j = 0
    for c in range(d):
        if c == peak:
            scores.append(own)
        else:
            scores.append(rest * (base + lam * exps[j] / total))
            j += 1
    return tuple(scores)
