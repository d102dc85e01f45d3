"""Seeded pseudo-random generator with a pinned, documented state transition.

Seeded outputs must be reproducible bit for bit across platforms and across
reimplementations in other languages, so the generator is spelled out here
instead of delegating to an interpreter-defined one.

SplitMix64 (Steele, Lea and Flood's split-and-mix update):

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output: z XOR (z >> 31)

Derived draws, in terms of the raw 64-bit outputs:

* float in the open interval (0, 1): ((output >> 11) + 0.5) / 2^53
* integer below n: rejection sampling on the largest multiple of n that
  fits in 2^64, then output mod n (no modulo bias)
* k-subset of a sequence: partial Fisher-Yates from the front of a copy,
  taking the first k slots
"""

_MASK = (1 << 64) - 1
# every seed: the generator's initial state, a 64-bit integer
SEEDS = range(1 << 64)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator; the full algorithm is in the module
    docstring. The seed is the initial state, an integer in [0, 2^64); any
    other value raises ``ValueError``: one out of range is not reduced, and
    a bool, a float or a string is not converted."""

    def __init__(self, seed):
        # int() first: ``in`` on a range scans it for anything but an exact int
        if isinstance(seed, bool) or not isinstance(seed, int) or int(seed) not in SEEDS:
            raise ValueError(f"seed must be in [0, 2**64), got {seed!r}")
        self._state = int(seed)

    def next_u64(self):
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_float(self):
        """Uniform double in (0, 1), both endpoints excluded."""
        return ((self.next_u64() >> 11) + 0.5) / 9007199254740992.0

    def next_below(self, n):
        """Uniform integer in [0, n), bias-free via rejection."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def sample(self, sequence, k):
        """k distinct elements, drawn without replacement.

        Partial Fisher-Yates on a copy: for i in 0..k-1 swap slot i with a
        uniformly chosen slot in [i, len), then return the first k slots.
        """
        items = list(sequence)
        if not 0 <= k <= len(items):
            raise ValueError("sample size out of range")
        for i in range(k):
            j = i + self.next_below(len(items) - i)
            items[i], items[j] = items[j], items[i]
        return items[:k]
