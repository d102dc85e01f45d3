"""Slow reference implementations the tests compare the real code against.

Everything here favours the most literal transcription of the definitions
over speed: plain double loops, no incremental state, no shared code with
the package beyond the data types it consumes.
"""

import math
from collections import defaultdict


def ids_oracle(manifest, protocol):
    """Per-identity score vectors by direct accumulation over the images."""
    stacked = defaultdict(list)
    for img in manifest.images:
        stacked[img.identity_id].append(img.scores)
    table = {}
    for ident, vectors in stacked.items():
        components = []
        for c in range(manifest.groups.d):
            total = math.fsum(v[c] for v in vectors)
            if protocol.identity_mean:
                total /= len(vectors)
            components.append(total)
        table[ident] = tuple(components)
    return table


def es_oracle(manifest, protocol):
    """Group-by-group matrix by a naive double loop over identities.

    Callers must not pass an empty group under a mean protocol; that error
    path belongs to the implementation and is tested separately.
    """
    table = ids_oracle(manifest, protocol)
    d = manifest.groups.d
    rows = []
    for g in range(d):
        members = [
            ident
            for ident, rec in manifest.identities.items()
            if rec.group == g
        ]
        row = []
        for c in range(d):
            total = math.fsum(table[ident][c] for ident in members)
            if protocol.group_mean:
                total /= len(members)
            elif not members:
                total = 0.0
            row.append(total)
        rows.append(tuple(row))
    return rows


def dominates(p, q):
    """p dominates q when it is no worse on both axes and better on one."""
    return (
        p.error <= q.error
        and p.bias <= q.bias
        and (p.error < q.error or p.bias < q.bias)
    )


def pareto_oracle(points):
    """All-pairs dominance filter, then the implementation's sort order."""
    kept = [p for p in points if not any(dominates(q, p) for q in points)]
    kept.sort(key=lambda p: p.error)
    return kept


def best_threshold_accuracy_oracle(genuine, impostor):
    """Exhaustive sweep over below-min, midpoint and above-max thresholds."""
    values = sorted(set(genuine) | set(impostor))
    candidates = [values[0] - 1.0]
    candidates += [(a + b) / 2 for a, b in zip(values, values[1:])]
    candidates.append(values[-1] + 1.0)
    total = len(genuine) + len(impostor)
    best = 0
    for threshold in candidates:
        correct = sum(1 for s in genuine if s >= threshold)
        correct += sum(1 for s in impostor if s < threshold)
        best = max(best, correct)
    return best / total


def threshold_sweep_oracle(genuine, impostor):
    """Single-threshold sweep over one sorted list of (score, is_genuine)
    marks: start with everything genuine, then cross one distinct value at a
    time, flipping all of its pairs."""
    marks = sorted([(s, True) for s in genuine] + [(s, False) for s in impostor])
    n = len(marks)
    correct = len(genuine)
    best = correct
    i = 0
    while i < n:
        j = i
        delta = 0
        while j < n and marks[j][0] == marks[i][0]:
            delta += -1 if marks[j][1] else 1
            j += 1
        correct += delta
        if correct > best:
            best = correct
        i = j
    return best / n
