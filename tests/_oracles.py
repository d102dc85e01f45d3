"""Slow reference implementations the tests compare the real code against.

Everything here favours the most literal transcription of the definitions
over speed: plain double loops, no incremental state, no shared code with
the package beyond the data types it consumes.
"""

import csv
import math
import re
import statistics
from collections import defaultdict

from fairbalance import IdentityRecord, ImageRecord, ManifestError, Protocol


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


def own_scores_oracle(manifest, protocol):
    """Each identity's ids component for its own group, in first-appearance
    order, read off the tuple table."""
    table = ids_oracle(manifest, protocol)
    return [table[ident][rec.group] for ident, rec in manifest.identities.items()]


def relabel_oracle(manifest):
    """Each identity's new group index, in first-appearance order: the
    argmax of its protocol-A tuple, the first of equal maxima winning."""
    table = ids_oracle(manifest, Protocol.A)
    return [
        max(range(manifest.groups.d), key=table[ident].__getitem__)
        for ident in manifest.identities
    ]


def summarize_oracle(manifest):
    """The summary built from per-identity tuples: counts, and per group the
    distribution of its identities' own-group mean scores."""
    table = ids_oracle(manifest, Protocol.A)
    labels = manifest.groups.labels
    per_group = {}
    for g, label in enumerate(labels):
        members = [rec for rec in manifest.identities.values() if rec.group == g]
        values = [table[rec.identity_id][g] for rec in members]
        if not values:
            own = None
        elif len(values) == 1:
            own = {
                "mean": values[0],
                "std": None,
                "min": values[0],
                "max": values[0],
                "deciles": [values[0]] * 9,
            }
        else:
            own = {
                "mean": math.fsum(values) / len(values),
                "std": statistics.stdev(values),
                "min": min(values),
                "max": max(values),
                "deciles": statistics.quantiles(values, n=10, method="inclusive"),
            }
        per_group[label] = {
            "identities": len(members),
            "images": sum(rec.image_count for rec in members),
            "own_score": own,
        }
    return {
        "groups": list(labels),
        "identities": len(manifest.identities),
        "images": len(manifest.images),
        "rejected_rows": manifest.rejected_rows,
        "per_group": per_group,
    }


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


def load_manifest_oracle(path, groups, permissive=False):
    """The row-record loader: one ``ImageRecord`` per valid row, checked
    and renormalized as it is parsed, then the identity partition derived
    from the records. Returns ``(images, identities, group_counts,
    rejected_rows)``, with ``identities`` a dict of ``IdentityRecord``s in
    first-appearance order, or raises ``ManifestError`` with the loader's
    message. The header row is skipped unread: ``groups`` must match it."""
    d = groups.d
    label_index = {label: i for i, label in enumerate(groups.labels)}
    images, problems, seen, duplicate = [], [], set(), None
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
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
                elif re.search(r"[\x00-\x1f\x7f-\x9f]", image_id + identity_id):
                    problem = "control character in image_id or identity_id"
                elif group_label not in label_index:
                    problem = f"unknown group name {group_label!r}"
                else:
                    try:
                        scores = tuple(map(float, row[3:]))
                    except ValueError:
                        problem = "non-numeric score"
                    else:
                        if not all(0.0 <= s <= 1.0 for s in scores):
                            problem = "score outside [0, 1]"
                        else:
                            total = math.fsum(scores)
                            deviation = abs(total - 1.0)
                            if deviation > 1e-3:
                                problem = (
                                    f"score sum {total!r} deviates from 1 "
                                    "by more than 0.001"
                                )
                            elif deviation > 1e-12:
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
    if problems and not permissive:
        raise ManifestError(
            f"{path}: rejected {len(problems)} row(s); first: {problems[0]}"
        )
    if not images:
        raise ManifestError(f"{path}: empty manifest (no valid rows)")
    if duplicate is not None:
        raise ManifestError(f"duplicate image_id: {duplicate!r}")
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
    counts = [0] * d
    for rec in identities.values():
        counts[rec.group] += 1
    return images, identities, tuple(counts), len(problems)


def write_manifest_oracle(groups, images, path):
    """The row-record writer: one CSV row per ``ImageRecord``, scores in
    their shortest round-trip form."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["image_id", "identity_id", "group"] + groups.score_columns())
        for img in images:
            writer.writerow(
                [img.image_id, img.identity_id, groups.labels[img.group]]
                + [repr(float(s)) for s in img.scores]
            )


def write_removal_log_oracle(trace, path):
    """The removal log with every entry of every row formatted afresh."""
    labels = trace.group_labels
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["step", "identity_id", "group", "own_group_ids"]
            + [f"diag_{g}_before" for g in labels]
            + [f"diag_{g}_after" for g in labels]
        )
        for event in trace.events:
            writer.writerow(
                [event.step, event.identity_id, event.group,
                 repr(float(event.own_group_ids))]
                + [repr(float(v)) for v in event.diag_before]
                + [repr(float(v)) for v in event.diag_after]
            )


def write_evolution_oracle(trace, path):
    """The evolution file with every entry formatted afresh."""
    labels = trace.group_labels
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["step"] + [f"diag_{g}" for g in labels])
        writer.writerow([0] + [repr(float(v)) for v in trace.initial_diag])
        for event in trace.events:
            writer.writerow([event.step] + [repr(float(v)) for v in event.diag_after])
