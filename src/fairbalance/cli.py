"""Command-line front end.

Exit codes: 0 success, 1 invalid data or arguments, 2 usage errors (argparse
owns these), 3 internal invariant violations. Diagnostics go to stderr; data
goes to stdout or to the files named by ``--out`` style flags. Log verbosity
is controlled by the FAIRBALANCE_LOG environment variable (debug, info,
warning, error).
"""

import argparse
import json
import math
import os
import sys
from operator import ne

from . import __version__
from ._util import atomic_write, read_csv, set_log_level
from .errors import DataError, ManifestError
from .manifest import (
    DEFAULT_GROUP_LABELS,
    GroupSet,
    load_manifest,
    summarize,
    write_manifest,
)
from .metrics import (
    fairness_report,
    group_accuracy,
    pareto_frontier,
    read_pairs_csv,
    read_runs_csv,
    runs_to_points,
    write_frontier_csv,
)
from .sampling import (
    equilibrium_step,
    read_diag_series,
    sample_naive,
    sample_protocol,
    sample_random,
    sample_single_group,
    write_evolution,
    write_removal_log,
)
from .scoring import (
    Protocol,
    compute_es,
    compute_ids,
    relabel,
    score_scatter,
    write_es_csv,
    write_ids_csv,
    write_scatter_csv,
)
from .synth import SynthConfig, generate


class _UsageError(Exception):
    """A flag combination argparse cannot express; exit 2 like its own."""


def _emit(payload, out=None):
    text = json.dumps(payload, indent=2)
    if out:
        with atomic_write(out) as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _groups_arg(value):
    try:
        return GroupSet(tuple(label for label in value.split(",") if label))
    except ManifestError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load(args):
    groups = args.groups if getattr(args, "groups", None) else None
    return load_manifest(args.manifest, groups=groups,
                         permissive=getattr(args, "permissive", False))


def _cmd_validate(args):
    manifest = _load(args)
    _emit(
        {
            "images": len(manifest.images),
            "identities": manifest.identity_count,
            "groups": list(manifest.groups.labels),
            "per_group_identities": dict(
                zip(manifest.groups.labels, manifest.group_counts)
            ),
            "rejected_rows": manifest.rejected_rows,
        }
    )
    return 0


def _cmd_summarize(args):
    _emit(summarize(_load(args)), args.out)
    return 0


def _cmd_ids(args):
    manifest = _load(args)
    write_ids_csv(manifest, compute_ids(manifest, Protocol(args.protocol)), args.out)
    return 0


def _cmd_es(args):
    manifest = _load(args)
    es = compute_es(manifest, Protocol(args.protocol))
    if args.format == "json":
        payload = {
            row_label: dict(zip(es.groups, row))
            for row_label, row in zip(es.groups, es.values)
        }
        _emit(payload, args.out)
    else:
        if not args.out:
            raise DataError("--out is required for csv output")
        write_es_csv(es, args.out)
    return 0


def _cmd_relabel(args):
    manifest = _load(args)
    relabelled = relabel(manifest)
    # relabel keeps the identity order, so the group columns line up
    changed = sum(map(ne, manifest._identity_groups, relabelled._identity_groups))
    write_manifest(relabelled, args.out)
    _emit({"identities": manifest.identity_count, "relabelled": changed})
    return 0


def _sample_budget(args, manifest):
    if args.remove is not None:
        return args.remove
    target = args.target_size
    if target < 0:
        raise DataError(f"target size must be non-negative, got {target}")
    if target > manifest.identity_count:
        raise DataError(
            f"target size {target} exceeds the manifest's "
            f"{manifest.identity_count} identities"
        )
    return manifest.identity_count - target


def _cmd_sample(args):
    manifest = _load(args)
    if args.relabel_first:
        manifest = relabel(manifest)
    z = _sample_budget(args, manifest)
    if args.protocol == "random":
        if args.naive:
            raise _UsageError("--naive applies to protocols A, B and C only")
        if args.seed is None:
            raise _UsageError("--protocol random requires --seed")
        subset, trace = sample_random(manifest, z, args.seed)
    else:
        if args.seed is not None:
            raise _UsageError("--seed applies to --protocol random only")
        sampler = sample_naive if args.naive else sample_protocol
        subset, trace = sampler(manifest, Protocol(args.protocol), z)
    return _write_subset(args, subset, trace)


def _cmd_single(args):
    if args.strategy == "rand" and args.seed is None:
        raise _UsageError("--strategy rand requires --seed")
    if args.strategy != "rand" and args.seed is not None:
        raise _UsageError("--seed applies to --strategy rand only")
    manifest = _load(args)
    subset, trace = sample_single_group(
        manifest, args.group, args.strategy, args.keep_fraction, args.seed
    )
    return _write_subset(args, subset, trace)


def _write_subset(args, subset, trace):
    """The tail of ``sample`` and ``single``: the subset, the removal log and
    the evolution file when asked for, then the counts as JSON."""
    write_manifest(subset, args.out)
    if args.log:
        write_removal_log(trace, args.log)
    if getattr(args, "evolution", None):
        write_evolution(trace, args.evolution)
    _emit(
        {
            "removed": len(trace.events),
            "identities": subset.identity_count,
            "images": len(subset.images),
        }
    )
    return 0


def _cmd_metrics(args):
    if args.pairs and not args.mode:
        raise _UsageError("--pairs requires --mode")
    if args.accuracies:
        try:
            values = [float(v) for v in args.accuracies.split(",")]
        except ValueError:
            raise DataError("--accuracies expects a comma-separated float list")
        if args.group_labels:
            labels = args.group_labels.labels
            if len(labels) != len(values):
                raise DataError(
                    f"{len(values)} accuracies but {len(labels)} group labels"
                )
            report = fairness_report(dict(zip(labels, values)))
        else:
            report = fairness_report(values)
    else:
        pairs = read_pairs_csv(args.pairs, args.mode)
        report = fairness_report(group_accuracy(pairs, args.mode))
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_pareto(args):
    labels, rows = read_runs_csv(args.runs)
    points, skipped = runs_to_points(rows, args.bias)
    real_points = [p for p in points if p is not None]
    if not real_points:
        raise DataError("every run was skipped (infinite ser); nothing to rank")
    frontier = pareto_frontier(real_points)
    if args.out:
        write_frontier_csv(labels, rows, points, frontier, args.out)
    _emit(
        {
            "points": len(real_points),
            "skipped": skipped,
            "frontier": [
                {
                    "run_id": p.run_id,
                    "strategy": p.strategy,
                    "size": p.size,
                    "error": p.error,
                    "bias": p.bias,
                }
                for p in frontier
            ],
        }
    )
    return 0


def _cmd_scatter(args):
    manifest = _load(args)
    external = {}
    with read_csv(args.external, DataError) as (header, records):
        if header != ["image_id", "score"]:
            raise DataError(f"{args.external}: expected header image_id,score")
        for lineno, row in records:
            if len(row) != 2:
                raise DataError(f"{args.external}: line {lineno}: malformed row")
            try:
                score = float(row[1])
            except ValueError:
                raise DataError(
                    f"{args.external}: line {lineno}: non-numeric score"
                ) from None
            # statistics.correlation raises on an infinity and gives nan for a nan
            if not math.isfinite(score):
                raise DataError(f"{args.external}: line {lineno}: non-finite score")
            external[row[0]] = score
    result = score_scatter(manifest, external)
    write_scatter_csv(result, args.out)
    _emit({"per_group": result.correlations, "skipped": result.skipped})
    return 0


def _cmd_synth(args):
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise DataError(f"{args.config}: not a JSON file: {exc}") from None
        config = SynthConfig.from_dict(data)
    else:
        if args.seed is None:
            raise _UsageError("synth requires --seed (or --config)")
        groups = args.groups or GroupSet(DEFAULT_GROUP_LABELS)
        config = SynthConfig(
            seed=args.seed,
            groups=groups,
            identities_per_group=_int_list(args.identities_per_group),
            images_per_identity=_int_pair(args.images_per_identity),
            concentration=_float_list(args.concentration),
            label_noise=args.label_noise,
        )
    write_manifest(generate(config), args.out)
    return 0


def _int_list(value):
    try:
        return tuple(int(v) for v in str(value).split(","))
    except ValueError:
        raise DataError(f"expected a comma-separated integer list, got {value!r}")


def _int_pair(value):
    parts = _int_list(value)
    if len(parts) == 1:
        parts = parts * 2
    if len(parts) != 2:
        raise DataError(f"expected MIN,MAX, got {value!r}")
    return parts


def _float_list(value):
    try:
        return tuple(float(v) for v in str(value).split(","))
    except ValueError:
        raise DataError(f"expected a comma-separated float list, got {value!r}")


def _cmd_equilibrium(args):
    _labels, series = read_diag_series(args.trace)
    step = equilibrium_step(series, args.epsilon)
    _emit({"step": step})
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fairbalance",
        description=(
            "Balance identity-labelled image datasets over a continuous "
            "demographic score space."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=handler)
        return p

    def manifest_arg(p):
        p.add_argument("manifest", help="manifest CSV path")
        p.add_argument(
            "--groups",
            type=_groups_arg,
            default=None,
            help="comma-separated group labels (default: inferred from the header)",
        )

    p = command("validate", _cmd_validate, "load a manifest and report its shape")
    manifest_arg(p)
    p.add_argument(
        "--permissive",
        action="store_true",
        help="skip invalid rows instead of failing",
    )

    p = command("summarize", _cmd_summarize, "per-group score distribution summary")
    manifest_arg(p)
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = command("ids", _cmd_ids, "export per-identity score vectors")
    manifest_arg(p)
    p.add_argument("--protocol", required=True, choices=["A", "B", "C"])
    p.add_argument("--out", required=True)

    p = command("es", _cmd_es, "export the group-by-group score matrix")
    manifest_arg(p)
    p.add_argument("--protocol", required=True, choices=["A", "B", "C"])
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="output path (required for csv)")

    p = command("relabel", _cmd_relabel, "reassign identities to their argmax group")
    manifest_arg(p)
    p.add_argument("--out", required=True)

    p = command("sample", _cmd_sample, "greedy or random identity removal")
    manifest_arg(p)
    p.add_argument(
        "--protocol", required=True, choices=["A", "B", "C", "random"]
    )
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--remove", type=int, help="number of identities to remove")
    size.add_argument(
        "--target-size", type=int, help="identity count to end up with"
    )
    p.add_argument("--seed", type=int, help="seed (random protocol only)")
    p.add_argument(
        "--relabel-first",
        action="store_true",
        help="relabel identities before sampling",
    )
    p.add_argument(
        "--naive",
        action="store_true",
        help="use the slow reference implementation",
    )
    p.add_argument("--log", help="write the removal log CSV here")
    p.add_argument("--evolution", help="write the diagonal evolution CSV here")
    p.add_argument("--out", required=True, help="subset manifest path")

    p = command("single", _cmd_single, "shrink one group by score or at random")
    manifest_arg(p)
    p.add_argument("--group", required=True)
    p.add_argument("--strategy", required=True, choices=["min", "max", "rand"])
    p.add_argument("--keep-fraction", required=True, type=float)
    p.add_argument("--seed", type=int, help="seed (rand strategy only)")
    p.add_argument("--log", help="write the removal log CSV here")
    p.add_argument("--out", required=True, help="subset manifest path")

    p = command("metrics", _cmd_metrics, "fairness report from pairs or accuracies")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--pairs", help="verification pairs CSV")
    source.add_argument(
        "--accuracies", help="comma-separated per-group accuracies"
    )
    p.add_argument(
        "--mode",
        choices=["outcomes", "similarity"],
        help="pair interpretation (required with --pairs)",
    )
    p.add_argument(
        "--group-labels",
        type=_groups_arg,
        help="labels for --accuracies values",
    )
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = command("pareto", _cmd_pareto, "non-dominated runs on the error/bias plane")
    p.add_argument("--runs", required=True, help="runs CSV")
    p.add_argument("--bias", required=True, choices=["std", "ser"])
    p.add_argument("--out", help="write the flagged runs CSV here")

    p = command("scatter", _cmd_scatter, "own-group scores against external scores")
    manifest_arg(p)
    p.add_argument("--external", required=True, help="image_id,score CSV")
    p.add_argument("--out", required=True, help="scatter CSV path")

    p = command("synth", _cmd_synth, "generate a synthetic manifest")
    p.add_argument("--config", help="JSON config file (overrides the flags)")
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--groups", type=_groups_arg, default=None,
        help=f"default: {','.join(DEFAULT_GROUP_LABELS)}",
    )
    p.add_argument("--identities-per-group", default="25")
    p.add_argument("--images-per-identity", default="1,4")
    p.add_argument("--concentration", default="4")
    p.add_argument("--label-noise", type=float, default=0.0)
    p.add_argument("--out", required=True)

    p = command(
        "equilibrium", _cmd_equilibrium,
        "first step whose diagonal spread is below epsilon",
    )
    p.add_argument("--trace", required=True, help="removal log or evolution CSV")
    p.add_argument("--epsilon", required=True, type=float)

    return parser


def main(argv=None):
    set_log_level(os.environ.get("FAIRBALANCE_LOG", "warning"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.error(str(exc))
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - last-resort guard, maps to exit 3
        import traceback

        traceback.print_exc()
        print("internal error; this is a bug", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())
