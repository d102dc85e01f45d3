"""End-to-end tests of the command line, driven through main(argv).

Exit code contract: 0 success, 1 bad data or files, 2 usage errors raised
by argparse, 3 internal failures.
"""

import argparse
import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fairbalance.cli import _path_arg, build_parser, main
from fairbalance.manifest import GroupSet, Manifest, load_manifest, write_manifest
from fairbalance.scoring import relabel
from fairbalance.synth import SynthConfig, generate

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def plain_manifest(tmp_path_factory):
    """Ten identities per group over two groups, moderately concentrated."""
    cfg = SynthConfig(
        seed=5,
        groups=GroupSet(("g1", "g2")),
        identities_per_group=(10,),
        images_per_identity=(1, 2),
        concentration=(3.0,),
    )
    path = tmp_path_factory.mktemp("cli") / "plain.csv"
    write_manifest(generate(cfg), path)
    return path


@pytest.fixture(scope="module")
def noisy_manifest(tmp_path_factory):
    """Four groups with mislabelled identities for relabel tests."""
    cfg = SynthConfig(
        seed=9,
        groups=GroupSet(("a", "b", "c", "d")),
        identities_per_group=(8,),
        images_per_identity=(1, 2),
        concentration=(25.0,),
        label_noise=0.25,
    )
    path = tmp_path_factory.mktemp("cli") / "noisy.csv"
    write_manifest(generate(cfg), path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# Each command that reads an input CSV, with a valid file's start for it;
# {bad} is that file.
READERS = pytest.mark.parametrize(
    "argv, text",
    [
        (["validate", "{bad}"],
         "image_id,identity_id,group,score_a,score_b\nimg1,A,a,0.5,0.5\n"),
        (["metrics", "--pairs", "{bad}", "--mode", "similarity"],
         "group,similarity,is_genuine\ng,0.5,1\n"),
        (["pareto", "--runs", "{bad}", "--bias", "std"],
         "run_id,strategy,size,acc_a,acc_b\nr1,A,50%,0.9,0.8\n"),
        (["equilibrium", "--trace", "{bad}", "--epsilon", "0.1"],
         "step,diag_a,diag_b\n0,0.5,0.5\n"),
        (["scatter", "{manifest}", "--external", "{bad}", "--out", "{out}"],
         "image_id,score\n"),
    ],
    ids=["validate", "metrics", "pareto", "equilibrium", "scatter"],
)


def run_reader(capsys, argv, bad, manifest, tmp_path):
    names = {"bad": bad, "manifest": manifest, "out": tmp_path / "o.csv"}
    return run(capsys, *[arg.format(**names) for arg in argv])


class TestExitCodes:
    def test_success_is_zero(self, capsys, plain_manifest):
        code, out, _ = run(capsys, "validate", str(plain_manifest))
        assert code == 0
        payload = json.loads(out)
        assert payload["identities"] == 20
        assert payload["groups"] == ["g1", "g2"]

    def test_missing_file_is_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "absent.csv"))
        assert code == 1
        assert err.startswith("error:")

    def test_bad_data_is_one(self, capsys, plain_manifest, tmp_path):
        code, _, err = run(
            capsys,
            "sample",
            str(plain_manifest),
            "--protocol",
            "A",
            "--remove",
            "50",
            "--out",
            str(tmp_path / "out.csv"),
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "inputs, argv, message",
        [
            (
                ["synth", "--seed", "1", "--identities-per-group", "1,1,1,4",
                 "--images-per-identity", "1"],
                ["sample", "{input}", "--protocol", "random", "--remove", "6",
                 "--seed", "1", "--out", "{out}"],
                "not enough groups can afford an extra removal (need 2, have 1)",
            ),
            (
                ["synth", "--seed", "1", "--groups", "a,b",
                 "--identities-per-group", "0,3"],
                ["single", "{input}", "--group", "a", "--strategy", "min",
                 "--keep-fraction", "0.5", "--out", "{out}"],
                "group 'a' has no identities",
            ),
            (
                "run_id,strategy,size,acc_a,acc_b\n"
                "r1,A,50%,1.0,0.9\nr2,B,50%,0.8,1.0\n",
                ["pareto", "--runs", "{input}", "--bias", "ser", "--out", "{out}"],
                "every run was skipped (infinite ser); nothing to rank",
            ),
        ],
        ids=["random-budget", "empty-group", "perfect-groups"],
    )
    def test_dead_end_in_the_data_is_one(self, capsys, tmp_path, inputs, argv, message):
        """A well-formed input that the command cannot act on: the input is
        made by ``synth`` or is the text given."""
        path, out = tmp_path / "input.csv", tmp_path / "out.csv"
        if isinstance(inputs, str):
            path.write_text(inputs, encoding="utf-8")
        else:
            assert run(capsys, *inputs, "--out", str(path))[0] == 0
        names = {"input": path, "out": out}
        code, _, err = run(capsys, *[a.format(**names) for a in argv])
        assert code == 1
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_usage_error_is_two(self, capsys, plain_manifest, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sample",
                    str(plain_manifest),
                    "--protocol",
                    "A",
                    "--remove",
                    "2",
                    "--seed",
                    "7",
                    "--out",
                    str(tmp_path / "out.csv"),
                ]
            )
        assert exc.value.code == 2

    def test_unknown_command_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @READERS
    def test_non_utf8_file_is_one(
        self, capsys, plain_manifest, tmp_path, argv, text
    ):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(text.encode("utf-8") + b"x\xff,1\n")
        code, _, err = run_reader(capsys, argv, bad, plain_manifest, tmp_path)
        assert code == 1
        assert err.startswith("error:") and "bad.csv: not a UTF-8 text file" in err
        assert "Traceback" not in err

    @READERS
    def test_unreadable_path_is_one(
        self, capsys, plain_manifest, tmp_path, argv, text
    ):
        code, _, err = run_reader(
            capsys, argv, tmp_path / "bad.csv", plain_manifest, tmp_path
        )
        assert code == 1
        assert err.startswith(f"error: cannot read {tmp_path / 'bad.csv'}: ")
        assert len(err.splitlines()) == 1

    @READERS
    def test_field_over_csv_limit_is_one(
        self, capsys, plain_manifest, tmp_path, argv, text
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text(text + '"' + "x" * 200_000 + '",1\n')
        line = text.count("\n") + 1
        code, _, err = run_reader(capsys, argv, bad, plain_manifest, tmp_path)
        assert code == 1
        assert err == (
            f"error: {bad}: line {line}: field larger than field limit (131072)\n"
        )

    def test_internal_error_is_three(self, capsys, monkeypatch, plain_manifest):
        def boom(*args, **kwargs):
            raise RuntimeError("wired to fail")

        monkeypatch.setattr("fairbalance.cli.load_manifest", boom)
        code, _, err = run(capsys, "validate", str(plain_manifest))
        assert code == 3
        assert "internal error; this is a bug" in err

    def test_internal_invariant_is_three(
        self, capsys, monkeypatch, plain_manifest, tmp_path
    ):
        def relabel_dropping_a_group(manifest):
            return Manifest._of_columns(
                manifest.groups,
                manifest._image_ids,
                manifest._row_identity,
                manifest._scores,
                manifest._identity_ids,
                manifest._identity_groups[:-1],
            )

        monkeypatch.setattr("fairbalance.cli.relabel", relabel_dropping_a_group)
        code, _, err = run(
            capsys, "relabel", str(plain_manifest), "--out", str(tmp_path / "o.csv")
        )
        assert code == 3
        assert "InternalInvariantError: manifest columns disagree" in err
        assert "internal error; this is a bug" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("fairbalance ")


class TestValidate:
    def test_permissive_counts_rejects(self, capsys, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text(
            "image_id,identity_id,group,score_g1,score_g2\n"
            "i1,a,g1,0.8,0.2\n"
            "i2,b,g1,0.9,0.9\n",
            encoding="utf-8",
        )
        code, _, _ = run(capsys, "validate", str(path))
        assert code == 1
        payload = run_json(capsys, "validate", str(path), "--permissive")
        assert payload["rejected_rows"] == 1
        assert payload["identities"] == 1

    @pytest.mark.parametrize(
        "row",
        [
            "im\x01g,id\x00x,g1,0.7,0.3",
            "i2\x7f,b,g1,0.7,0.3",
            "i2,b\x9f,g1,0.7,0.3",
            '"i\n2",b,g1,0.7,0.3',
        ],
        ids=["soh-nul", "del", "c1", "newline"],
    )
    def test_control_character_in_id_is_bad_row(self, capsys, tmp_path, row):
        path = tmp_path / "control.csv"
        path.write_text(
            "image_id,identity_id,group,score_g1,score_g2\n"
            "i1,a,g1,0.8,0.2\n" + row + "\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "line 3: control character in image_id or identity_id" in err
        payload = run_json(capsys, "validate", str(path), "--permissive")
        assert payload["rejected_rows"] == 1
        assert payload["images"] == 1

    def test_explicit_groups_must_match(self, capsys, plain_manifest):
        code, _, err = run(
            capsys, "validate", str(plain_manifest), "--groups", "x,y"
        )
        assert code == 1
        assert "error:" in err


class TestSummarize:
    def test_report_to_stdout(self, capsys, plain_manifest):
        payload = run_json(capsys, "summarize", str(plain_manifest))
        assert set(payload) >= {"groups", "images", "identities"}

    def test_report_to_file(self, capsys, plain_manifest, tmp_path):
        out = tmp_path / "summary.json"
        code, stdout, _ = run(
            capsys, "summarize", str(plain_manifest), "--out", str(out)
        )
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text(encoding="utf-8"))


class TestIdsAndEs:
    def test_ids_csv(self, capsys, plain_manifest, tmp_path):
        out = tmp_path / "ids.csv"
        code, _, _ = run(
            capsys, "ids", str(plain_manifest), "--protocol", "A",
            "--out", str(out),
        )
        assert code == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "identity_id,group,ids_g1,ids_g2"

    def test_es_json_to_stdout(self, capsys, plain_manifest):
        payload = run_json(
            capsys, "es", str(plain_manifest), "--protocol", "B",
            "--format", "json",
        )
        assert set(payload) == {"g1", "g2"}
        assert set(payload["g1"]) == {"g1", "g2"}

    def test_es_csv_requires_out(self, capsys, plain_manifest):
        with pytest.raises(SystemExit) as exc:
            main(["es", str(plain_manifest), "--protocol", "A"])
        assert exc.value.code == 2
        assert "--out is required" in capsys.readouterr().err

    def test_es_csv_written(self, capsys, plain_manifest, tmp_path):
        out = tmp_path / "es.csv"
        code, _, _ = run(
            capsys, "es", str(plain_manifest), "--protocol", "A",
            "--out", str(out),
        )
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("group,g1,g2")


class TestRelabel:
    def test_reports_changed_count(self, capsys, noisy_manifest, tmp_path):
        out = tmp_path / "relabelled.csv"
        payload = run_json(
            capsys, "relabel", str(noisy_manifest), "--out", str(out)
        )
        original = load_manifest(noisy_manifest)
        expected = relabel(original)
        assert load_manifest(out) == expected
        changed = sum(
            1
            for key, rec in original.identities.items()
            if expected.identities[key].group != rec.group
        )
        assert payload["relabelled"] == changed
        assert changed > 0


class TestSample:
    def test_greedy_subset_and_traces(self, capsys, plain_manifest, tmp_path):
        out = tmp_path / "subset.csv"
        log = tmp_path / "removals.csv"
        evo = tmp_path / "evolution.csv"
        payload = run_json(
            capsys,
            "sample", str(plain_manifest),
            "--protocol", "C",
            "--remove", "4",
            "--out", str(out),
            "--log", str(log),
            "--evolution", str(evo),
        )
        assert payload["removed"] == 4
        assert payload["identities"] == 16
        assert load_manifest(out).identity_count == 16
        assert log.read_text(encoding="utf-8").startswith("step,")
        assert evo.read_text(encoding="utf-8").startswith("step,")

    def test_target_size_matches_remove(self, capsys, plain_manifest, tmp_path):
        by_remove = tmp_path / "by_remove.csv"
        by_target = tmp_path / "by_target.csv"
        run_json(
            capsys, "sample", str(plain_manifest), "--protocol", "C",
            "--remove", "5", "--out", str(by_remove),
        )
        run_json(
            capsys, "sample", str(plain_manifest), "--protocol", "C",
            "--target-size", "15", "--out", str(by_target),
        )
        assert by_remove.read_bytes() == by_target.read_bytes()

    def test_target_size_above_manifest_fails(
        self, capsys, plain_manifest, tmp_path
    ):
        code, _, err = run(
            capsys, "sample", str(plain_manifest), "--protocol", "C",
            "--target-size", "21", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "exceeds" in err

    def test_negative_target_size_is_one(self, capsys, plain_manifest, tmp_path):
        code, _, err = run(
            capsys, "sample", str(plain_manifest), "--protocol", "A",
            "--target-size", "-1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert err == "error: target size must be non-negative, got -1\n"

    def test_remove_and_target_size_conflict(
        self, capsys, plain_manifest, tmp_path
    ):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sample", str(plain_manifest), "--protocol", "C",
                    "--remove", "2", "--target-size", "18",
                    "--out", str(tmp_path / "x.csv"),
                ]
            )
        assert exc.value.code == 2

    def test_random_requires_seed(self, capsys, plain_manifest, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sample", str(plain_manifest), "--protocol", "random",
                    "--remove", "4", "--out", str(tmp_path / "x.csv"),
                ]
            )
        assert exc.value.code == 2

    def test_random_is_deterministic(self, capsys, plain_manifest, tmp_path):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        for path in (first, second):
            run_json(
                capsys, "sample", str(plain_manifest), "--protocol", "random",
                "--remove", "4", "--seed", "7", "--out", str(path),
            )
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--protocol", "random"], "--protocol random requires --seed"),
            (["--protocol", "A", "--seed", "3"],
             "--seed applies to --protocol random only"),
        ],
        ids=["random-without-seed", "seed-without-random"],
    )
    def test_seed_usage_error_before_the_manifest_is_read(
        self, capsys, tmp_path, flags, message
    ):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sample", str(tmp_path / "missing.csv"), *flags,
                    "--remove", "1", "--out", str(tmp_path / "x.csv"),
                ]
            )
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_relabel_first_composes(self, capsys, noisy_manifest, tmp_path):
        combined = tmp_path / "combined.csv"
        run_json(
            capsys, "sample", str(noisy_manifest), "--protocol", "C",
            "--remove", "5", "--relabel-first", "--out", str(combined),
        )
        relabelled = tmp_path / "relabelled.csv"
        run_json(
            capsys, "relabel", str(noisy_manifest), "--out", str(relabelled)
        )
        two_step = tmp_path / "two_step.csv"
        run_json(
            capsys, "sample", str(relabelled), "--protocol", "C",
            "--remove", "5", "--out", str(two_step),
        )
        assert combined.read_bytes() == two_step.read_bytes()


class TestSingle:
    def test_min_strategy_shrinks_one_group(
        self, capsys, plain_manifest, tmp_path
    ):
        out = tmp_path / "single.csv"
        payload = run_json(
            capsys, "single", str(plain_manifest), "--group", "g1",
            "--strategy", "min", "--keep-fraction", "0.5", "--out", str(out),
        )
        subset = load_manifest(out)
        assert subset.group_counts == (5, 10)
        assert payload["removed"] == 5

    def test_rand_requires_seed(self, capsys, plain_manifest, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "single", str(plain_manifest), "--group", "g1",
                    "--strategy", "rand", "--keep-fraction", "0.5",
                    "--out", str(tmp_path / "x.csv"),
                ]
            )
        assert exc.value.code == 2

    def test_seed_rejected_for_min(self, capsys, plain_manifest, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "single", str(plain_manifest), "--group", "g1",
                    "--strategy", "min", "--keep-fraction", "0.5",
                    "--seed", "3", "--out", str(tmp_path / "x.csv"),
                ]
            )
        assert exc.value.code == 2

    def test_unknown_group_is_one(self, capsys, plain_manifest, tmp_path):
        code, _, err = run(
            capsys, "single", str(plain_manifest), "--group", "nope",
            "--strategy", "min", "--keep-fraction", "0.5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "error:" in err


class TestMetrics:
    def test_accuracies_report(self, capsys):
        payload = run_json(
            capsys, "metrics", "--accuracies", "96.67,94.88,94.22,93.38"
        )
        assert payload["average"] == pytest.approx(94.7875)
        assert payload["std"] == pytest.approx(1.3971, abs=1e-3)
        assert round(payload["ser"], 2) == 1.99

    def test_group_labels_attach(self, capsys):
        payload = run_json(
            capsys, "metrics", "--accuracies", "0.9,0.8",
            "--group-labels", "left,right",
        )
        assert set(payload["per_group"]) == {"left", "right"}

    def test_group_labels_length_mismatch(self, capsys):
        code, _, err = run(
            capsys, "metrics", "--accuracies", "0.9,0.8",
            "--group-labels", "a,b,c",
        )
        assert code == 1
        assert "error:" in err

    def test_pairs_requires_mode(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("group,correct\ng1,1\ng2,0\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--pairs", str(path)])
        assert exc.value.code == 2

    def test_pairs_outcomes(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text(
            "group,correct\n"
            "g1,1\ng1,1\ng1,0\ng1,1\n"
            "g2,1\ng2,0\ng2,0\ng2,1\n",
            encoding="utf-8",
        )
        payload = run_json(
            capsys, "metrics", "--pairs", str(path), "--mode", "outcomes"
        )
        assert payload["per_group"]["g1"] == pytest.approx(75.0)
        assert payload["per_group"]["g2"] == pytest.approx(50.0)

    def test_pairs_and_accuracies_conflict(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "metrics", "--pairs", str(tmp_path / "p.csv"),
                    "--accuracies", "0.9,0.8",
                ]
            )
        assert exc.value.code == 2


class TestPareto:
    @pytest.fixture()
    def runs_csv(self, tmp_path):
        path = tmp_path / "runs.csv"
        # r1 has the lowest error, r2 the lowest spread, r3 loses on both
        path.write_text(
            "run_id,strategy,size,acc_g1,acc_g2\n"
            "r1,A,100,0.96,0.94\n"
            "r2,B,100,0.945,0.945\n"
            "r3,Random,100,0.93,0.90\n",
            encoding="utf-8",
        )
        return path

    def test_frontier_json(self, capsys, runs_csv):
        payload = run_json(capsys, "pareto", "--runs", str(runs_csv),
                           "--bias", "std")
        assert payload["points"] == 3
        assert payload["skipped"] == 0
        ids = {p["run_id"] for p in payload["frontier"]}
        assert ids == {"r1", "r2"}

    def test_flagged_csv(self, capsys, runs_csv, tmp_path):
        out = tmp_path / "flagged.csv"
        run_json(
            capsys, "pareto", "--runs", str(runs_csv), "--bias", "std",
            "--out", str(out),
        )
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].endswith(",on_frontier")
        flags = {line.split(",")[0]: line.rsplit(",", 1)[1] for line in lines[1:]}
        assert flags == {"r1": "true", "r2": "true", "r3": "false"}

    def test_bad_header_is_one(self, capsys, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("nope\n1\n", encoding="utf-8")
        code, _, err = run(capsys, "pareto", "--runs", str(path),
                           "--bias", "std")
        assert code == 1
        assert "error:" in err

    def test_duplicate_acc_column_is_one(self, capsys, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(
            "run_id,strategy,size,acc_a,acc_a,acc_b\n"
            "r1,A,50%,0.9,0.5,0.5\nr2,B,50%,0.7,0.7,0.8\n",
            encoding="utf-8",
        )
        out = tmp_path / "frontier.csv"
        code, _, err = run(capsys, "pareto", "--runs", str(path),
                           "--bias", "std", "--out", str(out))
        assert code == 1
        assert err == f"error: {path}: duplicate columns in header\n"
        assert not out.exists()


class TestScatter:
    def test_joined_output(self, capsys, plain_manifest, tmp_path):
        manifest = load_manifest(plain_manifest)
        external = tmp_path / "external.csv"
        lines = ["image_id,score"]
        for i, img in enumerate(manifest.images):
            lines.append(f"{img.image_id},{0.1 + 0.8 * (i % 7) / 6:.4f}")
        external.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "scatter.csv"
        payload = run_json(
            capsys, "scatter", str(plain_manifest),
            "--external", str(external), "--out", str(out),
        )
        assert payload["skipped"] == 0
        assert set(payload["per_group"]) == {"g1", "g2"}
        assert out.read_text(encoding="utf-8").startswith(
            "image_id,group,own_score,external_score"
        )

    def test_bad_external_header(self, capsys, plain_manifest, tmp_path):
        external = tmp_path / "external.csv"
        external.write_text("id,value\nx,1\n", encoding="utf-8")
        code, _, err = run(
            capsys, "scatter", str(plain_manifest),
            "--external", str(external), "--out", str(tmp_path / "s.csv"),
        )
        assert code == 1
        assert "expected header image_id,score" in err

    @pytest.mark.parametrize("score", ["inf", "-inf", "nan"])
    def test_non_finite_external_score_is_one(
        self, capsys, plain_manifest, tmp_path, score
    ):
        image_id = load_manifest(plain_manifest).images[0].image_id
        external = tmp_path / "external.csv"
        external.write_text(
            f"image_id,score\n{image_id},{score}\n", encoding="utf-8"
        )
        code, _, err = run(
            capsys, "scatter", str(plain_manifest),
            "--external", str(external), "--out", str(tmp_path / "s.csv"),
        )
        assert code == 1
        assert err == f"error: {external}: line 2: non-finite score\n"


@pytest.fixture(scope="module")
def pinned_inputs(tmp_path_factory):
    """Criterion 7's seed-7 synth manifest, external scores for every third
    image and 30 runs, as the inputs of the pinned outputs below."""
    base = tmp_path_factory.mktemp("pinned")
    manifest = base / "synth.csv"
    assert main(["synth", "--seed", "7", "--out", str(manifest)]) == 0
    images = load_manifest(manifest).images
    lines = [f"{img.image_id},{i / 97!r}\n" for i, img in enumerate(images)]
    external = base / "external.csv"
    external.write_text("image_id,score\n" + "".join(lines[::3]), encoding="utf-8")
    runs = base / "runs.csv"
    # accuracies in several spellings, an integer one among them
    runs.write_text(
        "run_id,strategy,size,acc_a,acc_b,acc_c\n"
        + "".join(
            f"r{i},{'ABC'[i % 3]},{100 - i},{0.9 + i / 310!r},"
            f"{'1' if i == 7 else f'{0.85 + (i * 7 % 11) / 100:.3f}'},"
            f"{0.8 + (i * 5 % 13) / 70!r}\n"
            for i in range(30)
        ),
        encoding="utf-8",
    )
    return {"manifest": manifest, "external": external, "runs": runs}


class TestOutputPaths:
    """A file that cannot be written names the path asked for, never the
    temp file, and leaves no temp file behind."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "{manifest}", "--protocol", "A", "--remove", "2",
             "--out", "{target}"],
            ["summarize", "{manifest}", "--out", "{target}"],
        ],
        ids=["manifest-writer", "json-writer"],
    )
    @pytest.mark.parametrize(
        "target, errno_",
        [("missing/out.csv", errno.ENOENT), ("directory", errno.EISDIR)],
        ids=["missing-directory", "directory-target"],
    )
    def test_cannot_write_is_one(
        self, capsys, plain_manifest, tmp_path, argv, target, errno_
    ):
        (tmp_path / "directory").mkdir()
        target = tmp_path / target
        names = {"manifest": plain_manifest, "target": target}
        code, _, err = run(capsys, *[arg.format(**names) for arg in argv])
        assert code == 1
        assert err == f"error: cannot write {target}: {os.strerror(errno_)}\n"
        assert [p.name for p in tmp_path.rglob("*")] == ["directory"]


# a valid command line per command, naming every path it takes; the files
# need not exist, since a usage error stops the command before any is read
PATH_COMMANDS = [
    ["validate", "m.csv"],
    ["summarize", "m.csv", "--out", "o.json"],
    ["ids", "m.csv", "--protocol", "A", "--out", "o.csv"],
    ["es", "m.csv", "--protocol", "A", "--out", "o.csv"],
    ["relabel", "m.csv", "--out", "o.csv"],
    ["sample", "m.csv", "--protocol", "A", "--remove", "1", "--log", "l.csv",
     "--evolution", "e.csv", "--out", "o.csv"],
    ["single", "m.csv", "--group", "g1", "--strategy", "min",
     "--keep-fraction", "0.5", "--log", "l.csv", "--out", "o.csv"],
    ["metrics", "--pairs", "p.csv", "--mode", "outcomes", "--out", "o.json"],
    ["pareto", "--runs", "r.csv", "--bias", "std", "--out", "o.csv"],
    ["scatter", "m.csv", "--external", "x.csv", "--out", "o.csv"],
    ["synth", "--config", "c.json", "--out", "o.csv"],
    ["equilibrium", "--trace", "t.csv", "--epsilon", "0.1"],
]


def empty_path_cases():
    """Each command line above with one of its paths made empty."""
    for argv in PATH_COMMANDS:
        for k, arg in enumerate(argv[1:], 1):
            if "." in arg and not arg[0].isdigit():
                flag = argv[k - 1] if argv[k - 1].startswith("--") else "manifest"
                yield pytest.param(
                    [*argv[:k], "", *argv[k + 1:]], id=f"{argv[0]} {flag}"
                )


class TestEmptyPaths:
    """An empty path names no file: for every path argument of every
    command it is a usage error (exit 2) that writes nothing, not a report
    on stdout, a skipped output or a later data error."""

    @pytest.mark.parametrize("argv", empty_path_cases())
    def test_empty_path_is_a_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "expected a file path, got ''" in err
        assert list(tmp_path.iterdir()) == []

    def test_every_path_argument_is_covered(self):
        parser = build_parser()
        (commands,) = [
            action.choices for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        declared = {
            (name, action.option_strings[0] if action.option_strings else action.dest)
            for name, command in commands.items()
            for action in command._actions
            if action.type is _path_arg
        }
        covered = {tuple(case.id.split(" ")) for case in empty_path_cases()}
        assert covered == declared


class TestOutputModes:
    """Every output gets the mode a plain ``open`` gives under the umask;
    the sidecar of each manifest written stays readable by its owner only."""

    # every command that writes a file, with each of its output flags
    WRITERS = [
        ["synth", "--seed", "3", "--identities-per-group", "4",
         "--images-per-identity", "1,2", "--out", "{out}/synth.csv"],
        ["validate", "{out}/synth.csv"],
        ["summarize", "{out}/synth.csv", "--out", "{out}/summary.json"],
        ["ids", "{out}/synth.csv", "--protocol", "A", "--out", "{out}/ids.csv"],
        ["es", "{out}/synth.csv", "--protocol", "A", "--out", "{out}/es.csv"],
        ["relabel", "{out}/synth.csv", "--out", "{out}/relabelled.csv"],
        ["sample", "{out}/synth.csv", "--protocol", "A", "--remove", "2",
         "--log", "{out}/log.csv", "--evolution", "{out}/evolution.csv",
         "--out", "{out}/subset.csv"],
        ["single", "{out}/synth.csv", "--group", "Asian", "--strategy", "min",
         "--keep-fraction", "0.5", "--log", "{out}/single-log.csv",
         "--out", "{out}/single.csv"],
        ["metrics", "--accuracies", "0.9,0.8", "--out", "{out}/metrics.json"],
        ["pareto", "--runs", "{runs}", "--bias", "std", "--out", "{out}/pareto.csv"],
        ["scatter", "{out}/synth.csv", "--external", "{external}",
         "--out", "{out}/scatter.csv"],
    ]

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_outputs_follow_the_umask(self, capsys, pinned_inputs, tmp_path, umask):
        out = tmp_path / "out"
        out.mkdir()
        names = {**pinned_inputs, "out": out}
        previous = os.umask(umask)
        try:
            for argv in self.WRITERS:
                code, _, err = run(capsys, *[arg.format(**names) for arg in argv])
                assert code == 0, err
        finally:
            os.umask(previous)
        modes = {path.name: path.stat().st_mode & 0o777 for path in out.iterdir()}
        # write_manifest stores a sidecar beside each manifest it writes
        for name in ("synth.csv", "relabelled.csv", "subset.csv", "single.csv"):
            assert modes.pop(f".{name}.fbcache") == 0o600, name
        assert len(modes) == 13
        assert set(modes.values()) == {0o666 & ~umask}, modes


# (id, argv, sha256 of {out}) for every output CSV whose bytes no other test
# pins; {spare} takes any other output of the command
PINNED_OUTPUTS = [
    ("ids-A", ["ids", "{manifest}", "--protocol", "A", "--out", "{out}"],
     "e0c9074ac21de0a230c6ca1e816c3a41b7d28c0c87290e72eec62ed28eba9101"),
    ("ids-B", ["ids", "{manifest}", "--protocol", "B", "--out", "{out}"],
     "287885cd00b2487236576c52f31ee77f7d9601af5953aab6ed5580d894454cc2"),
    ("ids-C", ["ids", "{manifest}", "--protocol", "C", "--out", "{out}"],
     "287885cd00b2487236576c52f31ee77f7d9601af5953aab6ed5580d894454cc2"),
    ("es-A", ["es", "{manifest}", "--protocol", "A", "--out", "{out}"],
     "4a26c037a3db97490b63a0f18fedc6ff3ac3e0f32e0226bb00f7125759a17fb9"),
    ("es-B", ["es", "{manifest}", "--protocol", "B", "--out", "{out}"],
     "a60ad6859ebd90c250140578a5f3e4d536ccecebf47aef5de29fe98bd3934cfd"),
    ("es-C", ["es", "{manifest}", "--protocol", "C", "--out", "{out}"],
     "04a8f90519e98ae450c5a65d5cac34516494703e2e0bae31df91bacdccce6014"),
    ("relabel", ["relabel", "{manifest}", "--out", "{out}"],
     "17429bbd77e8397bc90f8f78ced78b488c428d4ad580f896f6cacd9d3a3152dc"),
    ("sample-A-log",
     ["sample", "{manifest}", "--protocol", "A", "--remove", "40",
      "--log", "{out}", "--out", "{spare}"],
     "150a34b581c4c8682ae4f133e7841f0ca3fa7cb0beacd4b23a0f1f30159f21cb"),
    ("sample-A-evolution",
     ["sample", "{manifest}", "--protocol", "A", "--remove", "40",
      "--evolution", "{out}", "--out", "{spare}"],
     "f228309c4c9bc418d650e48161af33f92e9b3ca025fd0f3637a8d6e984045dbb"),
    ("sample-C-log",
     ["sample", "{manifest}", "--protocol", "C", "--remove", "40",
      "--log", "{out}", "--out", "{spare}"],
     "b7ed82c608393951ecb9f1caf00aed8212504e026d1296a6a6a04406976a1322"),
    ("sample-C-evolution",
     ["sample", "{manifest}", "--protocol", "C", "--remove", "40",
      "--evolution", "{out}", "--out", "{spare}"],
     "fe0625622c904fa4bb601ef3d34bb0740afe7b1558e1e8c52d785473d0e621d6"),
    ("single-log",
     ["single", "{manifest}", "--group", "Asian", "--strategy", "min",
      "--keep-fraction", "0.5", "--log", "{out}", "--out", "{spare}"],
     "643ab74929289b34a9ced10906120a6af1f6295325472a085f431422a75bcf9f"),
    ("scatter",
     ["scatter", "{manifest}", "--external", "{external}", "--out", "{out}"],
     "0f06b691cbf3f657e3caf3f456d23811153ffe5bc510f15b92241e03701c5ab2"),
    ("pareto", ["pareto", "--runs", "{runs}", "--bias", "std", "--out", "{out}"],
     "97e6a3afa06091af6672057d7b7b7e55922f3413d3e62d7111f24d6fc299fb0c"),
]


class TestOutputBytes:
    @pytest.mark.parametrize(
        "argv, digest",
        [case[1:] for case in PINNED_OUTPUTS],
        ids=[case[0] for case in PINNED_OUTPUTS],
    )
    def test_digest(self, capsys, pinned_inputs, tmp_path, argv, digest):
        out = tmp_path / "out.csv"
        names = {**pinned_inputs, "out": out, "spare": tmp_path / "spare.csv"}
        code, _, err = run(capsys, *[arg.format(**names) for arg in argv])
        assert code == 0, err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestSynthCommand:
    def test_seed_runs_are_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        for path in (first, second):
            code, _, _ = run(
                capsys, "synth", "--seed", "7", "--out", str(path)
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_defaults_give_hundred_identities(self, capsys, tmp_path):
        out = tmp_path / "default.csv"
        run(capsys, "synth", "--seed", "1", "--out", str(out))
        manifest = load_manifest(out)
        assert manifest.identity_count == 100
        assert manifest.groups.labels == (
            "African", "Asian", "Caucasian", "Indian",
        )

    def test_seed_or_config_required(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_config_file_drives_generation(self, capsys, tmp_path):
        config = {
            "seed": 21,
            "groups": ["g1", "g2", "g3"],
            "identities_per_group": 4,
            "images_per_identity": [1, 2],
            "concentration": 2.0,
            "label_noise": 0.1,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "from_config.csv"
        code, _, _ = run(
            capsys, "synth", "--config", str(config_path), "--out", str(out)
        )
        assert code == 0
        expected = tmp_path / "expected.csv"
        write_manifest(generate(SynthConfig.from_dict(config)), expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_config_overrides_flags(self, capsys, tmp_path):
        config = {
            "seed": 21,
            "groups": ["g1", "g2"],
            "identities_per_group": 3,
            "images_per_identity": [1, 1],
            "concentration": 1.0,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "merged.csv"
        run(
            capsys, "synth", "--config", str(config_path),
            "--seed", "999", "--out", str(out),
        )
        baseline = tmp_path / "baseline.csv"
        run(capsys, "synth", "--config", str(config_path), "--out", str(baseline))
        assert out.read_bytes() == baseline.read_bytes()

    def test_bad_config_field_is_one(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"seed": 1, "groups": ["a", "b"], "bogus": 1}),
            encoding="utf-8",
        )
        code, _, err = run(
            capsys, "synth", "--config", str(config_path),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("{bad", "not a JSON file"),
            ("1", "must be a JSON object"),
            ("null", "must be a JSON object"),
            ('"s"', "must be a JSON object"),
            ("[1,2]", "must be a JSON object"),
            ('{"seed": 1, "groups": "ab", "identities_per_group": 3, '
             '"images_per_identity": [1, 1], "concentration": 1}',
             "groups must be a list"),
            ('{"seed": 1, "groups": ["a", "b"], "identities_per_group": 3, '
             '"images_per_identity": 3, "concentration": 1}',
             "bad config value"),
            ('{"seed": 1, "groups": ["a", "b"], "identities_per_group": 3, '
             '"images_per_identity": [1, 1], "concentration": null}',
             "bad config value"),
            ('{"seed": true, "groups": ["a", "b"], "identities_per_group": 3, '
             '"images_per_identity": [1, 1], "concentration": 1}',
             "seed must be an integer"),
            ('{"seed": -1, "groups": ["a", "b"], "identities_per_group": 3, '
             '"images_per_identity": [1, 1], "concentration": 1}',
             "seed must be an integer in [0, 2**64)"),
            ('{"seed": 18446744073709551616, "groups": ["a", "b"], '
             '"identities_per_group": 3, "images_per_identity": [1, 1], '
             '"concentration": 1}',
             "seed must be an integer in [0, 2**64)"),
            ('{"seed": 1, "groups": ["a", "b"], "identities_per_group": [3, true], '
             '"images_per_identity": [1, 1], "concentration": 1}',
             "identity counts must be non-negative integers"),
            ('{"seed": 1, "groups": ["a", "b"], "identities_per_group": 3, '
             '"images_per_identity": [true, true], "concentration": 1}',
             "images_per_identity must be an integer"),
            ('{"seed": 1, "groups": ["a", "b"], "identities_per_group": 3, '
             '"images_per_identity": [1, 1], "concentration": true}',
             "concentration values must be numbers"),
            ('{"seed": 1, "groups": ["a", "b"], "identities_per_group": 3, '
             '"images_per_identity": [1, 1], "concentration": "2"}',
             "concentration values must be numbers"),
            ('{"seed": 1, "groups": ["a", "b"], "identities_per_group": 3, '
             '"images_per_identity": [1, 1], "concentration": 1, '
             '"label_noise": false}',
             "label_noise must be in [0, 1)"),
        ],
    )
    def test_bad_config_is_one_line_error(self, capsys, tmp_path, text, problem):
        config_path = tmp_path / "config.json"
        config_path.write_text(text, encoding="utf-8")
        code, _, err = run(
            capsys, "synth", "--config", str(config_path),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert err.startswith("error:") and problem in err
        assert len(err.strip().splitlines()) == 1


class TestSeedRange:
    """A seed is a SplitMix64 state, an integer in [0, 2**64): a ``--seed``
    flag outside that range is a usage error, never reduced modulo 2**64."""

    SEEDED = {
        "synth": ["synth", "--out", "{out}"],
        "sample": ["sample", "{manifest}", "--protocol", "random", "--remove", "2",
                   "--out", "{out}"],
        "single": ["single", "{manifest}", "--group", "g1", "--strategy", "rand",
                   "--keep-fraction", "0.5", "--out", "{out}"],
    }

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64), str(1 << 70)])
    @pytest.mark.parametrize("command", SEEDED)
    def test_out_of_range_seed_exits_two(
        self, capsys, plain_manifest, tmp_path, command, seed
    ):
        out = tmp_path / "out.csv"
        argv = [a.format(manifest=plain_manifest, out=out) for a in self.SEEDED[command]]
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--seed={seed}"])
        assert exc.value.code == 2
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", SEEDED)
    def test_range_ends_are_accepted(self, capsys, plain_manifest, tmp_path, command):
        for seed in ("0", str((1 << 64) - 1)):
            out = tmp_path / f"{seed}.csv"
            argv = [a.format(manifest=plain_manifest, out=out)
                    for a in self.SEEDED[command]]
            code, _, err = run(capsys, *argv, f"--seed={seed}")
            assert code == 0, err


class TestFlagContract:
    """Flag text that is not a number, in a list or not, is a usage error
    (exit 2) caught before any file is read or written; a well-formed value
    the data rejects is exit 1."""

    COMMANDS = {
        "remove": ["sample", "{manifest}", "--protocol", "A", "--out", "{out}"],
        "target-size": ["sample", "{manifest}", "--protocol", "A",
                        "--out", "{out}"],
        "seed": ["synth", "--out", "{out}"],
        "keep-fraction": ["single", "{manifest}", "--group", "g1",
                          "--strategy", "min", "--out", "{out}"],
        "epsilon": ["equilibrium", "--trace", "{manifest}"],
        "label-noise": ["synth", "--seed", "1", "--out", "{out}"],
        "identities-per-group": ["synth", "--seed", "1", "--out", "{out}"],
        "images-per-identity": ["synth", "--seed", "1", "--out", "{out}"],
        "concentration": ["synth", "--seed", "1", "--out", "{out}"],
        "accuracies": ["metrics", "--out", "{out}"],
    }

    def argv(self, flag, value, manifest, out):
        names = {"manifest": manifest, "out": out}
        return [a.format(**names) for a in self.COMMANDS[flag]] + [
            f"--{flag}", value
        ]

    @pytest.mark.parametrize("flag", COMMANDS)
    def test_non_number_exits_two(self, capsys, plain_manifest, tmp_path, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(self.argv(flag, "x", plain_manifest, out))
        assert exc.value.code == 2
        assert f"argument --{flag}:" in capsys.readouterr().err
        assert not out.exists()

    def test_one_image_count_means_min_and_max(self, capsys, plain_manifest, tmp_path):
        outputs = []
        for value in ("3", "3,3"):
            out = tmp_path / f"{value}.csv"
            code, _, err = run(
                capsys, *self.argv("images-per-identity", value, plain_manifest, out)
            )
            assert code == 0, err
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "flag, value, problem",
        [
            ("identities-per-group", "-1", "non-negative integers"),
            ("images-per-identity", "3,1", "1 <= min <= max"),
            ("images-per-identity", "1,2,3", "integer (min, max)"),
            ("accuracies", "0.9", "at least two groups"),
        ],
    )
    def test_rejected_number_exits_one(
        self, capsys, plain_manifest, tmp_path, flag, value, problem
    ):
        out = tmp_path / "out"
        code, _, err = run(capsys, *self.argv(flag, value, plain_manifest, out))
        assert code == 1
        assert err.startswith("error:") and problem in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["--accuracies", "0.9,0.8", "--mode", "outcomes"],
             "--mode applies to --pairs only"),
            (["--pairs", "{pairs}", "--mode", "similarity", "--group-labels", "a,b"],
             "--group-labels applies to --accuracies only"),
        ],
    )
    def test_metrics_flag_its_source_cannot_use_exits_two(
        self, capsys, tmp_path, argv, problem
    ):
        # the pairs file does not exist: reading it would exit 1
        pairs, out = tmp_path / "pairs.csv", tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["metrics", *[a.format(pairs=pairs) for a in argv], "--out", str(out)])
        assert exc.value.code == 2
        assert f"error: {problem}\n" in capsys.readouterr().err
        assert not out.exists()


class TestOneFileForTwoOutputs:
    """Two output flags of ``sample`` or ``single`` that name one file, however
    spelled, are a usage error found before any file is read: the later
    write would replace the earlier one."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "{manifest}", "--protocol", "random", "--remove", "3",
             "--seed", "1", "--out", "{first}", "--log", "{second}"],
            ["sample", "{manifest}", "--protocol", "A", "--remove", "3",
             "--out", "{first}", "--evolution", "{second}"],
            ["sample", "{manifest}", "--protocol", "A", "--remove", "3",
             "--log", "{first}", "--evolution", "{second}", "--out", "{other}"],
            ["single", "{manifest}", "--group", "g1", "--strategy", "min",
             "--keep-fraction", "0.5", "--log", "{first}", "--out", "{second}"],
        ],
        ids=["sample-out-log", "sample-out-evolution", "sample-log-evolution",
             "single-log-out"],
    )
    @pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
    def test_exits_two_before_reading(
        self, capsys, monkeypatch, plain_manifest, tmp_path, argv, spelling
    ):
        first = tmp_path / "x.csv"
        second = {
            "same": first,
            "dotted": tmp_path / "." / "sub" / ".." / "x.csv",
            "symlink": tmp_path / "link.csv",
        }[spelling]
        (tmp_path / "sub").mkdir()
        if spelling == "symlink":
            second.symlink_to(first)

        def refuse(*_args, **_kwargs):
            raise AssertionError("read a file")

        monkeypatch.setattr("fairbalance.cli.load_manifest", refuse)
        names = {"manifest": plain_manifest, "first": first, "second": second,
                 "other": tmp_path / "other.csv"}
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**names) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "name the same file" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["sub"] + (["link.csv"] if spelling == "symlink" else [])
        )

    def test_distinct_outputs_still_run(self, capsys, plain_manifest, tmp_path):
        code, _, err = run(
            capsys, "sample", str(plain_manifest), "--protocol", "A", "--remove",
            "2", "--out", str(tmp_path / "s.csv"), "--log", str(tmp_path / "l.csv"),
            "--evolution", str(tmp_path / "e.csv"),
        )
        assert code == 0, err


class TestDuplicateGroupFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--seed", "1", "--groups", "a,a", "--out", "x.csv"],
            ["validate", "m.csv", "--groups", "a,a"],
            ["metrics", "--accuracies", "0.9,0.8", "--group-labels", "a,a"],
        ],
    )
    def test_usage_error_without_traceback(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "group labels must be distinct" in err
        assert "Traceback" not in err


class TestEquilibrium:
    def test_reads_both_trace_kinds(self, capsys, plain_manifest, tmp_path):
        out = tmp_path / "subset.csv"
        log = tmp_path / "log.csv"
        evo = tmp_path / "evolution.csv"
        run_json(
            capsys, "sample", str(plain_manifest), "--protocol", "C",
            "--remove", "6", "--out", str(out),
            "--log", str(log), "--evolution", str(evo),
        )
        from_log = run_json(
            capsys, "equilibrium", "--trace", str(log), "--epsilon", "5.0"
        )
        from_evo = run_json(
            capsys, "equilibrium", "--trace", str(evo), "--epsilon", "5.0"
        )
        assert from_log["step"] == from_evo["step"]
        assert from_log["step"] is not None

    def test_unreachable_epsilon_reports_null(
        self, capsys, plain_manifest, tmp_path
    ):
        log = tmp_path / "log.csv"
        run_json(
            capsys, "sample", str(plain_manifest), "--protocol", "C",
            "--remove", "2", "--out", str(tmp_path / "s.csv"),
            "--log", str(log),
        )
        payload = run_json(
            capsys, "equilibrium", "--trace", str(log), "--epsilon", "1e-12"
        )
        assert payload["step"] is None


    @pytest.mark.parametrize("row", ["1,0.4", "1,0.4,x", "1.5,0.4,0.3"])
    def test_bad_trace_row_is_one(self, capsys, tmp_path, row):
        trace = tmp_path / "evo.csv"
        trace.write_text(f"step,diag_a,diag_b\n0,0.5,0.5\n{row}\n")
        code, _, err = run(
            capsys, "equilibrium", "--trace", str(trace), "--epsilon", "0.1"
        )
        assert code == 1
        assert err.startswith("error:") and "evo.csv: line 3:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "before", ["foo,bar", "diag_x_before,diag_b_before", "diag_b_before,diag_a_before"]
    )
    def test_log_needs_a_matching_before_half(self, capsys, tmp_path, before):
        trace = tmp_path / "log.csv"
        trace.write_text(
            f"step,identity_id,group,own_group_ids,{before},diag_a_after,diag_b_after\n"
            "1,x,a,0.5,0.5,0.5,0.6,0.6\n"
        )
        code, _, err = run(
            capsys, "equilibrium", "--trace", str(trace), "--epsilon", "0.1"
        )
        assert code == 1
        assert "not a removal log or evolution file" in err
        assert "Traceback" not in err


class TestModuleInvocation:
    def test_python_dash_m_works(self, plain_manifest, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "fairbalance", "validate",
             str(plain_manifest)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["identities"] == 20


class TestLogging:
    """Warnings reach stderr as ``WARNING:<logger>:<message>`` at the
    FAIRBALANCE_LOG level, and a run without one never imports logging."""

    def run_python(self, *argv, **env):
        return subprocess.run(
            [sys.executable, *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC, **env),
        )

    @pytest.mark.parametrize(
        "level, lines",
        [
            (None, 1), ("debug", 1), ("warning", 1), ("error", 0), ("critical", 0),
            ("bogus", 1), ("basic_format", 1),
        ],
    )
    def test_permissive_warning_on_stderr(self, tmp_path, level, lines):
        path = tmp_path / "partial.csv"
        path.write_text(
            "image_id,identity_id,group,score_g1,score_g2\n"
            "i1,a,g1,0.8,0.2\n"
            "i2,b,g1,0.9,0.9\n",
            encoding="utf-8",
        )
        env = {} if level is None else {"FAIRBALANCE_LOG": level}
        result = self.run_python(
            "-m", "fairbalance", "validate", "--permissive", str(path), **env
        )
        assert result.returncode == 0
        warning = f"WARNING:fairbalance.manifest:{path}: skipped 1 invalid row(s)\n"
        assert result.stderr == warning * lines

    def test_import_loads_neither_logging_nor_statistics(self):
        result = self.run_python(
            "-c",
            "import sys, fairbalance.cli; "
            "print(sorted({'logging', 'statistics', 'fairbalance._sidecar', "
            "'hashlib'} & set(sys.modules)))",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_startup_loads_neither_dataclasses_nor_inspect(self):
        result = self.run_python(
            "-c",
            "import sys, fairbalance.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"
        # -X importtime names every module the real entry point imports
        result = self.run_python("-X", "importtime", "-m", "fairbalance", "--version")
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("fairbalance ")
        imported = {
            line.rpartition("|")[2].strip()
            for line in result.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "fairbalance.cli" in imported
        assert not {"dataclasses", "inspect"} & imported

    def test_loads_through_the_sidecar_never_import_hashlib(self, plain_manifest):
        # the first load writes the sidecar, the second reads it
        result = self.run_python(
            "-c",
            "import sys; from fairbalance.cli import main; "
            f"main(['validate', {str(plain_manifest)!r}]); "
            f"main(['validate', {str(plain_manifest)!r}]); "
            "print(sorted({'fairbalance._sidecar', 'hashlib'} & set(sys.modules)))",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "['fairbalance._sidecar']"
