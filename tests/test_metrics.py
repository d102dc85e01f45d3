"""Accuracy, fairness aggregates, and Pareto frontier behavior."""

import csv
import json
import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairbalance import (
    MetricsError,
    PairRecord,
    RunPoint,
    fairness_report,
    group_accuracy,
    pareto_frontier,
    read_pairs_csv,
    read_runs_csv,
    runs_to_points,
    write_frontier_csv,
)
from fairbalance.metrics import _best_threshold_accuracy

from _oracles import (
    best_threshold_accuracy_oracle,
    dominates,
    pareto_oracle,
    threshold_sweep_oracle,
)

FIXTURE = "tests/fixtures/reported_metrics.json"


# similarities for one side of a group: a small pool makes ties across the
# sides likely, and signed zeros compare equal but differ in their bits
def similarity_sides(allow_infinity=True):
    return st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, 0.25, 0.5, 1.0]),
            st.floats(allow_nan=False, allow_infinity=allow_infinity),
        ),
        min_size=1,
        max_size=40,
    )


similarity_side = similarity_sides()
# pair files hold finite similarities only
finite_side = similarity_sides(allow_infinity=False)


def outcome_pairs(spec):
    """spec: {group: (correct, total)} -> list of PairRecord."""
    pairs = []
    for group, (correct, total) in spec.items():
        for k in range(total):
            pairs.append(PairRecord(group=group, correct=k < correct))
    return pairs


class TestGroupAccuracy:
    def test_outcomes_fraction(self):
        accs = group_accuracy(outcome_pairs({"a": (3, 4), "b": (1, 2)}), "outcomes")
        assert accs == {"a": 0.75, "b": 0.5}

    def test_groups_keep_first_appearance_order(self):
        pairs = [
            PairRecord("z", correct=True),
            PairRecord("a", correct=False),
            PairRecord("z", correct=True),
        ]
        assert list(group_accuracy(pairs, "outcomes")) == ["z", "a"]

    def test_separable_similarities_reach_one(self):
        pairs = [
            PairRecord("g", similarity=0.9, is_genuine=True),
            PairRecord("g", similarity=0.8, is_genuine=True),
            PairRecord("g", similarity=0.2, is_genuine=False),
            PairRecord("g", similarity=0.3, is_genuine=False),
        ]
        assert group_accuracy(pairs, "similarity") == {"g": 1.0}

    def test_similarity_matches_brute_force_sweep(self):
        rng = random.Random(77)
        for trial in range(30):
            genuine = [rng.gauss(0.6, 0.2) for _ in range(rng.randint(1, 100))]
            impostor = [rng.gauss(0.4, 0.2) for _ in range(rng.randint(1, 100))]
            pairs = [
                PairRecord("g", similarity=s, is_genuine=True) for s in genuine
            ] + [
                PairRecord("g", similarity=s, is_genuine=False) for s in impostor
            ]
            got = group_accuracy(pairs, "similarity")["g"]
            assert got == best_threshold_accuracy_oracle(genuine, impostor)

    def test_similarity_with_heavy_ties(self):
        genuine = [0.5, 0.5, 0.7]
        impostor = [0.5, 0.3]
        pairs = [
            PairRecord("g", similarity=s, is_genuine=True) for s in genuine
        ] + [PairRecord("g", similarity=s, is_genuine=False) for s in impostor]
        got = group_accuracy(pairs, "similarity")["g"]
        assert got == best_threshold_accuracy_oracle(genuine, impostor) == 0.8

    def test_monotone_transform_invariance(self):
        rng = random.Random(3)
        sims = [(rng.random(), rng.random() < 0.5) for _ in range(60)]
        sims.append((0.99, True))
        sims.append((0.01, False))
        base = [PairRecord("g", similarity=s, is_genuine=g) for s, g in sims]
        warped = [
            PairRecord("g", similarity=math.exp(5 * s), is_genuine=g)
            for s, g in sims
        ]
        assert group_accuracy(base, "similarity") == group_accuracy(
            warped, "similarity"
        )

    @settings(max_examples=300, deadline=None)
    @given(similarity_side, similarity_side)
    @example([0.5, 0.5], [0.5])
    @example([0.0, -0.0], [-0.0, 0.0, 0.0])
    @example([-0.0], [0.0])
    @example([1.0], [0.25, 0.25, 1.0, 2.0, 2.0])
    def test_sweep_matches_tuple_sort_oracle(self, genuine, impostor):
        got = _best_threshold_accuracy(genuine, impostor)
        assert got.hex() == threshold_sweep_oracle(genuine, impostor).hex()

    def test_error_names_first_group_in_appearance_order(self):
        pairs = [
            PairRecord("x", similarity=0.5, is_genuine=True),
            PairRecord("y", similarity=0.5, is_genuine=None),
            PairRecord("x", similarity=0.4, is_genuine=True),
        ]
        with pytest.raises(MetricsError, match="group 'x': similarity mode"):
            group_accuracy(pairs, "similarity")
        pairs = [
            PairRecord("x", correct=True),
            PairRecord("y", correct=None),
            PairRecord("x", correct=None),
        ]
        with pytest.raises(MetricsError, match="group 'x': pair without"):
            group_accuracy(pairs, "outcomes")

    def test_non_finite_similarity_is_error(self):
        for bad in (math.nan, math.inf, -math.inf):
            pairs = [
                PairRecord("x", similarity=0.5, is_genuine=True),
                PairRecord("x", similarity=0.4, is_genuine=False),
                PairRecord("y", similarity=0.5, is_genuine=True),
                PairRecord("y", similarity=bad, is_genuine=False),
            ]
            with pytest.raises(MetricsError, match="group 'y': non-finite"):
                group_accuracy(pairs, "similarity")

    def test_single_class_group_is_error(self):
        pairs = [PairRecord("g", similarity=0.5, is_genuine=True)]
        with pytest.raises(MetricsError, match="both genuine"):
            group_accuracy(pairs, "similarity")

    def test_mode_validation(self):
        with pytest.raises(MetricsError, match="unknown mode"):
            group_accuracy([], "roc")
        with pytest.raises(MetricsError, match="no pairs"):
            group_accuracy([], "outcomes")
        with pytest.raises(MetricsError, match="without a verdict"):
            group_accuracy([PairRecord("g", similarity=0.5)], "outcomes")


class TestFairnessReport:
    def test_full_set_reference_row(self):
        report = fairness_report(
            {"Caucasian": 96.67, "Indian": 94.88, "Asian": 94.22, "African": 93.38}
        )
        d = report.to_dict()
        assert d["average"] == pytest.approx(94.79, abs=0.005)
        assert d["std"] == pytest.approx(1.39, abs=0.01)
        assert d["ser"] == pytest.approx(1.99, abs=0.01)

    def test_equal_accuracies(self):
        report = fairness_report([0.9, 0.9, 0.9])
        assert report.average == pytest.approx(0.9)
        assert report.std == 0.0
        assert report.ser == 1.0

    def test_percent_autodetection(self):
        as_percent = fairness_report([94.0, 96.0])
        as_fraction = fairness_report([0.94, 0.96])
        assert as_percent.per_group == as_fraction.per_group
        assert as_percent.std == as_fraction.std

    def test_sequence_gets_positional_labels(self):
        report = fairness_report([0.9, 0.8])
        assert list(report.per_group) == ["g1", "g2"]

    def test_perfect_group_flags_infinite_ser(self):
        report = fairness_report([1.0, 0.9])
        assert report.ser == math.inf
        assert "infinite_ser" in report.flags

    def test_std_is_bessel_on_percent_scale(self):
        # population std of these percents is 1.0; the sample std is larger
        report = fairness_report([0.93, 0.95])
        assert report.std == pytest.approx(math.sqrt(2))

    def test_std_translation_invariant_ser_not(self):
        base = fairness_report([0.90, 0.94])
        shifted = fairness_report([0.92, 0.96])
        assert base.std == pytest.approx(shifted.std)
        assert base.ser != shifted.ser

    def test_permutation_invariance(self):
        a = fairness_report([0.91, 0.96, 0.93])
        b = fairness_report([0.93, 0.91, 0.96])
        assert a.std == pytest.approx(b.std)
        assert a.ser == b.ser
        assert a.average == pytest.approx(b.average)

    def test_input_validation(self):
        with pytest.raises(MetricsError, match="at least two"):
            fairness_report([0.9])
        with pytest.raises(MetricsError, match="finite"):
            fairness_report([0.9, math.nan])
        with pytest.raises(MetricsError, match="finite"):
            fairness_report([0.9, -0.1])
        with pytest.raises(MetricsError, match="above 100"):
            fairness_report([150.0, 90.0])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 0.999), min_size=2, max_size=8))
    def test_ser_at_least_one(self, values):
        report = fairness_report(values)
        assert report.ser >= 1.0
        if max(values) == min(values):
            assert report.ser == 1.0
        elif max(values) - min(values) > 1e-12:
            # gaps below float resolution near 1.0 can vanish inside 1 - acc
            assert report.ser > 1.0


class TestParetoFrontier:
    def point(self, error, bias, run_id="r"):
        return RunPoint(run_id, "s", "28k", error, bias)

    def test_reference_example(self):
        pts = [
            self.point(0.04, 1.2, "p1"),
            self.point(0.05, 1.0, "p2"),
            self.point(0.06, 0.9, "p3"),
            self.point(0.06, 1.3, "p4"),
        ]
        frontier = pareto_frontier(pts)
        assert [p.run_id for p in frontier] == ["p1", "p2", "p3"]

    def test_single_point(self):
        p = self.point(0.1, 1.0)
        assert pareto_frontier([p]) == [p]

    def test_duplicates_survive_together(self):
        p1 = self.point(0.05, 1.0, "a")
        p2 = self.point(0.05, 1.0, "b")
        frontier = pareto_frontier([p1, p2])
        assert [p.run_id for p in frontier] == ["a", "b"]

    def test_matches_all_pairs_oracle(self):
        rng = random.Random(2024)
        for trial in range(200):
            n = rng.randint(1, 50)
            pts = [
                self.point(
                    round(rng.uniform(0.01, 0.2), rng.choice((2, 3))),
                    round(rng.uniform(0.5, 2.5), rng.choice((1, 2))),
                    f"r{k}",
                )
                for k in range(n)
            ]
            assert pareto_frontier(pts) == pareto_oracle(pts)

    def test_output_mutually_non_dominating_and_covering(self):
        rng = random.Random(7)
        pts = [
            self.point(rng.uniform(0, 1), rng.uniform(0, 2), f"r{k}")
            for k in range(120)
        ]
        frontier = pareto_frontier(pts)
        for p in frontier:
            assert not any(dominates(q, p) for q in frontier)
        excluded = [p for p in pts if p not in frontier]
        for p in excluded:
            assert any(dominates(q, p) for q in frontier)

    def test_empty_is_error(self):
        with pytest.raises(MetricsError, match="no points"):
            pareto_frontier([])


class TestCsvInterfaces:
    def test_pairs_outcomes_round_trip(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("group,correct\ngroup a,1\ngroup a,0\nb,1\n")
        pairs = read_pairs_csv(str(path), "outcomes")
        assert group_accuracy(pairs, "outcomes") == {"group a": 0.5, "b": 1.0}
        # one label string per group, not one copy per row
        assert pairs[0].group is pairs[1].group

    def test_pairs_similarity_round_trip(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text(
            "group,similarity,is_genuine\ng,0.9,1\ng,0.2,0\n"
        )
        pairs = read_pairs_csv(str(path), "similarity")
        assert pairs[0].similarity == 0.9
        assert pairs[0].is_genuine is True
        assert pairs[-1] == PairRecord("g", similarity=0.2, is_genuine=False)
        assert pairs[:1] == [pairs[0]]
        # read in the other mode, every pair lacks its verdict
        with pytest.raises(MetricsError, match="'g': pair without a verdict"):
            group_accuracy(pairs, "outcomes")

    @pytest.mark.parametrize("mode", ["similarity", "outcomes"])
    @settings(max_examples=150, deadline=None)
    @given(
        sides=st.lists(
            st.tuples(finite_side, finite_side), min_size=1, max_size=3
        ),
        seed=st.integers(0, 2**16),
    )
    @example(sides=[([0.5, 0.5], [0.5])], seed=0)
    @example(
        sides=[([0.0, -0.0], [-0.0, 0.0, 0.0]), ([1.0], [0.25, 0.25, 1.0, 2.0])],
        seed=1,
    )
    def test_read_then_score_matches_oracle(self, mode, sides, seed):
        """Rows of up to three groups, shuffled so the groups interleave;
        labels that need CSV quoting; values written as their repr."""
        labels = ["g0", "g 1", "g,2"]
        rows = [
            (labels[g], value, flag)
            for g, (genuine, impostor) in enumerate(sides)
            for flag, values in ((1, genuine), (0, impostor))
            for value in values
        ]
        random.Random(seed).shuffle(rows)
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "pairs.csv"
            with open(path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                if mode == "similarity":
                    writer.writerow(["group", "similarity", "is_genuine"])
                    writer.writerows(
                        (label, repr(value), flag) for label, value, flag in rows
                    )
                else:
                    writer.writerow(["group", "correct"])
                    writer.writerows((label, flag) for label, _, flag in rows)
            pairs = read_pairs_csv(str(path), mode)
            got = group_accuracy(pairs, mode)

        if mode == "similarity":
            expected_records = [
                PairRecord(label, similarity=value, is_genuine=bool(flag))
                for label, value, flag in rows
            ]
            assert [p.similarity.hex() for p in pairs] == [
                value.hex() for _, value, _ in rows
            ]
        else:
            expected_records = [
                PairRecord(label, correct=bool(flag)) for label, _, flag in rows
            ]
        assert list(pairs) == expected_records

        expected = {}
        for label, _, _ in rows:  # groups in first-appearance order
            genuine, impostor = sides[labels.index(label)]
            if mode == "similarity":
                expected[label] = threshold_sweep_oracle(genuine, impostor)
            else:
                expected[label] = len(genuine) / (len(genuine) + len(impostor))
        assert list(got) == list(expected)
        assert {k: v.hex() for k, v in got.items()} == {
            k: v.hex() for k, v in expected.items()
        }

    def test_read_and_score_memory_per_pair(self, tmp_path):
        """Allocation peak of reading and scoring 20k similarity pairs in four
        interleaved groups. The columns take 13 bytes a pair, the split into
        per-group arrays 8 more, and the sweep's float lists exist for one
        group at a time. One record per pair peaks near 110 bytes a pair,
        float lists for every group at once near 50."""
        n = 20_000
        rng = random.Random(9)
        path = tmp_path / "pairs.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("group,similarity,is_genuine\n")
            for k in range(n):
                genuine = rng.random() < 0.5
                score = rng.gauss(0.6 if genuine else 0.3, 0.1)
                handle.write(f"g{k % 4},{score:.4f},{int(genuine)}\n")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            accs = group_accuracy(read_pairs_csv(str(path), "similarity"), "similarity")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(accs) == 4
        assert peak / n < 40, f"{peak / n:.1f} bytes per pair"

    def test_pairs_header_and_flag_validation(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("group,similarity,is_genuine\ng,0.9,1\n")
        with pytest.raises(MetricsError, match="expected header"):
            read_pairs_csv(str(path), "outcomes")
        path.write_text("group,correct\ng,yes\n")
        with pytest.raises(MetricsError, match="malformed value"):
            read_pairs_csv(str(path), "outcomes")
        # errors name the line a record starts on, past a quoted newline
        path.write_text('group,correct\n"a\nb",1\nx,2\n')
        with pytest.raises(MetricsError, match="line 4: malformed value"):
            read_pairs_csv(str(path), "outcomes")

    def test_runs_round_trip_and_frontier_csv(self, tmp_path):
        runs = tmp_path / "runs.csv"
        runs.write_text(
            "run_id,strategy,size,acc_x,acc_y\n"
            "r1,A,27k,96.0,94.0\n"
            "r2,Random,27k,95.0,93.0\n"
        )
        labels, rows = read_runs_csv(str(runs))
        assert labels == ("x", "y")
        points, skipped = runs_to_points(rows, "std")
        assert skipped == 0
        # equal std, r1 has lower error: only r1 survives
        frontier = pareto_frontier([p for p in points if p is not None])
        assert [p.run_id for p in frontier] == ["r1"]

        out = tmp_path / "frontier.csv"
        write_frontier_csv(labels, rows, points, frontier, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "run_id,strategy,size,acc_x,acc_y,on_frontier"
        assert lines[1].endswith("true")
        assert lines[2].endswith("false")

    def test_infinite_ser_rows_skipped_on_ser_axis(self, tmp_path):
        runs = tmp_path / "runs.csv"
        runs.write_text(
            "run_id,strategy,size,acc_x,acc_y\n"
            "r1,A,27k,100.0,94.0\n"
            "r2,Random,27k,95.0,93.0\n"
        )
        _, rows = read_runs_csv(str(runs))
        points, skipped = runs_to_points(rows, "ser")
        assert skipped == 1
        assert points[0] is None
        points_std, skipped_std = runs_to_points(rows, "std")
        assert skipped_std == 0
        assert all(p is not None for p in points_std)

    def test_runs_header_validation(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("run,strategy,size,acc_x,acc_y\nr,A,27k,1,2\n")
        with pytest.raises(MetricsError, match="must start with"):
            read_runs_csv(str(path))
        path.write_text("run_id,strategy,size,acc_x\nr,A,27k,1\n")
        with pytest.raises(MetricsError, match="at least two"):
            read_runs_csv(str(path))
        path.write_text("run_id,strategy,size,acc_x,acc_x,acc_y\nr,A,27k,1,2,3\n")
        with pytest.raises(MetricsError, match="duplicate columns in header"):
            read_runs_csv(str(path))
        path.write_text(
            'run_id,strategy,size,acc_x,acc_y\n"r\n1",A,27k,1,2\nr2,A,27k,x,2\n'
        )
        with pytest.raises(MetricsError, match="line 4: non-numeric accuracy"):
            read_runs_csv(str(path))


class TestReportedFixture:
    def test_every_row_reproduces(self):
        data = json.load(open(FIXTURE))
        assert len(data["rows"]) >= 50
        for row in data["rows"]:
            d = fairness_report(row["acc"]).to_dict()
            assert d["average"] == pytest.approx(row["average"], abs=0.005 + 1e-9)
            assert d["std"] == pytest.approx(row["std"], abs=0.01 + 1e-9)
            assert d["ser"] == pytest.approx(row["ser"], abs=0.01 + 1e-9)

    def test_corrected_cell_is_documented(self):
        data = json.load(open(FIXTURE))
        noted = [r for r in data["rows"] if "printed_acc" in r]
        assert len(noted) == 1
        row = noted[0]
        assert row["note"]
        # the row's aggregates cannot be reproduced from the printed value
        printed = dict(row["acc"], **row["printed_acc"])
        report = fairness_report(printed).to_dict()
        assert abs(report["average"] - row["average"]) > 0.005
