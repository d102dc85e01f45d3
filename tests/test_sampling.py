"""Greedy removal, baselines, equilibrium detection and trace files."""

import logging
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbalance import (
    Protocol,
    RemovalEvent,
    RemovalTrace,
    SamplingError,
    compute_es,
    equilibrium_step,
    read_diag_series,
    sample_naive,
    sample_protocol,
    sample_random,
    sample_single_group,
    write_evolution,
    write_removal_log,
)
from fairbalance.sampling import _ExactSum

from _oracles import write_evolution_oracle, write_removal_log_oracle
from conftest import build_manifest, tie_heavy_manifests


def event_tuples(trace):
    return [(e.step, e.identity_id, e.group) for e in trace.events]


def hex_events(trace):
    """A trace's events with every float as its ``hex()``: bitwise equality."""
    return [
        (
            e.step, e.identity_id, e.group, e.own_group_ids.hex(),
            [x.hex() for x in e.diag_before], [x.hex() for x in e.diag_after],
        )
        for e in trace.events
    ]


def assert_diag_replays(manifest, trace, protocol):
    current = manifest
    diag = compute_es(current, protocol).diag()
    assert trace.initial_diag == diag
    for event in trace.events:
        assert event.diag_before == diag
        current = current.remove_identities({event.identity_id})
        diag = compute_es(current, protocol).diag()
        assert event.diag_after == diag


def one_hot_four():
    rows = []
    for g in range(4):
        scores = tuple(1.0 if c == g else 0.0 for c in range(4))
        rows.append((f"i{g}", f"id{g}", g, scores))
    return build_manifest(("a", "b", "c", "d"), rows)


class TestBudgetValidation:
    def test_rejects_negative_and_non_integer(self, two_groups):
        for bad in (-1, 1.5, "2"):
            with pytest.raises(SamplingError, match="non-negative integer"):
                sample_protocol(two_groups, Protocol.A, bad)

    def test_rejects_booleans(self, two_groups):
        # bool is an int subclass; True must not mean a budget of one
        for bad in (True, False):
            with pytest.raises(SamplingError, match="non-negative integer"):
                sample_protocol(two_groups, Protocol.A, bad)
            with pytest.raises(SamplingError, match="non-negative integer"):
                sample_random(two_groups, bad, seed=1)

    def test_mean_protocols_keep_one_per_group(self, two_groups):
        with pytest.raises(SamplingError, match="fewer than one identity"):
            sample_protocol(two_groups, Protocol.A, 3)

    def test_boundary_budget_reachable_when_means_cross(self):
        # removing g1's weak identity lifts its mean above g2's, so the
        # second step switches groups and the run ends at one per group
        m = build_manifest(
            ("g1", "g2"),
            [
                ("i1", "a", 0, (0.5, 0.5)),
                ("i2", "b", 0, (0.96, 0.04)),
                ("i3", "c", 1, (0.05, 0.95)),
                ("i4", "d", 1, (0.06, 0.94)),
            ],
        )
        subset, trace = sample_protocol(m, Protocol.A, 2)
        assert subset.group_counts == (1, 1)
        assert [e.group for e in trace.events] == ["g1", "g2"]

    def test_sum_protocol_keeps_one_overall(self, two_groups):
        with pytest.raises(SamplingError, match="remove every identity"):
            sample_protocol(two_groups, Protocol.C, 4)
        subset, _ = sample_protocol(two_groups, Protocol.C, 3)
        assert subset.identity_count == 1

    def test_mean_protocols_reject_empty_group_upfront(self):
        m = build_manifest(
            ("a", "b"),
            [
                ("i1", "x", 0, (0.9, 0.1)),
                ("i2", "y", 0, (0.8, 0.2)),
                ("i3", "z", 0, (0.7, 0.3)),
            ],
        )
        with pytest.raises(SamplingError, match="needs every group non-empty"):
            sample_protocol(m, Protocol.B, 1)


class TestGreedyRemoval:
    def test_zero_budget_is_identity(self):
        m = one_hot_four()
        subset, trace = sample_protocol(m, Protocol.C, 0)
        assert subset == m
        assert trace.events == []
        assert trace.final_manifest == m

    def test_hand_example_first_removal(self, two_groups):
        subset, trace = sample_protocol(two_groups, Protocol.A, 1)
        assert trace.initial_diag == (0.75, 0.945)
        event = trace.events[0]
        assert event.identity_id == "b"
        assert event.group == "g1"
        assert event.own_group_ids == 0.6
        assert event.diag_after == (0.9, 0.945)
        assert "b" not in subset.identities

    def test_sum_protocol_targets_largest(self, two_groups):
        _, trace = sample_protocol(two_groups, Protocol.C, 1)
        # sums: g1 = 1.5, g2 = 1.89; C pulls from the larger group
        assert trace.events[0].group == "g2"
        assert trace.events[0].identity_id == "d"

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_matches_naive_on_modest_budgets(self, small_corpus, protocol):
        for m in small_corpus[:15]:
            max_z = (
                m.identity_count - m.groups.d
                if protocol.group_mean
                else m.identity_count - 1
            )
            for z in {1, 5, min(10, max_z)}:
                if z < 1 or z > max_z:
                    continue
                try:
                    fast = sample_protocol(m, protocol, z)
                except SamplingError as exc:
                    with pytest.raises(SamplingError) as caught:
                        sample_naive(m, protocol, z)
                    assert event_tuples(exc.partial_trace) == event_tuples(
                        caught.value.partial_trace
                    )
                    continue
                slow = sample_naive(m, protocol, z)
                assert event_tuples(fast[1]) == event_tuples(slow[1])
                assert [e.diag_after for e in fast[1].events] == [
                    e.diag_after for e in slow[1].events
                ]
                assert fast[0] == slow[0]

    def test_score_tie_takes_earliest_identity(self):
        flat, mirrored = tie_heavy_manifests()
        _, trace = sample_protocol(flat, Protocol.A, 2)
        # every g2 identity scores 0.7 > 0.6, so g1 is drained in file order
        assert trace.removed_ids() == ["fa0", "fa1"]

        # groups g1 and g2 mirror each other's scores, so their diagonal
        # entries tie exactly (g3 sits higher); the lowest index wins
        diag = sample_protocol(mirrored, Protocol.A, 0)[1].initial_diag
        assert diag[0] == diag[1] < diag[2]
        _, trace = sample_protocol(mirrored, Protocol.A, 1)
        assert trace.events[0].group == "g1"
        assert trace.events[0].identity_id == "x2"

    def test_emptying_error_carries_partial_trace(self):
        m = build_manifest(
            ("a", "b"),
            [
                ("i1", "lone", 0, (0.2, 0.8)),
                ("i2", "r1", 1, (0.1, 0.9)),
                ("i3", "r2", 1, (0.15, 0.85)),
                ("i4", "r3", 1, (0.2, 0.8)),
            ],
        )
        # group a holds one weak identity; the first step already targets it
        with pytest.raises(SamplingError, match="would empty it") as caught:
            sample_protocol(m, Protocol.A, 2)
        partial = caught.value.partial_trace
        assert isinstance(partial, RemovalTrace)
        assert partial.events == []
        assert partial.final_manifest == m

    def test_emptying_error_after_removals_matches_naive(self):
        m = build_manifest(
            ("a", "b", "c"),
            [
                ("i1", "lone", 0, (0.55, 0.25, 0.2)),
                ("i2", "b1", 1, (0.2, 0.1, 0.7)),
                ("i3", "b2", 1, (0.45, 0.15, 0.4)),
                ("i4", "b3", 1, (0.1, 0.2, 0.7)),
                ("i5", "b4", 1, (0.05, 0.25, 0.7)),
                ("i6", "b5", 1, (0.1, 0.9, 0.0)),
                ("i7", "b6", 1, (0.05, 0.9, 0.05)),
                ("i8", "c1", 2, (0.05, 0.05, 0.9)),
                ("i9", "c2", 2, (0.4, 0.3, 0.3)),
                ("i10", "c3", 2, (0.5, 0.3, 0.2)),
            ],
        )
        # b, c and b again sit below a's lone 0.55; step 4 would empty a
        partials = []
        for sampler in (sample_protocol, sample_naive):
            with pytest.raises(SamplingError, match="^step 4: .* group 'a'") as caught:
                sampler(m, Protocol.A, 6)
            partials.append(caught.value.partial_trace)
        fast, naive = partials
        assert hex_events(fast) == hex_events(naive)
        assert fast.removed_ids() == ["b1", "c3", "b2"]
        assert fast.final_manifest == m.remove_identities(["b1", "c3", "b2"])

    def test_greedy_prefix_property(self, small_corpus):
        for m in small_corpus[:8]:
            budget = m.identity_count - m.groups.d
            if budget < 4:
                continue
            z1, z2 = budget // 2, budget - budget // 2
            try:
                whole, whole_trace = sample_protocol(m, Protocol.A, z1 + z2)
            except SamplingError:
                continue
            first, first_trace = sample_protocol(m, Protocol.A, z1)
            second, second_trace = sample_protocol(first, Protocol.A, z2)
            assert (
                first_trace.removed_ids() + second_trace.removed_ids()
                == whole_trace.removed_ids()
            )
            assert second == whole

    def test_trace_diag_matches_full_recompute_exactly(self, small_corpus):
        """Every tracked diagonal, greedy and baseline alike, equals a full
        recomputation over the running subset, bit for bit."""
        for m in small_corpus[:5]:
            for protocol in Protocol:
                z = min(8, m.identity_count - m.groups.d)
                if z < 1:
                    continue
                try:
                    _, trace = sample_protocol(m, protocol, z)
                except SamplingError:
                    continue
                assert_diag_replays(m, trace, protocol)
            # baselines are tracked under A; keep two per group so no mean
            # is undefined
            z = min(8, m.groups.d * (min(m.group_counts) - 2))
            if z >= 1:
                _, trace = sample_random(m, z, seed=7)
                assert_diag_replays(m, trace, Protocol.A)
            for strategy in ("min", "max", "rand"):
                _, trace = sample_single_group(
                    m, m.groups.labels[0], strategy, 0.5, seed=7
                )
                assert_diag_replays(m, trace, Protocol.A)

    def test_sum_protocol_runs_to_a_single_identity(self):
        flat, _ = tie_heavy_manifests()
        subset, trace = sample_protocol(flat, Protocol.C, flat.identity_count - 1)
        assert subset.identity_count == 1
        assert len(trace.events) == flat.identity_count - 1

    def test_events_touch_only_the_target_group(self, two_groups):
        _, trace = sample_protocol(two_groups, Protocol.C, 3)
        for event in trace.events:
            touched = trace.group_labels.index(event.group)
            for i, (before, after) in enumerate(
                zip(event.diag_before, event.diag_after)
            ):
                if i != touched:
                    assert before == after


class TestSampleRandom:
    def make_balanced(self, per_group=5, d=3):
        rows = []
        for g in range(d):
            for k in range(per_group):
                scores = [0.1 / (d - 1)] * d
                scores[g] = 0.9
                # tweak so identities differ without breaking the sum
                scores[g] -= 0.001 * k
                scores[(g + 1) % d] += 0.001 * k
                rows.append((f"im{g}_{k}", f"id{g}_{k}", g, tuple(scores)))
        return build_manifest(tuple(f"g{i}" for i in range(d)), rows)

    def test_requires_seed(self, two_groups):
        with pytest.raises(SamplingError, match="explicit seed"):
            sample_random(two_groups, 1, None)

    def test_deterministic_per_seed(self):
        m = self.make_balanced()
        a = sample_random(m, 6, seed=3)
        b = sample_random(m, 6, seed=3)
        assert a[0] == b[0]
        assert event_tuples(a[1]) == event_tuples(b[1])
        c = sample_random(m, 6, seed=4)
        assert event_tuples(c[1]) != event_tuples(a[1])

    def test_even_split_when_divisible(self):
        m = self.make_balanced(per_group=5, d=3)
        subset, trace = sample_random(m, 6, seed=1)
        assert subset.group_counts == (3, 3, 3)
        assert trace.name == "random"
        assert trace.seed == 1

    def test_remainder_rule(self, caplog):
        m = self.make_balanced(per_group=5, d=4)
        with caplog.at_level(logging.WARNING):
            subset, _ = sample_random(m, 6, seed=9)
        removed_per_group = [5 - c for c in subset.group_counts]
        assert sorted(removed_per_group) == [1, 1, 2, 2]
        assert any("not divisible" in r.message for r in caplog.records)

    def test_unbalanced_input_no_warning(self, caplog):
        m = build_manifest(
            ("a", "b"),
            [("i1", "x", 0, (0.9, 0.1))]
            + [(f"j{k}", f"y{k}", 1, (0.2, 0.8)) for k in range(4)],
        )
        with caplog.at_level(logging.WARNING):
            subset, _ = sample_random(m, 1, seed=2)
        assert not caplog.records
        assert subset.identity_count == 4

    def test_quota_errors(self):
        m = build_manifest(
            ("a", "b"),
            [("i1", "x", 0, (0.9, 0.1))]
            + [(f"j{k}", f"y{k}", 1, (0.2, 0.8)) for k in range(4)],
        )
        with pytest.raises(SamplingError, match="fewer than the per-group"):
            sample_random(m, 4, seed=0)
        with pytest.raises(SamplingError, match="remove every identity"):
            sample_random(m, 5, seed=0)

    def test_extra_removals_respect_affordability(self):
        # group a can afford the quota but not the +1 remainder
        m = build_manifest(
            ("a", "b"),
            [("i1", "x", 0, (0.9, 0.1))]
            + [(f"j{k}", f"y{k}", 1, (0.2, 0.8)) for k in range(5)],
        )
        subset, trace = sample_random(m, 3, seed=7)
        # quota 1 each, remainder 1 must fall on group b
        assert subset.group_counts == (0, 3)
        assert trace.events[0].diag_after[0] == 0.0

    def test_events_in_first_appearance_order_per_group(self):
        m = self.make_balanced(per_group=4, d=2)
        _, trace = sample_random(m, 4, seed=5)
        by_group = {}
        for event in trace.events:
            by_group.setdefault(event.group, []).append(event.identity_id)
        order = list(m.identities)
        for idents in by_group.values():
            assert idents == sorted(idents, key=order.index)


class TestSampleSingleGroup:
    def make_group(self):
        rows = []
        for k in range(10):
            own = 0.5 + k * 0.04
            rows.append((f"i{k}", f"id{k}", 0, (own, 1.0 - own)))
        rows.append(("other", "oid", 1, (0.1, 0.9)))
        return build_manifest(("a", "b"), rows)

    def test_min_max_partition_the_group(self):
        m = self.make_group()
        low, _ = sample_single_group(m, "a", "min", 0.5)
        high, _ = sample_single_group(m, "a", "max", 0.5)
        low_kept = {i for i in low.identities if low.identities[i].group == 0}
        high_kept = {i for i in high.identities if high.identities[i].group == 0}
        assert low_kept == {f"id{k}" for k in range(5)}
        assert high_kept == {f"id{k}" for k in range(5, 10)}
        assert low_kept | high_kept == {f"id{k}" for k in range(10)}

    def test_ceil_keep_count(self):
        m = self.make_group()
        subset, trace = sample_single_group(m, "a", "min", 0.55)
        assert subset.group_counts[0] == 6  # ceil(5.5)
        assert trace.name == "single-min-a"
        assert len(trace.events) == 4

    def test_keep_fraction_one_is_identity(self):
        m = self.make_group()
        subset, trace = sample_single_group(m, "a", "max", 1.0)
        assert subset == m
        assert trace.events == []

    def test_other_groups_untouched(self):
        m = self.make_group()
        subset, _ = sample_single_group(m, "a", "min", 0.3)
        assert "oid" in subset.identities
        assert subset.group_counts[1] == 1

    def test_rand_needs_seed_and_is_deterministic(self):
        m = self.make_group()
        with pytest.raises(SamplingError, match="requires an explicit seed"):
            sample_single_group(m, "a", "rand", 0.5)
        one = sample_single_group(m, "a", "rand", 0.5, seed=11)
        two = sample_single_group(m, "a", "rand", 0.5, seed=11)
        assert one[0] == two[0]
        assert one[1].seed == 11
        assert one[1].name == "single-rand-a"

    def test_bad_arguments(self):
        m = self.make_group()
        with pytest.raises(SamplingError, match="unknown strategy"):
            sample_single_group(m, "a", "median", 0.5)
        for bad in (0.0, -0.5, 1.5, math.nan, True):
            with pytest.raises(SamplingError, match="keep_fraction"):
                sample_single_group(m, "a", "min", bad)

    def test_unknown_group_label(self):
        with pytest.raises(Exception, match="unknown group"):
            sample_single_group(self.make_group(), "z", "min", 0.5)


class TestEquilibriumStep:
    def spread_series(self):
        return [
            (1, (0.95, 0.90, 0.905, 0.9101)),
            (2, (0.93, 0.90, 0.905, 0.9101)),
            (3, (0.91, 0.90, 0.905, 0.9101)),
            (4, (0.91, 0.905, 0.905, 0.9101)),
        ]

    def test_first_step_below_epsilon(self):
        assert equilibrium_step(self.spread_series(), 0.02) == 3

    def test_epsilon_above_initial_spread_returns_first_step(self):
        assert equilibrium_step(self.spread_series(), 0.5) == 1

    def test_never_reached_is_none(self):
        assert equilibrium_step(self.spread_series(), 1e-6) is None

    def test_accepts_trace_objects(self, two_groups):
        _, trace = sample_protocol(two_groups, Protocol.A, 1)
        # diag_after = (0.9, 0.945), spread 0.045
        assert equilibrium_step(trace, 0.05) == 1
        assert equilibrium_step(trace, 0.01) is None

    def test_errors(self):
        for bad in (0.0, True):
            with pytest.raises(SamplingError, match="epsilon"):
                equilibrium_step(self.spread_series(), bad)
        with pytest.raises(SamplingError, match="empty trace"):
            equilibrium_step([], 0.1)


def corpus_traces(m):
    """Traces of every sampler that runs on ``m`` without an error."""
    traces = []
    for protocol in Protocol:
        z = min(12, m.identity_count - m.groups.d)
        for sampler in (sample_protocol, sample_naive):
            try:
                traces.append(sampler(m, protocol, z)[1])
            except SamplingError:
                pass
    z = min(8, m.groups.d * (min(m.group_counts) - 2))
    if z >= 1:
        traces.append(sample_random(m, z, seed=7)[1])
    for strategy in ("min", "max", "rand"):
        traces.append(
            sample_single_group(m, m.groups.labels[-1], strategy, 0.5, seed=7)[1]
        )
    return traces


class TestTraceFiles:
    def test_bytes_match_writers_that_format_every_entry(self, small_corpus, tmp_path):
        """Reusing the strings of shared tuples and floats writes the same
        bytes as formatting every entry, for every sampler's trace and for
        a hand-built one whose tuples share nothing."""
        hand = RemovalTrace(
            name="hand",
            group_labels=("a", "b"),
            initial_diag=(0.5, -0.0),
            events=[
                RemovalEvent(1, "x", "a", 0.25, (0.5, -0.0), (0.75, 0.0)),
                RemovalEvent(2, "y", "b", 1e-300, (0.75, 0.0), (0.75, 1 / 3)),
            ],
        )
        traces = [hand]
        for m in small_corpus[:8]:
            traces.extend(corpus_traces(m))
        written = tmp_path / "written.csv"
        expected = tmp_path / "expected.csv"
        for trace in traces:
            for writer, oracle in (
                (write_removal_log, write_removal_log_oracle),
                (write_evolution, write_evolution_oracle),
            ):
                writer(trace, str(written))
                oracle(trace, expected)
                assert written.read_bytes() == expected.read_bytes(), trace.name

    def test_events_share_diagonal_tuples(self, small_corpus):
        """Each event's ``diag_before`` is the tuple before it, not a copy,
        so the writers format each diagonal once."""
        for trace in corpus_traces(small_corpus[0]):
            previous = trace.initial_diag
            for event in trace.events:
                assert event.diag_before is previous, trace.name
                previous = event.diag_after

    def test_removal_log_round_trip(self, two_groups, tmp_path):
        _, trace = sample_protocol(two_groups, Protocol.C, 2)
        path = str(tmp_path / "log.csv")
        write_removal_log(trace, path)
        labels, series = read_diag_series(path)
        assert labels == ("g1", "g2")
        assert series == [(e.step, e.diag_after) for e in trace.events]

    def test_evolution_round_trip_skips_step_zero(self, two_groups, tmp_path):
        _, trace = sample_protocol(two_groups, Protocol.C, 2)
        path = str(tmp_path / "evo.csv")
        write_evolution(trace, path)
        with open(path) as handle:
            assert handle.readline().strip() == "step,diag_g1,diag_g2"
            assert handle.readline().startswith("0,")
        labels, series = read_diag_series(path)
        assert labels == ("g1", "g2")
        assert series[0][0] == 1
        assert len(series) == 2

    def test_log_and_evolution_agree_on_after_suffixed_labels(self, tmp_path):
        """A group label ending in ``_after`` is still a label: the log and
        the evolution file of one run read back the same."""
        m = build_manifest(
            ("x_after", "y"),
            [
                ("i1", "p", 0, (0.7, 0.3)),
                ("i2", "q", 0, (0.9, 0.1)),
                ("i3", "r", 1, (0.4, 0.6)),
                ("i4", "s", 1, (0.2, 0.8)),
            ],
        )
        _, trace = sample_protocol(m, Protocol.C, 2)
        log, evolution = str(tmp_path / "log.csv"), str(tmp_path / "evo.csv")
        write_removal_log(trace, log)
        write_evolution(trace, evolution)
        expected = (("x_after", "y"), [(e.step, e.diag_after) for e in trace.events])
        assert read_diag_series(log) == expected
        assert read_diag_series(evolution) == expected

    def test_header_without_log_columns_is_an_evolution_file(self, tmp_path):
        path = tmp_path / "evo.csv"
        path.write_text("step,diag_a_after,diag_b_after\n0,0.5,0.5\n1,0.25,0.75\n")
        assert read_diag_series(str(path)) == (
            ("a_after", "b_after"), [(1, (0.25, 0.75))]
        )

    @pytest.mark.parametrize(
        "header",
        [
            "step,identity_id,group,own_group_ids",
            "step,identity_id,group,own_group_ids,diag_a_before",
            "step,identity_id,group,own_group_ids,diag_a_before,diag_a",
            "step,diag_a,other",
        ],
    )
    def test_rejects_headers_outside_the_rule(self, tmp_path, header):
        path = tmp_path / "trace.csv"
        path.write_text(header + "\n")
        with pytest.raises(SamplingError, match="not a removal log"):
            read_diag_series(str(path))

    def test_equilibrium_from_file_matches_trace(self, two_groups, tmp_path):
        _, trace = sample_protocol(two_groups, Protocol.C, 2)
        path = str(tmp_path / "evo.csv")
        write_evolution(trace, path)
        _, series = read_diag_series(path)
        for epsilon in (0.01, 0.06, 0.7):
            assert equilibrium_step(series, epsilon) == (
                equilibrium_step(trace, epsilon)
            )

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("1,0.4", "expected 3 fields, got 2"),
            ("1,0.4,x", "could not convert string to float"),
            ("1.5,0.4,0.3", "invalid literal for int"),
            # the line a record starts on, not the one it ends on
            ('"1\n",0.4', "expected 3 fields, got 2"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row, problem):
        path = tmp_path / "evo.csv"
        path.write_text(f"step,diag_a,diag_b\n0,0.5,0.5\n{row}\n")
        with pytest.raises(SamplingError, match=f"evo.csv: line 3: {problem}"):
            read_diag_series(str(path))

    def test_rejects_unrelated_csv(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(SamplingError, match="not a removal log"):
            read_diag_series(str(path))

    def test_rejects_duplicate_diag_columns(self, tmp_path):
        path = tmp_path / "evo.csv"
        path.write_text("step,diag_a,diag_a\n0,0.5,0.5\n1,0.4,0.4\n")
        with pytest.raises(SamplingError, match="duplicate columns in header"):
            read_diag_series(str(path))


# Own-score-like values: finite and non-negative, with both zeros, the
# subnormal range and magnitudes far enough apart to need several partials.
own_like = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e6),
    st.sampled_from((0.0, -0.0, 5e-324, sys.float_info.min, 1.0, 1e16)),
)


class TestExactSum:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("add"), own_like),
                st.tuples(st.just("remove"), st.integers(0, 1000)),
            ),
            max_size=60,
        )
    )
    def test_value_is_fsum_of_survivors(self, ops):
        acc = _ExactSum()
        survivors = []
        for op, arg in ops:
            if op == "add":
                acc.add(arg)
                survivors.append(arg)
            elif survivors:
                acc.remove(survivors.pop(arg % len(survivors)))
            assert acc.value().hex() == math.fsum(survivors).hex()
