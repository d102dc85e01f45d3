"""Identity and group score aggregation, relabeling, scatter joins."""

import csv
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbalance import (
    DEFAULT_GROUPS,
    GroupSet,
    IdsTable,
    Protocol,
    ScoringError,
    SynthConfig,
    compute_es,
    compute_ids,
    generate,
    relabel,
    score_scatter,
    summarize,
    write_es_csv,
    write_ids_csv,
)

from _oracles import (
    es_oracle,
    ids_oracle,
    own_scores_oracle,
    relabel_oracle,
    summarize_oracle,
)
from conftest import build_manifest


def one_hot_manifest():
    """One identity per group, one image each, exactly one-hot scores."""
    rows = []
    for g in range(3):
        scores = tuple(1.0 if c == g else 0.0 for c in range(3))
        rows.append((f"i{g}", f"id{g}", g, scores))
    return build_manifest(("a", "b", "c"), rows)


class TestComputeIds:
    def test_mean_and_sum_semantics(self):
        m = build_manifest(
            ("a", "b", "c", "d"),
            [
                ("i1", "x", 0, (1.0, 0.0, 0.0, 0.0)),
                ("i2", "x", 0, (0.5, 0.5, 0.0, 0.0)),
            ],
        )
        assert compute_ids(m, Protocol.A).entries["x"] == (0.75, 0.25, 0.0, 0.0)
        assert compute_ids(m, Protocol.B).entries["x"] == (1.5, 0.5, 0.0, 0.0)
        assert compute_ids(m, Protocol.C).entries["x"] == (1.5, 0.5, 0.0, 0.0)

    def test_string_protocol_accepted(self, two_groups):
        assert compute_ids(two_groups, "A").protocol is Protocol.A

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_matches_naive_accumulation(self, small_corpus, protocol):
        for m in small_corpus:
            expected = ids_oracle(m, protocol)
            got = compute_ids(m, protocol).entries
            assert got == expected

    def test_simplex_invariants(self, corpus):
        for m in corpus[:20]:
            table_a = compute_ids(m, Protocol.A)
            for vector in table_a.entries.values():
                assert abs(math.fsum(vector) - 1.0) <= 1e-9
            table_b = compute_ids(m, Protocol.B)
            for ident, vector in table_b.entries.items():
                count = m.identities[ident].image_count
                assert abs(math.fsum(vector) - count) <= 1e-9 * count

    def test_own_scores_accessor(self, two_groups):
        table = compute_ids(two_groups, Protocol.A)
        own = table.own_scores(two_groups)
        assert own == {"a": 0.9, "b": 0.6, "c": 0.95, "d": 0.94}


class TestComputeEs:
    def test_one_hot_identity_matrix(self):
        m = one_hot_manifest()
        for protocol in (Protocol.A, Protocol.C):
            values = compute_es(m, protocol).values
            for r in range(3):
                for c in range(3):
                    assert values[r][c] == (1.0 if r == c else 0.0)

    def test_diag_of_hand_example(self, two_groups):
        es = compute_es(two_groups, Protocol.A)
        assert es.diag() == (0.75, 0.945)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_matches_naive_double_loop(self, small_corpus, protocol):
        for m in small_corpus:
            assert list(compute_es(m, protocol).values) == es_oracle(m, protocol)

    def test_row_sum_invariants(self, corpus):
        for m in corpus[:20]:
            es_a = compute_es(m, Protocol.A)
            for row in es_a.values:
                assert math.fsum(row) == pytest.approx(1.0, rel=1e-9)
            es_b = compute_es(m, Protocol.B)
            for r, row in enumerate(es_b.values):
                members = m.identities_of_group(r)
                expected = sum(rec.image_count for rec in members) / len(members)
                assert math.fsum(row) == pytest.approx(expected, rel=1e-9)

    def test_empty_group_mean_is_error(self):
        m = build_manifest(
            ("a", "b"), [("i1", "x", 0, (0.9, 0.1)), ("i2", "y", 0, (0.8, 0.2))]
        )
        for protocol in (Protocol.A, Protocol.B):
            with pytest.raises(ScoringError, match="no identities"):
                compute_es(m, protocol)
        es = compute_es(m, Protocol.C)
        assert es.values[1] == (0.0, 0.0)

    def test_rejects_mismatched_ids_table(self, two_groups):
        ids_b = compute_ids(two_groups, Protocol.B)
        with pytest.raises(ScoringError, match="was built for protocol B"):
            compute_es(two_groups, Protocol.A, ids=ids_b)

    def test_accepts_matching_ids_table(self, two_groups):
        ids_a = compute_ids(two_groups, Protocol.A)
        via_table = compute_es(two_groups, Protocol.A, ids=ids_a)
        assert via_table == compute_es(two_groups, Protocol.A)


class TestRelabel:
    def test_argmax_reassignment(self):
        m = build_manifest(
            ("African", "Asian", "Caucasian", "Indian"),
            [("i1", "x", 0, (0.2, 0.5, 0.2, 0.1))],
        )
        out = relabel(m)
        assert out.identities["x"].group == 1
        assert out.images[0].group == 1
        assert out.group_counts == (0, 1, 0, 0)

    def test_fixed_point_when_label_already_argmax(self, two_groups):
        assert relabel(two_groups) == two_groups

    def test_tie_goes_to_lowest_index(self):
        m = build_manifest(
            ("a", "b", "c"), [("i1", "x", 2, (0.4, 0.4, 0.2))]
        )
        assert relabel(m).identities["x"].group == 0

    def test_idempotent_on_corpus(self, small_corpus):
        for m in small_corpus:
            once = relabel(m)
            assert relabel(once) == once

    def test_scores_untouched_and_ids_invariant(self, small_corpus):
        for m in small_corpus[:10]:
            out = relabel(m)
            assert [img.scores for img in out.images] == [
                img.scores for img in m.images
            ]
            assert compute_ids(out, Protocol.A).entries == (
                compute_ids(m, Protocol.A).entries
            )

    def test_multi_image_identity_moves_whole(self):
        m = build_manifest(
            ("a", "b"),
            [
                ("i1", "x", 0, (0.9, 0.1)),
                ("i2", "x", 0, (0.2, 0.8)),
                ("i3", "x", 0, (0.2, 0.8)),
            ],
        )
        out = relabel(m)
        assert all(img.group == 1 for img in out.images)


# Few distinct weights, so group maxima tie and sums land on 0.0 and -0.0.
WEIGHTS = st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.0, 0.1, 7.5])


@st.composite
def small_manifests(draw):
    """Up to 8 identities over 2 to 4 groups, rows in any order, so an
    identity's rows interleave with others' and many have a single row; a
    group may be left without identities."""
    d = draw(st.integers(2, 4))
    groups = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=8))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(groups) - 1),
                st.lists(WEIGHTS, min_size=d, max_size=d),
            ),
            min_size=1,
            max_size=30,
        )
    )
    images = []
    for n, (j, weights) in enumerate(rows):
        total = math.fsum(weights)
        if total:
            scores = [w / total for w in weights]
        else:
            scores = [-0.0] * d
            scores[groups[j]] = 1.0
        images.append((f"img{n}", f"id{j}", groups[j], scores))
    return build_manifest([f"g{c}" for c in range(d)], images)


def hexed(value):
    """``value`` with every float replaced by its ``.hex()``, so -0.0 and
    0.0 compare unequal."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


class TestColumnReductions:
    """The per-identity column reductions against the tuple-based oracles
    in ``_oracles``, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(m=small_manifests())
    def test_match_tuple_oracles(self, m):
        for protocol in Protocol:
            if protocol.group_mean and 0 in m.group_counts:
                for ids in (None, compute_ids(m, protocol)):
                    with pytest.raises(ScoringError, match="has no identities"):
                        compute_es(m, protocol, ids)
            else:
                expected = hexed(es_oracle(m, protocol))
                assert hexed(compute_es(m, protocol).values) == expected
                table = IdsTable(protocol, ids_oracle(m, protocol))
                assert hexed(compute_es(m, protocol, table).values) == expected
                for other in Protocol:
                    if other is not protocol:
                        with pytest.raises(ScoringError, match="built for protocol"):
                            compute_es(m, protocol, compute_ids(m, other))
            own = m._own_column(protocol.identity_mean)
            assert hexed(list(own)) == hexed(own_scores_oracle(m, protocol))
        relabelled = relabel(m)
        assert [rec.group for rec in relabelled.identities.values()] == (
            relabel_oracle(m)
        )
        assert hexed(summarize(m)) == hexed(summarize_oracle(m))

    def test_peak_memory_per_identity(self):
        config = SynthConfig(
            seed=11,
            groups=DEFAULT_GROUPS,
            identities_per_group=(500,),
            images_per_identity=(1, 8),
            concentration=(2.0, 4.0, 6.0, 8.0),
            label_noise=0.05,
        )
        m = generate(config)
        m._rows_by_identity()
        n = m.identity_count
        for name, reduce in [
            ("compute_es", lambda: compute_es(m, Protocol.B)),
            ("relabel", lambda: relabel(m)),
            ("summarize", lambda: summarize(m)),
            ("own scores", lambda: m._own_column(True)),
        ]:
            reduce()  # a first call may import a module: not per identity
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                reduce()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (peak - base) / n < 150, f"{name}: {(peak - base) / n:.1f} B/identity"


class TestScoreScatter:
    def test_self_correlation_is_one(self):
        rng = random.Random(5)
        rows = []
        for n in range(40):
            own = 0.5 + 0.4 * rng.random()
            rows.append((f"i{n}", f"id{n}", 0, (own, 1.0 - own)))
        m = build_manifest(("a", "b"), rows)
        external = {img.image_id: img.scores[0] for img in m.images}
        result = score_scatter(m, external)
        assert result.correlations["a"] == pytest.approx(1.0)
        assert result.correlations["b"] is None
        assert result.skipped == 0

    def test_constant_external_is_null(self):
        m = build_manifest(
            ("a", "b"),
            [("i1", "x", 0, (0.9, 0.1)), ("i2", "y", 0, (0.8, 0.2))],
        )
        result = score_scatter(m, {"i1": 0.5, "i2": 0.5})
        assert result.correlations["a"] is None

    def test_missing_images_are_counted(self, two_groups):
        result = score_scatter(two_groups, {"i1": 0.4, "i3": 0.2})
        assert result.skipped == 2
        assert [r[0] for r in result.rows] == ["i1", "i3"]

    def test_empty_intersection_is_error(self, two_groups):
        with pytest.raises(ScoringError, match="no overlap"):
            score_scatter(two_groups, {"elsewhere": 1.0})

    def test_independent_scores_weakly_correlated(self):
        cfg = SynthConfig(
            seed=424242,
            groups=GroupSet(("a", "b")),
            identities_per_group=(5000, 5000),
            images_per_identity=(1, 1),
            concentration=4.0,
        )
        m = generate(cfg)
        rng = random.Random(99)
        external = {img.image_id: rng.random() for img in m.images}
        result = score_scatter(m, external)
        for label in ("a", "b"):
            assert abs(result.correlations[label]) < 0.2


class TestCsvExports:
    def test_ids_csv_shape(self, two_groups, tmp_path):
        table = compute_ids(two_groups, Protocol.A)
        path = tmp_path / "ids.csv"
        write_ids_csv(two_groups, table, str(path))
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["identity_id", "group", "ids_g1", "ids_g2"]
        assert len(rows) == 5
        assert rows[1][:2] == ["a", "g1"]
        assert float(rows[1][2]) == 0.9

    def test_es_csv_shape(self, two_groups, tmp_path):
        es = compute_es(two_groups, Protocol.A)
        path = tmp_path / "es.csv"
        write_es_csv(es, str(path))
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["group", "g1", "g2"]
        assert rows[1][0] == "g1"
        assert float(rows[1][1]) == 0.75
