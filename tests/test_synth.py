"""Tests for the seeded generator and its RNG core.

The SplitMix64 vectors below are the published reference outputs for the
algorithm (seed 0 starts e220a8397b1dcdaf, ...), frozen here so a silent
change to the state transition cannot pass.
"""

import math
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import generate_oracle
from fairbalance import synth
from fairbalance.cli import main as cli_main
from fairbalance.errors import ManifestError, SynthError
from fairbalance.manifest import GroupSet, load_manifest, write_manifest
from fairbalance.rng import SplitMix64
from fairbalance.scoring import Protocol, compute_es, relabel
from fairbalance.synth import SynthConfig, generate

GROUPS4 = GroupSet(("a", "b", "c", "d"))
GROUPS2 = GroupSet(("left", "right"))


def config(**overrides):
    base = dict(
        seed=11,
        groups=GROUPS4,
        identities_per_group=(6,),
        images_per_identity=(1, 3),
        concentration=(4.0,),
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_reference_vectors_other_seed(self):
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            0x599ED017FB08FC85,
            0x2C73F08458540FA5,
            0x883EBCE5A3F27C77,
        ]

    @pytest.mark.parametrize(
        "seed", [-1, 1 << 64, (1 << 64) + 5, -(1 << 70), True, 1.7, "1"]
    )
    def test_seed_outside_64_bits_is_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            SplitMix64(seed)

    def test_largest_seed_is_its_own_state(self):
        mask = (1 << 64) - 1

        def output(state):
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        # the first step adds the gamma and wraps at 2**64
        assert SplitMix64(mask).next_u64() == output((mask + 0x9E3779B97F4A7C15) & mask)

    def test_next_float_open_interval(self):
        rng = SplitMix64(99)
        draws = [rng.next_float() for _ in range(2000)]
        assert all(0.0 < u < 1.0 for u in draws)

    def test_next_float_deterministic(self):
        a = SplitMix64(7)
        b = SplitMix64(7)
        assert [a.next_float() for _ in range(10)] == [
            b.next_float() for _ in range(10)
        ]

    def test_next_below_bounds_and_coverage(self):
        rng = SplitMix64(3)
        draws = [rng.next_below(5) for _ in range(500)]
        assert set(draws) == {0, 1, 2, 3, 4}

    def test_next_below_rejects_nonpositive(self):
        rng = SplitMix64(3)
        with pytest.raises(ValueError, match="positive"):
            rng.next_below(0)
        with pytest.raises(ValueError, match="positive"):
            rng.next_below(-2)

    def test_next_below_one_is_always_zero(self):
        rng = SplitMix64(3)
        assert [rng.next_below(1) for _ in range(20)] == [0] * 20

    def test_sample_is_a_subset_without_replacement(self):
        rng = SplitMix64(17)
        pool = list(range(30))
        picked = rng.sample(pool, 12)
        assert len(picked) == 12
        assert len(set(picked)) == 12
        assert set(picked) <= set(pool)
        assert pool == list(range(30))

    def test_sample_deterministic(self):
        assert SplitMix64(17).sample(range(30), 12) == SplitMix64(17).sample(
            range(30), 12
        )

    def test_sample_whole_sequence_is_a_permutation(self):
        picked = SplitMix64(2).sample("abcdef", 6)
        assert sorted(picked) == list("abcdef")

    def test_sample_size_out_of_range(self):
        rng = SplitMix64(2)
        with pytest.raises(ValueError, match="out of range"):
            rng.sample([1, 2, 3], 4)
        with pytest.raises(ValueError, match="out of range"):
            rng.sample([1, 2, 3], -1)

    def test_sample_zero_is_empty(self):
        assert SplitMix64(2).sample([1, 2, 3], 0) == []


class TestSynthConfig:
    def test_scalars_broadcast_per_group(self):
        cfg = config(identities_per_group=(6,), concentration=(4.0,))
        assert cfg.identities_per_group == (6, 6, 6, 6)
        assert cfg.concentration == (4.0, 4.0, 4.0, 4.0)

    def test_full_length_tuples_kept(self):
        cfg = config(
            identities_per_group=(1, 2, 3, 4),
            concentration=(0.5, 1.0, 2.0, 4.0),
        )
        assert cfg.identities_per_group == (1, 2, 3, 4)
        assert cfg.concentration == (0.5, 1.0, 2.0, 4.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(SynthError, match="identities_per_group"):
            config(identities_per_group=(1, 2, 3))
        with pytest.raises(SynthError, match="concentration"):
            config(concentration=(1.0, 2.0))

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(SynthError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            config(seed=seed)
        assert config(seed=(1 << 64) - 1).seed == (1 << 64) - 1

    def test_negative_or_fractional_counts_rejected(self):
        with pytest.raises(SynthError, match="non-negative integers"):
            config(identities_per_group=(-1,))
        with pytest.raises(SynthError, match="non-negative integers"):
            config(identities_per_group=(2.5,))

    def test_image_span_validation(self):
        for bad in ((0, 3), (4, 2), (1,), (1, 2, 3), (1.0, 3)):
            with pytest.raises(SynthError, match="images_per_identity"):
                config(images_per_identity=bad)

    def test_concentration_must_be_positive_finite(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(SynthError, match="positive"):
                config(concentration=(bad,))

    def test_label_noise_range(self):
        config(label_noise=0.0)
        config(label_noise=0.999)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(SynthError, match="label_noise"):
                config(label_noise=bad)

    def test_seed_must_be_integer(self):
        with pytest.raises(SynthError, match="seed"):
            config(seed="7")

    def test_from_dict_round_trip(self):
        data = {
            "seed": 42,
            "groups": ["a", "b", "c", "d"],
            "identities_per_group": [3, 4, 5, 6],
            "images_per_identity": [1, 2],
            "concentration": 2.5,
            "label_noise": 0.1,
        }
        cfg = SynthConfig.from_dict(data)
        assert cfg == config(
            seed=42,
            identities_per_group=(3, 4, 5, 6),
            images_per_identity=(1, 2),
            concentration=(2.5,),
            label_noise=0.1,
        )

    def test_from_dict_noise_defaults_to_zero(self):
        cfg = SynthConfig.from_dict(
            {
                "seed": 1,
                "groups": ["a", "b"],
                "identities_per_group": 4,
                "images_per_identity": [1, 1],
                "concentration": 1.0,
            }
        )
        assert cfg.label_noise == 0.0

    def test_from_dict_unknown_field(self):
        with pytest.raises(SynthError, match="unknown config fields.*imges"):
            SynthConfig.from_dict(
                {
                    "seed": 1,
                    "groups": ["a", "b"],
                    "identities_per_group": 4,
                    "imges": [1, 1],
                }
            )

    def test_from_dict_missing_field(self):
        with pytest.raises(SynthError, match="missing config field: seed"):
            SynthConfig.from_dict(
                {
                    "groups": ["a", "b"],
                    "identities_per_group": 4,
                    "images_per_identity": [1, 1],
                    "concentration": 1.0,
                }
            )


class TestGenerate:
    def test_same_config_same_bytes(self, tmp_path):
        cfg = config(label_noise=0.1)
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        write_manifest(generate(cfg), first)
        write_manifest(generate(cfg), second)
        assert first.read_bytes() == second.read_bytes()

    def test_different_seeds_differ(self):
        assert generate(config(seed=1)) != generate(config(seed=2))

    def test_round_trips_through_manifest_io(self, tmp_path):
        cfg = config(seed=23, label_noise=0.2)
        m = generate(cfg)
        path = tmp_path / "synth.csv"
        write_manifest(m, path)
        assert load_manifest(path) == m

    def test_identity_counts_and_image_spans(self):
        cfg = config(
            identities_per_group=(2, 3, 4, 5), images_per_identity=(2, 4)
        )
        m = generate(cfg)
        per_group = [0, 0, 0, 0]
        for rec in m.identities.values():
            per_group[rec.group] += 1
            assert 2 <= rec.image_count <= 4
        assert per_group == [2, 3, 4, 5]

    def test_zero_count_groups_are_left_empty(self):
        m = generate(config(identities_per_group=(3, 0, 2, 0)))
        per_group = [0, 0, 0, 0]
        for rec in m.identities.values():
            per_group[rec.group] += 1
        assert per_group == [3, 0, 2, 0]

    def test_all_groups_empty_rejected(self):
        with pytest.raises(SynthError, match="nothing to generate"):
            generate(config(identities_per_group=(0,)))

    def test_naming_scheme(self):
        m = generate(config(identities_per_group=(1,), images_per_identity=(2, 2)))
        first = m.images[0]
        assert first.identity_id == "a_0000"
        assert first.image_id == "a_0000_000"
        assert m.images[1].image_id == "a_0000_001"

    def test_score_rows_sum_to_one(self):
        m = generate(config(seed=31, label_noise=0.3))
        for img in m.images:
            assert math.fsum(img.scores) == pytest.approx(1.0, abs=1e-12)

    def test_high_concentration_approaches_one_hot(self):
        cfg = config(
            identities_per_group=(30,),
            images_per_identity=(1, 2),
            concentration=(1e6,),
        )
        es = compute_es(generate(cfg), Protocol.A)
        d = len(es.groups)
        for r in range(d):
            for c in range(d):
                target = 1.0 if r == c else 0.0
                assert abs(es.values[r][c] - target) < 1e-3

    def test_low_concentration_approaches_uniform(self):
        cfg = config(
            identities_per_group=(30,),
            images_per_identity=(1, 2),
            concentration=(1e-6,),
        )
        es = compute_es(generate(cfg), Protocol.A)
        for v in es.diag():
            assert abs(v - 0.25) < 1e-3

    def test_mean_own_score_increases_with_concentration(self):
        # expected own score is 1/d + (1 - 1/d) * k / (k + 1)
        means = []
        for kappa in (0.5, 2.0, 8.0):
            cfg = config(
                seed=5,
                identities_per_group=(50,),
                images_per_identity=(1, 2),
                concentration=(kappa,),
            )
            es = compute_es(generate(cfg), Protocol.A)
            means.append(sum(es.diag()) / len(es.diag()))
        assert means[0] < means[1] < means[2]
        for kappa, mean in zip((0.5, 2.0, 8.0), means):
            assert mean == pytest.approx(
                0.25 + 0.75 * kappa / (kappa + 1.0), abs=0.05
            )

    def test_per_group_concentration_is_honoured(self):
        cfg = config(
            seed=8,
            identities_per_group=(40,),
            images_per_identity=(1, 2),
            concentration=(0.5, 0.5, 12.0, 12.0),
        )
        diag = compute_es(generate(cfg), Protocol.A).diag()
        assert max(diag[0], diag[1]) < min(diag[2], diag[3])

    def test_label_noise_zero_means_relabel_fixed_point(self):
        m = generate(config(seed=13, concentration=(50.0,)))
        assert relabel(m) == m

    def test_label_noise_flip_rate(self):
        # 100 identities at 20% noise; at concentration 50 every moved peak
        # is recovered by relabel, so counts are Binomial(100, 0.2) draws.
        counts = []
        for seed in range(10):
            cfg = config(
                seed=seed,
                identities_per_group=(25,),
                concentration=(50.0,),
                label_noise=0.2,
            )
            m = generate(cfg)
            rm = relabel(m)
            counts.append(
                sum(
                    1
                    for key, rec in m.identities.items()
                    if rm.identities[key].group != rec.group
                )
            )
        assert counts == [16, 21, 18, 26, 26, 27, 20, 18, 19, 23]
        assert all(12 <= c <= 28 for c in counts)

    def test_generation_is_pure(self):
        cfg = config(seed=3, label_noise=0.25)
        assert generate(cfg) == generate(cfg)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        d=st.integers(2, 4),
        count=st.integers(1, 8),
        lo=st.integers(1, 3),
        extra=st.integers(0, 3),
        kappa=st.sampled_from((0.3, 1.0, 4.0, 20.0)),
        noise=st.sampled_from((0.0, 0.2, 0.5)),
    )
    def test_random_configs_generate_valid_manifests(
        self, seed, d, count, lo, extra, kappa, noise
    ):
        cfg = SynthConfig(
            seed=seed,
            groups=GroupSet(tuple(f"g{i}" for i in range(d))),
            identities_per_group=(count,),
            images_per_identity=(lo, lo + extra),
            concentration=(kappa,),
            label_noise=noise,
        )
        m = generate(cfg)
        assert m.identity_count == count * d
        for img in m.images:
            assert len(img.scores) == d
            assert all(0.0 <= s <= 1.0 for s in img.scores)
            assert math.fsum(img.scores) == pytest.approx(1.0, abs=1e-9)


def columns(manifest):
    """Every column of a manifest, the scores by their bytes."""
    return (
        manifest.groups,
        manifest._image_ids,
        manifest._identity_ids,
        list(manifest._row_identity),
        list(manifest._identity_groups),
        manifest._scores.tobytes(),
    )


@st.composite
def synth_configs(draw):
    """Configs over 2 to 6 groups, some of them empty, with extreme
    concentrations and label noise up to 0.99."""
    d = draw(st.integers(2, 6))
    counts = draw(st.lists(st.integers(0, 5), min_size=d, max_size=d))
    if not any(counts):
        counts[draw(st.integers(0, d - 1))] = 1
    lo = draw(st.integers(1, 3))
    return SynthConfig(
        seed=draw(st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))),
        groups=GroupSet(tuple(f"g{i}" for i in range(d))),
        identities_per_group=tuple(counts),
        images_per_identity=(lo, lo + draw(st.integers(0, 3))),
        concentration=tuple(
            draw(
                st.lists(
                    st.sampled_from((1e-320, 1e-6, 0.5, 4.0, 1e6, 1e308)),
                    min_size=d,
                    max_size=d,
                )
            )
        ),
        label_noise=draw(st.sampled_from((0.0, 0.3, 0.99))),
    )


class TestGenerateOracle:
    """``generate`` builds columns a chunk at a time; the per-record
    generator in ``_oracles`` is its oracle: the same columns, bytes and
    errors."""

    @settings(max_examples=120, deadline=None)
    @given(
        config=synth_configs(),
        chunk=st.one_of(st.integers(1, 5), st.just(synth._CHUNK_ROWS)),
    )
    @example(
        config=SynthConfig(0, GroupSet(("a", "b")), (3, 0), (1, 4), (1e-320, 1.0), 0.99),
        chunk=2,
    )
    @example(
        config=SynthConfig(2**64 - 1, GroupSet(("a", "b", "c")), (0, 4, 2), (2, 5), (1e308,), 0.5),
        chunk=3,
    )
    def test_equals_per_record_generator(self, tmp_path_factory, config, chunk):
        with mock.patch.object(synth, "_CHUNK_ROWS", chunk):
            got = generate(config)
        expected = generate_oracle(config)
        assert columns(got) == columns(expected)
        directory = tmp_path_factory.mktemp("synth")
        write_manifest(got, directory / "got.csv")
        write_manifest(expected, directory / "expected.csv")
        assert (directory / "got.csv").read_bytes() == (
            directory / "expected.csv"
        ).read_bytes()

    @pytest.mark.parametrize("chunk", [1, 2, synth._CHUNK_ROWS])
    def test_control_character_label_fails_as_the_oracle(self, chunk):
        config = SynthConfig(5, GroupSet(("a\x01", "b")), (2, 1), (1, 3), (4.0,))
        message = "'a\\x01_0000_000': control character in image_id or identity_id"
        with pytest.raises(ManifestError) as expected:
            generate_oracle(config)
        assert str(expected.value) == message
        with mock.patch.object(synth, "_CHUNK_ROWS", chunk):
            with pytest.raises(ManifestError) as got:
                generate(config)
        assert str(got.value) == message

    def test_control_character_label_exits_1(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        argv = ["synth", "--seed", "1", "--groups", "a\x01,b", "--out", str(out)]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == (
            "error: 'a\\x01_0000_000': control character in image_id or "
            "identity_id\n"
        )
        assert list(tmp_path.iterdir()) == []


@pytest.mark.slow
class TestGrowth:
    """``generate`` and a cold load of what it writes grow about linearly:
    at 4n identities each takes about 4 times as long as at n, and a
    quadratic step would read about 16."""

    @staticmethod
    def best_of_3(work):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            work()
            times.append(time.perf_counter() - start)
        return min(times)

    def test_generate_and_cold_load_grow_linearly(self, tmp_path):
        timings = {}
        for identities in (2000, 8000):
            cfg = config(identities_per_group=(identities // 4,), images_per_identity=(1, 4))
            path = tmp_path / f"m{identities}.csv"
            write_manifest(generate(cfg), path)
            sidecar = path.with_name(f".{path.name}.fbcache")

            def cold_load():
                sidecar.unlink(missing_ok=True)
                load_manifest(path)

            timings[identities] = (
                self.best_of_3(lambda: generate(cfg)),
                self.best_of_3(cold_load),
            )
        for stage, small, large in zip(("generate", "load"), *timings.values()):
            assert large / small < 8, f"{stage}: {large:.3f} s against {small:.3f} s"
