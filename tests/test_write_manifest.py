"""``write_manifest``'s sidecar and its copy path.

The sidecar stored with a CSV equals the parse of that CSV. A manifest
loaded from such a sidecar, and its subsets and relabelling, copy their
rows' lines from the CSV instead of formatting them; every copy that the
source can no longer vouch for falls back to the formatted bytes.
"""

import math
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbalance import (
    DEFAULT_GROUPS,
    GroupSet,
    ImageRecord,
    Manifest,
    Protocol,
    SynthConfig,
    generate,
    load_manifest,
    relabel,
    sample_protocol,
    sample_random,
    write_manifest,
)
from fairbalance import _sidecar
from fairbalance import manifest as manifest_module
from fairbalance.cli import main

from _oracles import write_manifest_oracle
from test_manifest import column_bits, csv_path_forbidden, sidecar_of

# ids that need quoting, hold a space or are not ASCII
IDS = st.sampled_from(["a,b", 'say "x"', "sp ace", " lead", "é漢字", "id-1", "x"])
LABEL_SETS = st.sampled_from([
    ("a", "b"),
    ("African", "Asian", "Caucasian", "Indian"),
    ("g,1", 'g "2"', "g 3"),
    ("ünï", "漢"),
])
row_strategy = st.tuples(
    st.integers(0, 7),
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
        lambda w: math.fsum(w) > 0
    ),
    # rows within 1e-4 of one are renormalized, those within 1e-12 kept
    st.sampled_from([1.0, 1 - 9e-5, 1 + 9e-5, 1 - 1e-13]),
    IDS,
)


def build(labels, rows):
    """A manifest over ``rows`` (identity, weights, factor, id text); the
    identities interleave, each in one group."""
    groups = GroupSet(labels)
    d = groups.d
    images = []
    for n, (ident, weights, factor, text) in enumerate(rows):
        weights = weights[:d]
        total = math.fsum(weights)
        if total:
            scores = [min(w / total * factor, 1.0) for w in weights]
        else:
            scores = [1.0] + [0.0] * (d - 1)
        images.append(ImageRecord(f"{text}{n}", f"{text}{ident}", ident % d, scores))
    return Manifest.from_images(groups, images)


def formatted_path_bytes(manifest, path):
    """The bytes of the row-record writer for ``manifest``."""
    write_manifest_oracle(manifest.groups, manifest.images, path)
    return path.read_bytes()


def assert_sidecar_is_the_parse(path):
    stored = _sidecar._read(path, _sidecar._key(path), None)
    assert stored is not None
    assert column_bits(stored) == column_bits(manifest_module._parse(path, None, False))


@contextmanager
def formatted_rows():
    """Count the manifest rows formatted by write_manifest: yields a
    one-element list."""
    count = [0]
    real = manifest_module._records

    def records(*args):
        for record in real(*args):
            count[0] += 1
            yield record

    with mock.patch.object(_sidecar, "_records", records):
        yield count


def synth_manifest(tmp_path, identities=40):
    config = SynthConfig(
        seed=21,
        groups=DEFAULT_GROUPS,
        identities_per_group=(identities,),
        images_per_identity=(1, 4),
        concentration=(2.0, 4.0, 6.0, 8.0),
        label_noise=0.2,
    )
    path = tmp_path / "m.csv"
    write_manifest(generate(config), path)
    return path


class TestStoredSidecar:
    @settings(max_examples=120, deadline=None)
    @given(
        labels=LABEL_SETS,
        rows=st.lists(row_strategy, min_size=1, max_size=30),
        removed=st.sets(st.integers(0, 7), max_size=4),
        removed_later=st.sets(st.integers(0, 7), max_size=3),
    )
    def test_equals_the_parse_of_the_written_csv(
        self, tmp_path_factory, labels, rows, removed, removed_later
    ):
        base = tmp_path_factory.mktemp("oracle")
        manifest = build(labels, rows)
        path = base / "m.csv"
        write_manifest(manifest, path)
        assert_sidecar_is_the_parse(path)
        with csv_path_forbidden():
            loaded = load_manifest(path)
        assert loaded._source is not None
        assert path.read_bytes() == formatted_path_bytes(manifest, base / "oracle.csv")

        identities = list(loaded.identities)
        gone = {identities[k] for k in removed if k < len(identities)}
        later = {identities[k] for k in removed_later if k < len(identities)}
        relabelled = relabel(loaded)
        subset = loaded.remove_identities(gone)
        # subsets of subsets and relabellings of subsets keep their source rows
        derived = [
            relabelled,
            relabelled.remove_identities(gone),
            subset,
            subset.remove_identities(later),
            relabel(subset),
            relabel(subset).remove_identities(later),
        ]
        for k, subset in enumerate(derived):
            if not subset.images:
                continue
            assert subset._source is not None
            out = base / f"derived{k}.csv"
            write_manifest(subset, out)
            assert out.read_bytes() == formatted_path_bytes(subset, base / "oracle.csv")
            assert_sidecar_is_the_parse(out)
            with csv_path_forbidden():
                assert load_manifest(out)._source is not None

    def test_label_with_a_control_character_gets_none(self, tmp_path):
        # csv.writer leaves a lone CR unquoted, so the CSV does not parse back
        manifest = build(("a\rb", "c"), [(0, [0.5, 0.5], 1.0, "x")])
        path = tmp_path / "m.csv"
        write_manifest(manifest, path)
        assert not sidecar_of(path).exists()

    def test_id_longer_than_the_field_limit_gets_none(self, tmp_path):
        manifest = build(("a", "b"), [(0, [0.5, 0.5], 1.0, "x" * 200_000)])
        path = tmp_path / "m.csv"
        write_manifest(manifest, path)
        assert not sidecar_of(path).exists()

    def test_only_a_write_time_sidecar_gives_a_source(self, tmp_path):
        path = synth_manifest(tmp_path)
        assert load_manifest(path)._source is not None
        sidecar_of(path).unlink()
        parsed = load_manifest(path)
        with csv_path_forbidden():
            hit = load_manifest(path)
        assert parsed._source is None and hit._source is None
        # equality ignores the source
        assert hit == parsed == load_manifest(path)


class TestCopyPath:
    def test_a_subset_of_a_synth_output_formats_no_row(self, capsys, tmp_path):
        path = synth_manifest(tmp_path)
        with formatted_rows() as count:
            assert main(["sample", str(path), "--protocol", "random", "--remove",
                         "30", "--seed", "4", "--out", str(tmp_path / "r.csv")]) == 0
            assert main(["single", str(path), "--group", "Asian", "--strategy",
                         "min", "--keep-fraction", "0.5",
                         "--out", str(tmp_path / "s.csv")]) == 0
            assert main(["sample", str(path), "--protocol", "C", "--remove", "20",
                         "--out", str(tmp_path / "c.csv")]) == 0
        capsys.readouterr()
        assert count == [0]
        manifest = load_manifest(path)
        subset, _ = sample_random(manifest, 30, 4)
        assert (tmp_path / "r.csv").read_bytes() == formatted_path_bytes(
            subset, tmp_path / "oracle.csv"
        )

    @pytest.mark.parametrize("first", [False, True], ids=["relabel", "relabel-first"])
    def test_relabel_formats_only_the_moved_rows(self, capsys, tmp_path, first):
        path = synth_manifest(tmp_path)
        manifest = load_manifest(path)
        relabelled = relabel(manifest)
        moved = {
            j for j, (a, b) in enumerate(
                zip(manifest._identity_groups, relabelled._identity_groups)
            ) if a != b
        }
        out = tmp_path / "out.csv"
        argv = (
            ["sample", str(path), "--protocol", "A", "--remove", "25",
             "--relabel-first", "--out", str(out)]
            if first else ["relabel", str(path), "--out", str(out)]
        )
        with formatted_rows() as count:
            assert main(argv) == 0
        capsys.readouterr()
        expected = relabelled
        if first:
            expected, _ = sample_protocol(relabelled, Protocol.A, 25)
        # the moved identities' rows that are still there
        kept = set(expected._identity_ids)
        rows = sum(
            1 for j in manifest._row_identity
            if j in moved and manifest._identity_ids[j] in kept
        )
        assert moved and count == [rows]
        assert out.read_bytes() == formatted_path_bytes(expected, tmp_path / "oracle.csv")


class TestFallback:
    """Each copy the source cannot vouch for writes the formatted bytes."""

    def subset(self, tmp_path):
        manifest = load_manifest(synth_manifest(tmp_path))
        subset, _ = sample_random(manifest, 25, 8)
        assert subset._source is not None
        return subset

    def assert_formatted(self, subset, tmp_path):
        out = tmp_path / "out.csv"
        with formatted_rows() as count:
            write_manifest(subset, out)
        assert count == [len(subset.images)]
        assert out.read_bytes() == formatted_path_bytes(subset, tmp_path / "oracle.csv")
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp")] == []
        assert_sidecar_is_the_parse(out)

    def test_source_edited_in_place_at_the_same_size(self, tmp_path):
        subset = self.subset(tmp_path)
        path = tmp_path / "m.csv"
        data = bytearray(path.read_bytes())
        # one digit of the last row's last score
        data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
        path.write_bytes(bytes(data))
        self.assert_formatted(subset, tmp_path)

    def test_source_deleted(self, tmp_path):
        subset = self.subset(tmp_path)
        (tmp_path / "m.csv").unlink()
        self.assert_formatted(subset, tmp_path)

    @pytest.mark.parametrize("change", [b"", b"x,y,a,1.0,0.0,0.0,0.0\n"])
    def test_source_of_another_length(self, tmp_path, change):
        subset = self.subset(tmp_path)
        path = tmp_path / "m.csv"
        data = path.read_bytes()
        # a row fewer, or one more
        shorter = data[:data.rindex(b"\n", 0, -1) + 1]
        path.write_bytes(data + change if change else shorter)
        self.assert_formatted(subset, tmp_path)

    @pytest.mark.parametrize("style", ["short-floats", "crlf"])
    def test_source_fairbalance_did_not_write(self, tmp_path, style):
        path = tmp_path / "m.csv"
        newline = "\r\n" if style == "crlf" else "\n"
        lines = ["image_id,identity_id,group,score_a,score_b"] + [
            f"img{n},id{n % 5},{'ab'[n % 5 % 2]},0.50,0.50" for n in range(20)
        ]
        if style == "crlf":
            lines[1:] = [line.replace("0.50", "0.5") for line in lines[1:]]
        path.write_bytes(newline.join(lines).encode() + newline.encode())
        load_manifest(path)
        with csv_path_forbidden():
            manifest = load_manifest(path)
        assert manifest._source is None
        subset = manifest.remove_identities({"id1"})
        assert subset._source is None
        self.assert_formatted(subset, tmp_path)

    def test_out_over_its_own_source(self, capsys, tmp_path):
        path = synth_manifest(tmp_path)
        manifest = load_manifest(path)
        expected, _ = sample_random(manifest, 25, 8)
        expected_bytes = formatted_path_bytes(expected, tmp_path / "oracle.csv")
        assert main(["sample", str(path), "--protocol", "random", "--remove", "25",
                     "--seed", "8", "--out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_bytes() == expected_bytes
        # the sidecar now vouches for the subset
        assert_sidecar_is_the_parse(path)

    def test_copy_of_a_relative_path_survives_a_chdir(self, tmp_path, monkeypatch):
        synth_manifest(tmp_path)
        monkeypatch.chdir(tmp_path)
        manifest = load_manifest("m.csv")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        subset, _ = sample_random(manifest, 25, 8)
        with formatted_rows() as count:
            write_manifest(subset, "s.csv")
        assert count == [0]
        assert (elsewhere / "s.csv").read_bytes() == formatted_path_bytes(
            subset, tmp_path / "oracle.csv"
        )


def test_copy_path_peaks_no_higher_than_the_formatting_path(tmp_path):
    path = synth_manifest(tmp_path, identities=1500)
    manifest = load_manifest(path)
    subset, _ = sample_random(manifest, 2000, 5)
    assert subset._source is not None
    plain = Manifest._of_columns(
        subset.groups, subset._image_ids, subset._row_identity, subset._scores,
        subset._identity_ids, subset._identity_groups,
    )

    def peak(m, out):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            write_manifest(m, out)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    with formatted_rows() as count:
        copied = peak(subset, tmp_path / "copied.csv")
    assert count == [0]
    formatted = peak(plain, tmp_path / "formatted.csv")
    copied_bytes = (tmp_path / "copied.csv").read_bytes()
    assert copied_bytes == (tmp_path / "formatted.csv").read_bytes()
    assert copied <= formatted, (copied, formatted)
