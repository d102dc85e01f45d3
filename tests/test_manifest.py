"""Manifest loading, validation, serialization and summaries."""

import errno
import hashlib
import json
import math
import os
import threading
import tracemalloc
from array import array
from collections import Counter
from contextlib import contextmanager
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairbalance import (
    DEFAULT_GROUPS,
    GroupSet,
    IdentityRecord,
    ImageRecord,
    InternalInvariantError,
    Manifest,
    ManifestError,
    PairRecord,
    SynthConfig,
    generate,
    load_manifest,
    summarize,
    write_manifest,
)
from fairbalance import _sidecar
from fairbalance import manifest as manifest_module
from fairbalance.cli import main

from _oracles import load_manifest_oracle, write_manifest_oracle
from conftest import build_manifest

HEADER4 = "image_id,identity_id,group,score_African,score_Asian,score_Caucasian,score_Indian"


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestGroupSet:
    def test_basic(self):
        gs = GroupSet(("x", "y", "z"))
        assert gs.d == 3
        assert gs.index("y") == 1
        assert gs.score_columns() == ["score_x", "score_y", "score_z"]

    def test_unknown_label(self):
        with pytest.raises(ManifestError, match="unknown group"):
            GroupSet(("x", "y")).index("z")

    @pytest.mark.parametrize("labels", [("x",), ("x", "x"), ("x", ""), ("x", 3)])
    def test_invalid_label_sets(self, labels):
        with pytest.raises(ManifestError):
            GroupSet(labels)

    def test_default_groups(self):
        assert DEFAULT_GROUPS.labels == ("African", "Asian", "Caucasian", "Indian")


class TestLoad:
    def test_two_valid_rows(self, tmp_path):
        path = write_text(
            tmp_path / "m.csv",
            HEADER4 + "\n"
            "img1,idA,African,0.7,0.1,0.1,0.1\n"
            "img2,idB,Asian,0.25,0.25,0.25,0.25\n",
        )
        m = load_manifest(path)
        assert len(m.images) == 2
        assert m.groups.labels == ("African", "Asian", "Caucasian", "Indian")
        assert m.images[0].scores == (0.7, 0.1, 0.1, 0.1)
        assert m.identity_count == 2
        assert m.group_counts == (1, 1, 0, 0)

    def test_sum_violation_names_the_line(self, tmp_path):
        path = write_text(
            tmp_path / "m.csv",
            HEADER4 + "\nimg1,idA,African,0.6,0.1,0.1,0.1\n",
        )
        with pytest.raises(ManifestError, match="line 2"):
            load_manifest(path)

    def test_identity_in_two_groups_fatal_even_permissive(self, tmp_path):
        path = write_text(
            tmp_path / "m.csv",
            HEADER4 + "\n"
            "img1,X,African,0.7,0.1,0.1,0.1\n"
            "img2,X,Asian,0.1,0.7,0.1,0.1\n",
        )
        with pytest.raises(ManifestError, match="two groups"):
            load_manifest(path, permissive=True)

    def test_duplicate_image_id_fatal(self, tmp_path):
        path = write_text(
            tmp_path / "m.csv",
            HEADER4 + "\n"
            "img1,A,African,0.7,0.1,0.1,0.1\n"
            "img1,B,Asian,0.1,0.7,0.1,0.1\n",
        )
        with pytest.raises(ManifestError, match="duplicate image_id"):
            load_manifest(path, permissive=True)

    def test_permissive_skips_and_counts(self, tmp_path):
        path = write_text(
            tmp_path / "m.csv",
            HEADER4 + "\n"
            "img1,A,African,0.7,0.1,0.1,0.1\n"
            "img2,B,Martian,0.7,0.1,0.1,0.1\n"
            "img3,C,Asian,0.1,bad,0.1,0.1\n"
            "img4,D,Asian,0.1,0.7,0.1,0.1\n",
        )
        with pytest.raises(ManifestError, match="rejected 2 row"):
            load_manifest(path)
        m = load_manifest(path, permissive=True)
        assert len(m.images) == 2
        assert m.rejected_rows == 2

    def test_renormalizes_near_simplex_rows(self, tmp_path):
        path = write_text(
            tmp_path / "m.csv",
            HEADER4 + "\nimg1,A,African,0.6995,0.1,0.1,0.1\n",
        )
        m = load_manifest(path)
        assert abs(math.fsum(m.images[0].scores) - 1.0) <= 1e-9

    def test_exact_rows_kept_bitwise(self, tmp_path):
        scores = (0.7, 0.1, 0.1, 0.1)
        path = write_text(
            tmp_path / "m.csv",
            HEADER4 + "\nimg1,A,African," + ",".join(repr(s) for s in scores) + "\n",
        )
        m = load_manifest(path)
        assert m.images[0].scores == scores

    def test_score_out_of_range_rejected(self, tmp_path):
        path = write_text(
            tmp_path / "m.csv",
            HEADER4 + "\nimg1,A,African,1.2,-0.2,0.0,0.0\n",
        )
        with pytest.raises(ManifestError, match=r"outside \[0, 1\]"):
            load_manifest(path)

    def test_header_errors(self, tmp_path):
        cases = [
            ("identity_id,image_id,group,score_a,score_b", "must start with"),
            (HEADER4 + ",score_African", "duplicate columns"),
            ("image_id,identity_id,group,points_a,points_b", "unexpected column"),
            ("image_id,identity_id,group,score_a", "bad score columns"),
        ]
        for header, fragment in cases:
            path = write_text(tmp_path / "h.csv", header + "\nx,y,a,0.5,0.5\n")
            with pytest.raises(ManifestError, match=fragment):
                load_manifest(path)

    def test_explicit_groups_must_match_header(self, tmp_path):
        path = write_text(
            tmp_path / "m.csv",
            "image_id,identity_id,group,score_a,score_b\nimg1,A,a,0.5,0.5\n",
        )
        assert load_manifest(path, groups=GroupSet(("a", "b"))).groups.d == 2
        with pytest.raises(ManifestError, match="do not match"):
            load_manifest(path, groups=GroupSet(("b", "a")))

    def test_empty_file_and_empty_manifest(self, tmp_path):
        path = write_text(tmp_path / "m.csv", "")
        with pytest.raises(ManifestError, match="empty file"):
            load_manifest(path)
        path = write_text(tmp_path / "m2.csv", HEADER4 + "\n")
        with pytest.raises(ManifestError, match="empty manifest"):
            load_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="cannot read"):
            load_manifest(str(tmp_path / "nope.csv"))

    def test_bom_and_crlf_accepted(self, tmp_path):
        raw = (
            "﻿image_id,identity_id,group,score_a,score_b\r\n"
            "img1,A,a,0.5,0.5\r\n"
        )
        path = write_text(tmp_path / "m.csv", raw)
        m = load_manifest(path)
        assert m.images[0].image_id == "img1"


# Rows the loader rejects, one per reason; {n} is the row's image id number.
BAD_ROWS = (
    "img{n},bad{n},Martian,0.25,0.25,0.25,0.25",
    "img{n},bad{n},African,0.25,x,0.25,0.25",
    "img{n},bad{n},African,1.5,-0.5,0.0,0.0",
    "img{n},bad{n},African,0.125,0.125,0.125,0.125",
    "img{n},bad{n},African,0.5,0.5",
    "img{n},,African,0.25,0.25,0.25,0.25",
    "im\x01g{n},bad{n},African,0.25,0.25,0.25,0.25",
    "img{n},bad\x00{n},African,0.25,0.25,0.25,0.25",
    "img{n}\x7f,bad{n}\x9f,African,0.25,0.25,0.25,0.25",
)

# a valid row: identity number (its group is that number mod 4), raw
# weights, and a factor that moves the score sum off 1 by up to 4e-4, by
# 1e-9 (both renormalized) or by 1e-13 (kept as written)
valid_row = st.tuples(
    st.integers(0, 5),
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
        lambda w: math.fsum(w) > 0
    ),
    st.sampled_from([1.0, 1 - 4e-4, 1 - 1e-9, 1 - 1e-13]),
)


def row_bits(images):
    return [
        (img.image_id, img.identity_id, img.group, [s.hex() for s in img.scores])
        for img in images
    ]


class TestOnePassLoad:
    """load_manifest checks and renormalizes in the pass that parses the
    rows; Manifest.from_images over the same parsed rows is its oracle."""

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.one_of(valid_row, st.sampled_from(BAD_ROWS)), min_size=1, max_size=25
        )
    )
    def test_equals_from_images_over_parsed_rows(self, tmp_path_factory, rows):
        lines, parsed = [HEADER4], []
        for n, row in enumerate(rows):
            if isinstance(row, str):
                lines.append(row.format(n=n))
                continue
            ident, weights, factor = row
            total = math.fsum(weights)
            scores = tuple(w / total * factor for w in weights)
            lines.append(
                f"img{n},id{ident},{DEFAULT_GROUPS.labels[ident % 4]},"
                + ",".join(repr(v) for v in scores)
            )
            parsed.append(ImageRecord(f"img{n}", f"id{ident}", ident % 4, scores))
        path = write_text(
            tmp_path_factory.mktemp("load") / "m.csv", "\n".join(lines) + "\n"
        )
        rejected = len(rows) - len(parsed)

        if rejected:
            with pytest.raises(ManifestError, match=f"rejected {rejected} row"):
                load_manifest(path)
        if not parsed:
            with pytest.raises(ManifestError, match="empty manifest"):
                load_manifest(path, permissive=True)
            return
        loaded = load_manifest(path, permissive=True)
        expected = Manifest.from_images(DEFAULT_GROUPS, parsed, rejected)
        assert row_bits(loaded.images) == row_bits(expected.images)
        assert loaded == expected
        assert loaded.identities == expected.identities
        assert loaded.group_counts == expected.group_counts
        assert loaded.rejected_rows == expected.rejected_rows == rejected


# a valid row as above, with zeros of both signs among the weights and a
# twist: 0 reuses the image id img0 (a duplicate unless that row was
# rejected), 1 moves the row to the next group (an identity in two groups)
oracle_row = st.tuples(
    st.integers(0, 5),
    st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0])),
        min_size=4,
        max_size=4,
    ).filter(lambda w: math.fsum(w) > 0),
    st.sampled_from([1.0, 1 - 4e-4, 1 - 1e-9, 1 - 1e-13]),
    st.integers(0, 19),
)


class TestColumnarLoad:
    """The columnar loader and writer against the row-record ones kept in
    ``_oracles``: same rows (scores by ``.hex()``), identities, counts and
    errors, and the same bytes written."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.one_of(oracle_row, st.sampled_from(BAD_ROWS)), min_size=1, max_size=25
        ),
        permissive=st.booleans(),
    )
    def test_matches_row_record_oracle(self, tmp_path_factory, rows, permissive):
        lines = [HEADER4]
        for n, row in enumerate(rows):
            if isinstance(row, str):
                lines.append(row.format(n=n))
                continue
            ident, weights, factor, twist = row
            total = math.fsum(weights)
            scores = [w / total * factor for w in weights]
            image_id = "img0" if twist == 0 else f"img{n}"
            group = DEFAULT_GROUPS.labels[(ident + (twist == 1)) % 4]
            lines.append(
                f"{image_id},id{ident},{group}," + ",".join(map(repr, scores))
            )
        directory = tmp_path_factory.mktemp("columnar")
        path = write_text(directory / "m.csv", "\n".join(lines) + "\n")

        try:
            expected = load_manifest_oracle(path, DEFAULT_GROUPS, permissive)
        except ManifestError as exc:
            with pytest.raises(ManifestError) as caught:
                load_manifest(path, permissive=permissive)
            assert str(caught.value) == str(exc)
            return
        images, identities, group_counts, rejected = expected
        loaded = load_manifest(path, permissive=permissive)
        assert row_bits(loaded.images) == row_bits(images)
        assert list(loaded.identities) == list(identities)
        assert dict(loaded.identities.items()) == identities
        assert loaded.group_counts == group_counts
        assert loaded.rejected_rows == rejected

        write_manifest(loaded, str(directory / "columnar.csv"))
        write_manifest_oracle(DEFAULT_GROUPS, images, directory / "records.csv")
        assert (directory / "columnar.csv").read_bytes() == (
            directory / "records.csv"
        ).read_bytes()

    def test_load_memory_per_image(self, tmp_path):
        config = SynthConfig(
            seed=11,
            groups=DEFAULT_GROUPS,
            identities_per_group=(500,),
            images_per_identity=(1, 8),
            concentration=(2.0, 4.0, 6.0, 8.0),
            label_noise=0.05,
        )
        path = tmp_path / "m.csv"
        write_manifest(generate(config), str(path))
        # without its sidecar, the load parses the CSV
        sidecar_of(path).unlink()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            manifest = load_manifest(str(path))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(manifest.images)
        assert (retained - base) / n < 160, f"{(retained - base) / n:.1f} B/image retained"
        assert (peak - base) / n < 300, f"{(peak - base) / n:.1f} B/image peak"


# Faults the chunked parse must send down the per-row path; {n} is the
# row's number and {i} its identity's. The first rows reject, one per
# reason; "renormalize" rows are valid but off 1 by 4e-4, "duplicate" reuses
# the previous row's image id, and "conflict" puts identity i in a second
# group.
REJECTS = (
    *BAD_ROWS,
    "img{n},id{i},African,nan,0.25,0.25,0.25",
    "img{n},id{i},African,inf,0.25,0.25,0.25",
    "img{n},id{i},African,1.0005,0.0,0.0,0.0",
    "img{n},id{i},African,-0.0005,0.5,0.5,0.0005",
    "img{n},id{i},{group},0.25,0.25,0.25,0.25,0.0",
)
STRUCTURAL = ("renormalize", "duplicate", "conflict")


def chunked_rows(identities, faults):
    """Per row, for the identity numbers ``identities`` and the faults by
    row number ``faults``: its line and, unless it is rejected, its record
    with the scores as written."""
    rows = []
    weights = (0.125, 0.375, 0.0625, 0.4375)
    for n, i in enumerate(identities):
        fault = faults.get(n)
        group = (i + (fault == "conflict")) % 4
        label = DEFAULT_GROUPS.labels[group]
        if fault in REJECTS:
            rows.append((fault.format(n=n, i=i, group=label), None))
            continue
        image_id = f"img{max(n - 1, 0)}" if fault == "duplicate" else f"img{n}"
        scale = 1 - 4e-4 if fault == "renormalize" else 1.0
        scores = tuple(w * scale for w in weights[i % 4:] + weights[:i % 4])
        line = f"{image_id},id{i},{label}," + ",".join(map(repr, scores))
        rows.append((line, ImageRecord(image_id, f"id{i}", group, scores)))
    return rows


@st.composite
def chunked_csv(draw):
    """A chunk size of 1 to 5 records and the rows of a manifest with one
    to three faults, each on one side of a chunk boundary."""
    chunk = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4 * chunk + 2))
    edges = sorted({p for j in range(n // chunk + 1) for p in (j * chunk - 1, j * chunk)})
    faults = draw(
        st.dictionaries(
            st.sampled_from([p for p in edges if 0 <= p < n]),
            st.one_of(st.sampled_from(REJECTS), st.sampled_from(STRUCTURAL)),
            min_size=1,
            max_size=3,
        )
    )
    identities = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return chunk, chunked_rows(identities, faults)


def builder_state(columns):
    """Every column of a ``_Columns`` and what it has seen, by value."""
    return (
        list(columns.image_ids),
        columns.row_identity.tobytes(),
        columns.scores.tobytes(),
        list(columns.identity_ids),
        columns.identity_groups.tobytes(),
        dict(columns.index),
        set(columns.seen),
        columns.duplicate,
        columns.conflict,
    )


class TestExtend:
    """``_Columns.extend`` adds a clean chunk whole and refuses any other
    without changing the builder."""

    EARLIER = ("img0", "id0", "African", (0.25,) * 4)

    @pytest.mark.parametrize(
        "fault, rows",
        [
            ("empty id", [("img1", "", "African")]),
            ("control character", [("img\x01", "id1", "African")]),
            ("unknown group", [("img1", "id1", "Martian")]),
            ("non-numeric score", [("img1", "id1", "African", ("x", 0.25, 0.25, 0.25))]),
            ("nan score", [("img1", "id1", "African", ("nan", 0.25, 0.25, 0.25))]),
            ("score above 1", [("img1", "id1", "African", (1.5, -0.5, 0.0, 0.0))]),
            ("bad sum", [("img1", "id1", "African", (0.125,) * 4)]),
            ("duplicate in chunk", [("img1", "id1", "African"), ("img1", "id2", "Asian")]),
            ("duplicate of earlier", [("img0", "id1", "African")]),
            ("conflict in chunk", [("img1", "id1", "African"), ("img2", "id1", "Asian")]),
            ("conflict with earlier", [("img1", "id0", "Asian")]),
        ],
    )
    def test_refused_chunk_changes_nothing(self, fault, rows):
        columns = manifest_module._Columns(DEFAULT_GROUPS)
        assert columns.add(*self.EARLIER) is None
        # a clean row first, so the fault is not the chunk's only row
        rows = [("img9", "id9", "Indian"), *rows]
        rows = [row if len(row) == 4 else (*row, (0.25,) * 4) for row in rows]
        image_ids, identity_ids, labels, cells = zip(*rows)
        before = builder_state(columns)
        assert not columns.extend(
            list(image_ids), list(identity_ids), list(labels),
            [str(c) for row in cells for c in row],
        ), fault
        assert builder_state(columns) == before

    def test_clean_chunk_is_added_as_by_add(self):
        rows = [
            ("img1", "id1", "African", ("0.5", "0.5", "0", "0")),
            ("img2", "id0", "African", ("0.2502", "0.25", "0.25", "0.25")),
            ("img3", "id2", "Asian", ("0.1", "0.2", "0.3", "0.4")),
        ]
        bulk, single = (manifest_module._Columns(DEFAULT_GROUPS) for _ in range(2))
        for columns in (bulk, single):
            assert columns.add(*self.EARLIER) is None
        image_ids, identity_ids, labels, cells = zip(*rows)
        assert bulk.extend(
            list(image_ids), list(identity_ids), list(labels),
            [c for row in cells for c in row],
        )
        for row in rows:
            assert single.add(*row) is None
        assert builder_state(bulk) == builder_state(single)


class TestChunkedParse:
    """The CSV parse checks records a chunk at a time and sends any chunk
    that is not clean through the per-row check. With the chunk size
    patched small and faults next to chunk boundaries, the cold load equals
    the row-record loader in ``_oracles``, and ``Manifest.from_images`` over
    the rows it keeps."""

    @settings(max_examples=300, deadline=None)
    @given(case=chunked_csv(), permissive=st.booleans())
    # each structural fault inside a chunk and across a boundary
    @example(case=(3, chunked_rows([0, 1, 2, 3], {2: "duplicate"})), permissive=False)
    @example(case=(2, chunked_rows([0, 1, 2], {2: "duplicate"})), permissive=False)
    @example(case=(3, chunked_rows([0, 0, 1], {1: "conflict"})), permissive=False)
    @example(case=(2, chunked_rows([0, 1, 0], {2: "conflict"})), permissive=False)
    @example(case=(2, chunked_rows([0, 1, 2, 3], {1: "renormalize", 2: "renormalize"})),
             permissive=False)
    def test_matches_oracle_across_chunk_boundaries(self, tmp_path_factory, case, permissive):
        chunk, rows = case
        path = write_text(
            tmp_path_factory.mktemp("chunked") / "m.csv",
            "\n".join([HEADER4, *(line for line, _ in rows)]) + "\n",
        )
        try:
            expected = load_manifest_oracle(path, DEFAULT_GROUPS, permissive)
        except ManifestError as exc:
            expected = str(exc)
        with mock.patch.object(manifest_module, "_CHUNK_ROWS", chunk):
            try:
                loaded = load_manifest(path, permissive=permissive)
            except ManifestError as exc:
                loaded = str(exc)
        if isinstance(expected, str):
            assert loaded == expected
        else:
            images, identities, group_counts, rejected = expected
            assert row_bits(loaded.images) == row_bits(images)
            assert dict(loaded.identities.items()) == identities
            assert loaded.group_counts == group_counts
            assert loaded.rejected_rows == rejected

        kept = [record for _, record in rows if record is not None]
        if not kept or (len(kept) < len(rows) and not permissive):
            return
        try:
            built = Manifest.from_images(DEFAULT_GROUPS, kept, len(rows) - len(kept))
        except ManifestError as exc:
            built = str(exc)
        if isinstance(built, str):
            assert loaded == built
        else:
            assert loaded == built
            assert row_bits(loaded.images) == row_bits(built.images)
            assert loaded.rejected_rows == built.rejected_rows


def sidecar_of(path):
    """Where ``load_manifest`` keeps the sidecar of the CSV ``path``."""
    return path.with_name(f".{path.name}.fbcache")


def column_bits(m):
    """Every column of a manifest, arrays by their bytes and scores by
    ``.hex()``, with its identity order, counts and groups."""
    return (
        m.groups.labels,
        list(m._image_ids),
        list(m._identity_ids),
        (m._row_identity.typecode, m._row_identity.tobytes().hex()),
        (m._identity_groups.typecode, m._identity_groups.tobytes().hex()),
        (m._scores.typecode, [s.hex() for s in m._scores]),
        list(m.identities),
        m.group_counts,
        m.rejected_rows,
    )


@contextmanager
def csv_path_forbidden():
    """Fail the test if a load parses the CSV instead of reading its sidecar."""

    def parse(*_args):
        raise AssertionError("parsed the CSV despite a sidecar")

    with mock.patch("fairbalance.manifest._parse", parse):
        yield


@contextmanager
def csv_parses_counted():
    """Count the loads that parse the CSV: yields a one-element list."""
    count = [0]
    real = manifest_module._parse

    def parse(*args):
        count[0] += 1
        return real(*args)

    with mock.patch("fairbalance.manifest._parse", parse):
        yield count


SMALL = (
    "image_id,identity_id,group,score_a,score_b\n"
    "img1,x,a,0.75,0.25\n"
    "img2,y,b,0.125,0.875\n"
    "img3,x,a,0.5,0.5\n"
)


class TestSidecar:
    """A clean load leaves a binary copy of the manifest's columns beside the
    CSV, and a later load of the same bytes reads it instead of parsing.
    Anything the sidecar cannot vouch for is a miss that takes the CSV path,
    so results, errors and exit codes never depend on it."""

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(oracle_row, min_size=1, max_size=25),
        bom=st.booleans(),
        crlf=st.booleans(),
    )
    def test_hit_equals_the_csv_load(self, tmp_path_factory, rows, bom, crlf):
        lines = [HEADER4]
        for n, (ident, weights, factor, _twist) in enumerate(rows):
            total = math.fsum(weights)
            scores = [w / total * factor for w in weights]
            # one group per identity, so that the load is clean
            group = DEFAULT_GROUPS.labels[ident % 4]
            lines.append(f"img{n},id{ident},{group}," + ",".join(map(repr, scores)))
        newline = "\r\n" if crlf else "\n"
        path = tmp_path_factory.mktemp("sidecar") / "m.csv"
        path.write_text(
            ("\ufeff" if bom else "") + newline.join(lines) + newline,
            encoding="utf-8",
            newline="",
        )
        parsed = load_manifest(path)
        assert sidecar_of(path).is_file()
        with csv_path_forbidden():
            hit = load_manifest(path)
            named = load_manifest(path, groups=DEFAULT_GROUPS, permissive=True)
        assert column_bits(hit) == column_bits(parsed) == column_bits(named)
        assert hit == parsed and hit.identities == parsed.identities

    def test_one_byte_edit_of_the_same_size_is_a_miss(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(SMALL, encoding="utf-8")
        load_manifest(path)
        path.write_text(SMALL.replace("img2", "imh2"), encoding="utf-8")
        with csv_parses_counted() as parses:
            edited = load_manifest(path)
        assert parses == [1]
        assert list(edited._image_ids) == ["img1", "imh2", "img3"]
        with csv_path_forbidden():
            assert load_manifest(path) == edited

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "garbage", "other-csv", "flipped", "row-index", "group-index"],
    )
    def test_damaged_sidecar_is_ignored_then_rewritten(self, tmp_path, damage):
        path = tmp_path / "m.csv"
        path.write_text(SMALL, encoding="utf-8")
        loaded = load_manifest(path)
        expected = column_bits(loaded)
        good = sidecar_of(path).read_bytes()
        if damage in ("row-index", "group-index"):
            # a well-formed sidecar, checksum and all, whose indices point
            # past the identities or the groups
            columns = {
                "image_ids": loaded._image_ids,
                "row_identity": loaded._row_identity,
                "scores": loaded._scores,
                "identity_ids": loaded._identity_ids,
                "identity_groups": loaded._identity_groups,
            }
            if damage == "row-index":
                columns["row_identity"] = array("I", [0, 1, 2])
            else:
                columns["identity_groups"] = array("I", [0, 2])
            bad = Manifest._of_columns(loaded.groups, **columns)
            _sidecar._store(path, _sidecar._key(path), bad)
            assert sidecar_of(path).read_bytes() != good
        elif damage == "truncated":
            sidecar_of(path).write_bytes(good[: len(good) // 2])
        elif damage == "garbage":
            sidecar_of(path).write_bytes(b"\x00garbage\n" * 40)
        elif damage == "other-csv":
            other = tmp_path / "other.csv"
            other.write_text(SMALL.replace("0.75,0.25", "0.625,0.375"), encoding="utf-8")
            load_manifest(other)
            sidecar_of(other).replace(sidecar_of(path))
        else:
            # one bit of a score (the ids and the checksum take the last 23
            # bytes), with the header and every length intact
            flipped = bytearray(good)
            flipped[-30] ^= 0x01
            sidecar_of(path).write_bytes(bytes(flipped))
        with csv_parses_counted() as parses:
            assert column_bits(load_manifest(path)) == expected
        assert parses == [1]
        assert sidecar_of(path).read_bytes() == good

    def test_stale_loader_or_foreign_owner_is_a_miss(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(SMALL, encoding="utf-8")
        load_manifest(path)
        with csv_parses_counted() as parses:
            with mock.patch.object(_sidecar, "_code_crc", _sidecar._code_crc ^ 1):
                load_manifest(path)
            # the sidecar now holds the other loader's key
            load_manifest(path)
            load_manifest(path)
            assert parses == [2]
            with mock.patch.object(_sidecar.os, "geteuid", lambda: os.getuid() + 1):
                load_manifest(path)
            load_manifest(path)
        assert parses == [3]

    def test_unwritable_directory_loads_normally(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(SMALL, encoding="utf-8")

        def refuse(*_args, **_kwargs):
            raise PermissionError(errno.EACCES, "Permission denied")

        keys = mock.Mock(side_effect=_sidecar._key)
        # what a read-only directory gives atomic_write, also for root
        with mock.patch("fairbalance._util.os.open", refuse), mock.patch.object(
            _sidecar, "_key", keys
        ):
            first = load_manifest(path)
        assert not sidecar_of(path).exists()
        # the key is checked again only once a temp file exists
        assert keys.call_count == 1
        sidecar_of(path).mkdir()
        second = load_manifest(path)
        assert column_bits(first) == column_bits(second)
        assert sorted(p.name for p in tmp_path.iterdir()) == [".m.csv.fbcache", "m.csv"]

    def test_groups_mismatch_keeps_the_csv_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(SMALL, encoding="utf-8")
        swapped = GroupSet(("b", "a"))
        with pytest.raises(ManifestError) as without:
            load_manifest(path, groups=swapped)
        load_manifest(path)
        assert sidecar_of(path).is_file()
        with pytest.raises(ManifestError) as with_sidecar:
            load_manifest(path, groups=swapped)
        assert str(with_sidecar.value) == str(without.value)
        assert "do not match" in str(without.value)

    def test_only_a_clean_load_writes_one(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(SMALL + "img4,z,a,0.9,0.9\n", encoding="utf-8")
        assert main(["validate", "--permissive", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["rejected_rows"] == 1
        assert main(["validate", str(path)]) == 1
        duplicate = tmp_path / "d.csv"
        duplicate.write_text(SMALL + "img1,z,a,0.5,0.5\n", encoding="utf-8")
        assert main(["validate", str(duplicate)]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "m.csv"]

    def test_csv_changed_during_the_parse_gets_none(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(SMALL, encoding="utf-8")
        real = manifest_module._parse

        def parse_then_edit(*args):
            manifest = real(*args)
            path.write_text(SMALL.replace("img3", "img4"), encoding="utf-8")
            return manifest

        with mock.patch("fairbalance.manifest._parse", parse_then_edit):
            load_manifest(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_is_read_once_and_gets_none(self, tmp_path):
        fifo = tmp_path / "m.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(SMALL,))
        writer.start()
        # an open only to take a key could make the pipe drop its data
        with mock.patch("builtins.open", wraps=open) as opened:
            try:
                from_pipe = load_manifest(fifo)
            finally:
                writer.join()
        assert [c for c in opened.call_args_list if c.args[0] == fifo] == [
            mock.call(fifo, encoding="utf-8-sig", newline="")
        ]
        plain = tmp_path / "plain.csv"
        plain.write_text(SMALL, encoding="utf-8")
        assert column_bits(from_pipe) == column_bits(load_manifest(plain))
        assert not sidecar_of(fifo).exists()

    def test_file_descriptor_is_read_once_and_gets_none(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(SMALL, encoding="utf-8")
        from_fd = load_manifest(os.open(path, os.O_RDONLY))
        assert not sidecar_of(path).exists()
        assert column_bits(from_fd) == column_bits(load_manifest(path))

    def test_load_memory_per_image_on_a_hit(self, tmp_path):
        config = SynthConfig(
            seed=11,
            groups=DEFAULT_GROUPS,
            identities_per_group=(500,),
            images_per_identity=(1, 8),
            concentration=(2.0, 4.0, 6.0, 8.0),
            label_noise=0.05,
        )
        path = tmp_path / "m.csv"
        write_manifest(generate(config), str(path))
        load_manifest(path)
        with csv_path_forbidden():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                manifest = load_manifest(str(path))
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        n = len(manifest.images)
        assert (retained - base) / n < 160, f"{(retained - base) / n:.1f} B/image retained"
        # the ids are read a chunk at a time, so the peak is what it keeps
        assert (peak - base) / n < 160, f"{(peak - base) / n:.1f} B/image peak"


class TestRowsByIdentity:
    """Rows that never go back to an earlier identity are their own index;
    any other order takes a stable sort. Both give the sorted rows."""

    @settings(max_examples=100, deadline=None)
    @given(identities=st.lists(st.integers(0, 6), min_size=1, max_size=30),
           grouped=st.booleans())
    def test_rows_and_starts_equal_a_stable_sort(self, identities, grouped):
        if grouped:
            identities.sort()
        m = build_manifest(
            ("a", "b"),
            [(f"img{n}", f"id{k}", k % 2, (0.5, 0.5)) for n, k in enumerate(identities)],
        )
        row_identity = m._row_identity
        if grouped:
            assert list(row_identity) == sorted(row_identity)
        rows, starts = m._rows_by_identity()
        counts = Counter(row_identity)
        assert rows.typecode == starts.typecode == "I"
        assert list(rows) == sorted(range(len(row_identity)), key=row_identity.__getitem__)
        assert list(starts) == list(
            accumulate((counts[j] for j in range(m.identity_count)), initial=0)
        )


class TestLoadErrorPrecedence:
    """Rejected rows (strict mode) first, then the first duplicated image id
    in file order, then an identity found in two groups."""

    def test_rejected_rows_come_first(self, tmp_path):
        path = write_text(
            tmp_path / "m.csv",
            HEADER4 + "\n"
            "img1,X,African,0.7,0.1,0.1,0.1\n"
            "img2,X,Asian,0.1,0.7,0.1,0.1\n"
            "img1,X,African,0.7,0.1,0.1,0.1\n"
            "img3,Y,Martian,0.7,0.1,0.1,0.1\n",
        )
        with pytest.raises(ManifestError, match="rejected 1 row"):
            load_manifest(path)
        with pytest.raises(ManifestError, match="duplicate image_id: 'img1'"):
            load_manifest(path, permissive=True)

    def test_first_duplicate_in_file_order_before_identity_conflict(
        self, tmp_path
    ):
        path = write_text(
            tmp_path / "m.csv",
            HEADER4 + "\n"
            "a,X,African,0.7,0.1,0.1,0.1\n"
            "b,X,Asian,0.1,0.7,0.1,0.1\n"
            "c,Y,African,0.7,0.1,0.1,0.1\n"
            "c,Y,African,0.7,0.1,0.1,0.1\n"
            "a,X,African,0.7,0.1,0.1,0.1\n",
        )
        with pytest.raises(ManifestError, match="duplicate image_id: 'c'"):
            load_manifest(path)

    def test_rejected_row_is_no_duplicate(self, tmp_path):
        path = write_text(
            tmp_path / "m.csv",
            HEADER4 + "\n"
            "img1,X,Martian,0.7,0.1,0.1,0.1\n"
            "img1,X,African,0.7,0.1,0.1,0.1\n"
            "img2,X,Asian,0.1,0.7,0.1,0.1\n",
        )
        with pytest.raises(ManifestError, match="'X' appears in two groups"):
            load_manifest(path, permissive=True)


class TestRoundTrip:
    def test_write_then_load_is_equal(self, tmp_path):
        m = build_manifest(
            ("a", "b"),
            [
                ("i1", "x", 0, (0.9, 0.1)),
                ("i2", "x", 0, (0.8, 0.2)),
                ("i3", "y", 1, (0.3, 0.7)),
            ],
        )
        path = str(tmp_path / "m.csv")
        write_manifest(m, path)
        again = load_manifest(path)
        assert again == m
        assert [img.scores for img in again.images] == [
            img.scores for img in m.images
        ]

    def test_second_write_is_byte_identical(self, tmp_path):
        m = build_manifest(
            ("a", "b", "c"),
            [("i1", "x", 0, (0.5, 0.25, 0.25)), ("i2", "y", 2, (0.1, 0.2, 0.7))],
        )
        p1, p2 = str(tmp_path / "1.csv"), str(tmp_path / "2.csv")
        write_manifest(m, p1)
        write_manifest(load_manifest(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_refuses_empty(self, tmp_path):
        m = build_manifest(("a", "b"), [("i1", "x", 0, (1.0, 0.0))])
        empty = m.remove_identities(["x"])
        with pytest.raises(ManifestError, match="empty manifest"):
            write_manifest(empty, str(tmp_path / "e.csv"))

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.lists(
                    st.floats(0.001, 1.0, allow_nan=False), min_size=3, max_size=3
                ),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, rows):
        images = []
        for n, (grp, raw) in enumerate(rows):
            total = math.fsum(raw)
            scores = tuple(v / total for v in raw)
            images.append((f"img{n}", f"id{n}", grp, scores))
        m = build_manifest(("a", "b", "c"), images)
        path = str(tmp_path_factory.mktemp("rt") / "m.csv")
        write_manifest(m, path)
        assert load_manifest(path) == m


class TestManifestModel:
    def test_identity_partition(self, two_groups):
        m = two_groups
        assert sum(m.group_counts) == m.identity_count
        spread = [img_id for rec in m.identities.values() for img_id in rec.image_ids]
        assert sorted(spread) == sorted(img.image_id for img in m.images)

    def test_first_appearance_order(self):
        m = build_manifest(
            ("a", "b"),
            [
                ("i1", "late", 0, (0.9, 0.1)),
                ("i2", "early", 1, (0.2, 0.8)),
                ("i3", "late", 0, (0.8, 0.2)),
            ],
        )
        assert list(m.identities) == ["late", "early"]
        assert m.identities["late"].image_ids == ("i1", "i3")

    def test_remove_identities(self, two_groups):
        sub = two_groups.remove_identities(["b"])
        assert sub.identity_count == 3
        assert [img.image_id for img in sub.images] == ["i1", "i3", "i4"]
        assert sub.group_counts == (1, 2)

    def test_from_images_rejects_wrong_width(self):
        with pytest.raises(ManifestError, match="expected 2 scores"):
            build_manifest(("a", "b"), [("i1", "x", 0, (1.0,))])

    def test_row_records_have_no_instance_dict(self):
        records = (
            ImageRecord("i1", "x", 0, (1.0, 0.0)),
            IdentityRecord("x", 0, ("i1",)),
            PairRecord("g", similarity=0.5, is_genuine=True),
        )
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__

    @pytest.mark.parametrize(
        "image_id, identity_id", [("im\x01g", "x"), ("i1", "id\x00x"), ("i1\x9f", "x")]
    )
    def test_from_images_rejects_control_characters(self, image_id, identity_id):
        with pytest.raises(ManifestError, match="control character"):
            build_manifest(("a", "b"), [(image_id, identity_id, 0, (0.5, 0.5))])

    def test_views_build_records_on_access(self, two_groups):
        m = two_groups
        assert m.images[-1] == ImageRecord("i4", "d", 1, (0.06, 0.94))
        assert m.images[1:3] == [m.images[1], m.images[2]]
        with pytest.raises(IndexError):
            m.images[4]
        assert m.identities["b"] == IdentityRecord("b", 0, ("i2",))
        assert "b" in m.identities and "zz" not in m.identities
        with pytest.raises(KeyError):
            m.identities["zz"]
        assert [rec.identity_id for rec in m.identities_of_group(1)] == ["c", "d"]

    @pytest.mark.parametrize("column", ["scores", "row_identity", "identity_groups"])
    def test_mismatched_columns_are_internal_errors(self, two_groups, column):
        m = two_groups
        columns = {
            "image_ids": m._image_ids,
            "row_identity": m._row_identity,
            "scores": m._scores,
            "identity_ids": m._identity_ids,
            "identity_groups": m._identity_groups,
        }
        columns[column] = columns[column][:-1]
        with pytest.raises(InternalInvariantError, match="columns disagree"):
            Manifest._of_columns(m.groups, **columns)

    def test_from_images_rejects_bad_group_index(self):
        with pytest.raises(ManifestError, match="out of range"):
            build_manifest(("a", "b"), [("i1", "x", 5, (0.5, 0.5))])

    def test_from_images_rejects_non_numeric_score(self):
        with pytest.raises(ManifestError, match="non-numeric score$"):
            build_manifest(("a", "b"), [("i1", "x", 0, (None, 1.0))])

    @pytest.mark.parametrize(
        "fields, problem",
        [
            ((7, "x", 0, (0.5, 0.5)), "image_id and identity_id must be strings"),
            (("i1", b"x", 0, (0.5, 0.5)), "image_id and identity_id must be strings"),
            (("i1", "x", 1.0, (0.5, 0.5)), "group must be an integer index, got 1.0"),
            (("i1", "x", True, (0.5, 0.5)), "group must be an integer index, got True"),
            (("i1", "x", 0, None), "scores must be a sequence, got None"),
        ],
        ids=["int-id", "bytes-id", "float-group", "bool-group", "no-scores"],
    )
    def test_from_images_names_a_badly_typed_record(self, fields, problem):
        with pytest.raises(ManifestError) as caught:
            Manifest.from_images(GroupSet(("a", "b")), [ImageRecord(*fields)])
        assert str(caught.value) == f"{fields[0]!r}: {problem}"

    @pytest.mark.parametrize(
        "row",
        [
            ("i1", "x", 0, (1.5, 0.5)),
            ("i1", "x", 0, (0.2, 0.2)),
            ("", "x", 0, (0.5, 0.5)),
            ("i1", "i\x01d", 0, (0.5, 0.5)),
            ("i1", "x", 0, ("x", 0.5)),
        ],
        ids=["score-1.5", "sum-0.4", "empty-id", "control", "non-numeric"],
    )
    def test_from_images_uses_loader_problem_text(self, tmp_path, row):
        image_id, identity_id, group, scores = row
        path = write_text(
            tmp_path / "m.csv",
            "image_id,identity_id,group,score_a,score_b\n"
            f"{image_id},{identity_id},{'ab'[group]},{scores[0]},{scores[1]}\n",
        )
        with pytest.raises(ManifestError) as loaded:
            load_manifest(path)
        problem = str(loaded.value).split("first: line 2: ", 1)[1]
        with pytest.raises(ManifestError) as built:
            build_manifest(("a", "b"), [row])
        assert str(built.value) == f"{image_id!r}: {problem}"


class TestSummarize:
    def test_counts_and_naive_means(self):
        m = build_manifest(
            ("a", "b"),
            [
                ("i1", "x", 0, (0.9, 0.1)),
                ("i2", "x", 0, (0.7, 0.3)),
                ("i3", "y", 0, (0.6, 0.4)),
                ("i4", "z", 1, (0.2, 0.8)),
            ],
        )
        report = summarize(m)
        assert report["identities"] == 3
        assert report["per_group"]["a"]["identities"] == 2
        assert report["per_group"]["a"]["images"] == 3
        # identity x averages to 0.8, y is 0.6; group mean 0.7
        assert report["per_group"]["a"]["own_score"]["mean"] == pytest.approx(0.7)
        assert report["per_group"]["b"]["own_score"]["std"] is None

    def test_single_identity_deciles(self):
        m = build_manifest(("a", "b"), [("i1", "x", 0, (0.9, 0.1))])
        dist = summarize(m)["per_group"]["a"]["own_score"]
        assert dist["deciles"] == [0.9] * 9
        assert summarize(m)["per_group"]["b"]["own_score"] is None

    def test_summary_bytes_pinned_on_criterion_7_inputs(self, tmp_path):
        """The summaries of criterion 7's seeded synth and random-sample
        outputs, digested when summarize kept its own per-identity dict."""
        synth, sample = tmp_path / "synth.csv", tmp_path / "sample.csv"
        assert main(["synth", "--seed", "7", "--out", str(synth)]) == 0
        assert main(
            ["sample", str(synth), "--protocol", "random", "--seed", "7",
             "--remove", "40", "--out", str(sample)]
        ) == 0
        digests = {}
        for path in (synth, sample):
            out = tmp_path / f"{path.stem}.json"
            assert main(["summarize", str(path), "--out", str(out)]) == 0
            digests[path.stem] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == {
            "synth": "d28d33f41eed8af8065af35a572874043a718457cd106de7f8e9d9961c28c12e",
            "sample": "f84ff2bf7e96fd6140212bec6df03fb707e0caa40b0d524a3540e86d0c680154",
        }

    def test_summary_keys_are_json_ready(self):
        import json

        m = build_manifest(("a", "b"), [("i1", "x", 0, (0.9, 0.1))])
        json.dumps(summarize(m))
