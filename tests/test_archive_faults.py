"""Damaged archives and manifests, as known-answer tables.

Each table row is ``(damage, expected error)``: the damage is applied to
a freshly saved file, and loading must raise a ``ValueError`` that names
the damaged file and matches the expected text.  A failed mmap load
leaves no ``.mmap/`` sidecar directory behind.  A router over a damaged
or inconsistent layout refuses to open, so it never answers a query.
An unreadable manifest is handled differently: it stops the next save's
generation bump (a restarted counter would look older to a live router).
"""

from __future__ import annotations

import json
import re
import struct
import zipfile

import pytest

from repro.core.index import HC2LIndex
from repro.core.persistence import (
    MANIFEST_FILENAME,
    load_index,
    load_index_sharded,
    load_manifest,
    load_shard,
    save_index_sharded,
)
from repro.serving import ShardRouter

from helpers import random_query_pairs, rewrite_archive


@pytest.fixture(scope="module")
def built_index(request):
    return HC2LIndex.build(request.getfixturevalue("small_graph"))


@pytest.fixture(scope="module")
def pairs(small_graph):
    return random_query_pairs(small_graph, 60, seed=13)


# --------------------------------------------------------------------- #
# damage
# --------------------------------------------------------------------- #
def _flip_at(path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def _truncate_half(path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _cut_last_30_bytes(path) -> None:
    path.write_bytes(path.read_bytes()[:-30])


def _flip_in(member: str):
    """Flip one byte in the middle of ``member``'s compressed data."""

    def damage(path) -> None:
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo(member)
        local = path.read_bytes()[info.header_offset : info.header_offset + 30]
        name_length, extra_length = struct.unpack("<HH", local[26:30])
        start = info.header_offset + 30 + name_length + extra_length
        _flip_at(path, start + info.compress_size // 2)

    return damage


def _drop_member(name: str):
    return lambda path: rewrite_archive(path, drop=(name,))


def _edit_header(edit):
    return lambda path: rewrite_archive(path, edit_header=edit)


def _set_workers_zero(header) -> None:
    header["parameters"]["num_workers"] = 0


#: (damage to a single archive, expected error text after the file name)
ARCHIVE_DAMAGE = [
    ("truncated-half", _truncate_half, r"BadZipFile"),
    ("last-30-bytes-cut", _cut_last_30_bytes, r"BadZipFile"),
    ("flip-in-header", _flip_in("header.npy"), r"(BadZipFile|error): "),
    ("flip-in-label-values", _flip_in("label_values.npy"), r"(BadZipFile|error): "),
    ("missing-member", _drop_member("hier_vertex_node"), r"KeyError: 'hier_vertex_node"),
    ("missing-header-key", _edit_header(lambda header: header.pop("stats")), r"KeyError: 'stats'"),
    ("bad-parameter-value", _edit_header(_set_workers_zero), r"num_workers must be >= 1"),
]


@pytest.mark.parametrize("mmap_labels", [False, True], ids=["in-memory", "mmap"])
@pytest.mark.parametrize(
    "damage, expected", [row[1:] for row in ARCHIVE_DAMAGE], ids=[row[0] for row in ARCHIVE_DAMAGE]
)
def test_damaged_archive_raises_value_error(built_index, tmp_path, damage, expected, mmap_labels):
    path = tmp_path / "index.npz"
    built_index.save(path)
    damage(path)
    with pytest.raises(ValueError, match=re.escape(str(path)) + r".*" + expected):
        load_index(path, mmap_labels=mmap_labels)
    assert not (tmp_path / "index.npz.mmap").exists()


def test_any_flipped_byte_raises_or_loads_the_same_index(built_index, pairs, tmp_path):
    """Sweep single-byte flips across the archive: never a silent wrong index."""
    original = tmp_path / "original.npz"
    built_index.save(original)
    data = original.read_bytes()
    expected = built_index.distances(pairs).tolist()
    path = tmp_path / "flipped.npz"
    raised = 0
    for offset in range(0, len(data), max(1, len(data) // 199)):
        path.write_bytes(data)
        _flip_at(path, offset)
        try:
            loaded = load_index(path)
        except ValueError as error:
            assert str(path) in str(error), (offset, error)
            raised += 1
            continue
        assert loaded.flat_labelling() == built_index.flat_labelling(), offset
        assert loaded.distances(pairs).tolist() == expected, offset
    assert raised > 0


# --------------------------------------------------------------------- #
# sharded layout: damaged shard and base archives
# --------------------------------------------------------------------- #
#: (damaged file of a 2-shard layout, damage, expected error text)
LAYOUT_DAMAGE = [
    ("truncated-shard", "shard-0001.npz", _truncate_half, r"BadZipFile"),
    ("flipped-shard", "shard-0000.npz", _flip_in("label_values.npy"), r"(BadZipFile|error): "),
    ("truncated-base", "base.npz", _cut_last_30_bytes, r"BadZipFile"),
    ("flipped-base", "base.npz", _flip_in("header.npy"), r"(BadZipFile|error): "),
    ("base-missing-member", "base.npz", _drop_member("hier_core_position"), r"KeyError"),
]


@pytest.mark.parametrize(
    "filename, damage, expected",
    [row[1:] for row in LAYOUT_DAMAGE],
    ids=[row[0] for row in LAYOUT_DAMAGE],
)
def test_damaged_layout_never_answers(built_index, tmp_path, filename, damage, expected):
    path = tmp_path / "index.npz"
    layout = save_index_sharded(built_index, path, num_shards=2)
    damage(layout / filename)
    message = re.escape(str(layout / filename)) + r".*" + expected
    with pytest.raises(ValueError, match=message):
        load_index_sharded(path)
    with pytest.raises(ValueError, match=message):
        ShardRouter(path)
    assert not (layout / f"{filename}.mmap").exists()
    if filename.startswith("shard-"):
        with pytest.raises(ValueError, match=message):
            load_shard(path, int(filename[6:10]))


# --------------------------------------------------------------------- #
# sharded layout: manifests that disagree with their shards
# --------------------------------------------------------------------- #
def _set_boundaries(edges):
    def edit(manifest) -> None:
        n = manifest["core_num_vertices"]
        manifest["boundaries"] = [edge if edge != "n" else n for edge in edges]

    return edit


def _shift_interior_edge(manifest) -> None:
    manifest["boundaries"][1] += 3


def _interior_edge_past_end(manifest) -> None:
    manifest["boundaries"][1] = manifest["core_num_vertices"] + 5


def _swap_files(manifest) -> None:
    first, second = manifest["shards"]
    first["file"], second["file"] = second["file"], first["file"]


def _wrong_num_vertices(manifest) -> None:
    manifest["shards"][0]["num_vertices"] += 1


def _wrong_num_entries(manifest) -> None:
    manifest["shards"][1]["num_entries"] -= 1


def _wrong_num_levels(manifest) -> None:
    manifest["shards"][0]["num_levels"] += 1


#: (manifest edit on a 2-shard even layout, expected error text)
MANIFEST_DAMAGE = [
    ("boundaries-0-5-3", _set_boundaries([0, 5, 3]), r"do not run non-decreasing"),
    ("shifted-interior-edge", _shift_interior_edge, r"shard 0 has lo, hi, num_vertices"),
    ("non-monotone-edge", _interior_edge_past_end, r"do not run non-decreasing"),
    ("negative-edge", _set_boundaries([0, -1, "n"]), r"do not run non-decreasing"),
    ("end-short-of-core", _set_boundaries([0, 5, 10]), r"do not run non-decreasing"),
    ("wrong-num-vertices", _wrong_num_vertices, r"shard 0 has lo, hi, num_vertices"),
    ("swapped-files", _swap_files, r"holds \(vertices, levels, entries\)"),
    ("wrong-num-entries", _wrong_num_entries, r"holds \(vertices, levels, entries\)"),
    ("wrong-num-levels", _wrong_num_levels, r"holds \(vertices, levels, entries\)"),
]


@pytest.mark.parametrize(
    "edit, expected", [row[1:] for row in MANIFEST_DAMAGE], ids=[row[0] for row in MANIFEST_DAMAGE]
)
def test_inconsistent_manifest_never_answers(built_index, tmp_path, edit, expected):
    path = tmp_path / "index.npz"
    layout = save_index_sharded(built_index, path, num_shards=2)
    manifest_path = layout / MANIFEST_FILENAME
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ValueError, match=expected):
        load_index_sharded(path)
    with pytest.raises(ValueError, match=expected):
        ShardRouter(path)


def test_empty_shards_are_legal(built_index, small_graph, pairs, tmp_path):
    """Edges may repeat: a shard may own no vertices at all."""
    path = tmp_path / "index.npz"
    n = built_index.contraction.core.num_vertices
    save_index_sharded(built_index, path, boundaries=[0, 0, n // 2, n, n])
    _, manifest = load_manifest(path)
    assert [shard["num_vertices"] for shard in manifest["shards"]][::3] == [0, 0]
    router = ShardRouter(path)
    try:
        assert router.distances(pairs).tolist() == built_index.distances(pairs).tolist()
    finally:
        router.close()
    assert load_index_sharded(path).flat_labelling() == built_index.flat_labelling()


# --------------------------------------------------------------------- #
# sharded layout: the generation counter never restarts
# --------------------------------------------------------------------- #
#: (unreadable manifest.json text, expected error text)
UNREADABLE_MANIFESTS = [
    ("not-json", "{broken", r"JSONDecodeError"),
    ("no-generation", "{}", r"KeyError"),
    ("generation-not-a-number", '{"generation": "x"}', r"ValueError"),
    ("not-an-object", "[1]", r"TypeError"),
]


@pytest.mark.parametrize(
    "text, expected", [row[1:] for row in UNREADABLE_MANIFESTS], ids=[row[0] for row in UNREADABLE_MANIFESTS]
)
def test_unreadable_manifest_stops_the_generation_bump(built_index, tmp_path, text, expected):
    path = tmp_path / "index.npz"
    save_index_sharded(built_index, path, num_shards=2)
    layout = save_index_sharded(built_index, path, num_shards=2)
    _, manifest = load_manifest(path)
    assert manifest["generation"] == 1
    manifest_path = layout / MANIFEST_FILENAME
    manifest_path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(str(manifest_path)) + r".*" + expected):
        save_index_sharded(built_index, path, num_shards=2)
    assert manifest_path.read_text(encoding="utf-8") == text  # nothing was written
    # an explicit generation still overrides the unreadable counter
    save_index_sharded(built_index, path, num_shards=2, generation=2)
    assert load_manifest(path)[1]["generation"] == 2
