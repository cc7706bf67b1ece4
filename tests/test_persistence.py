"""The versioned on-disk formats: round-trips, validation, the one
readable version, refused pickles, and the sharded layout (manifest +
base + per-shard archives)."""

from __future__ import annotations

import dataclasses
import json
import pickle
import re

import numpy as np
import pytest

from repro.core.index import HC2LIndex
from repro.core.persistence import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_FILENAME,
    load_index,
    load_index_sharded,
    load_manifest,
    load_shard,
    save_index,
    save_index_sharded,
    shard_directory,
)

from helpers import random_query_pairs, rewrite_archive


@pytest.fixture(scope="module")
def built_index(request):
    graph = request.getfixturevalue("small_graph")
    return HC2LIndex.build(graph)


class TestRoundTrip:
    def test_distances_identical(self, small_graph, built_index, tmp_path):
        path = tmp_path / "index.npz"
        built_index.save(path)
        loaded = HC2LIndex.load(path)
        for s, t in random_query_pairs(small_graph, 60, seed=3):
            assert loaded.distance(s, t) == built_index.distance(s, t)

    def test_batch_distances_identical(self, small_graph, built_index, tmp_path):
        path = tmp_path / "index.npz"
        built_index.save(path)
        loaded = HC2LIndex.load(path)
        pairs = random_query_pairs(small_graph, 200, seed=4)
        assert loaded.distances(pairs).tolist() == built_index.distances(pairs).tolist()

    def test_flat_labelling_identical(self, built_index, tmp_path):
        path = tmp_path / "index.npz"
        built_index.save(path)
        loaded = HC2LIndex.load(path)
        assert loaded.flat_labelling() == built_index.flat_labelling()

    def test_metadata_round_trips(self, built_index, tmp_path):
        path = tmp_path / "index.npz"
        built_index.save(path)
        loaded = HC2LIndex.load(path)
        assert loaded.parameters == built_index.parameters
        assert loaded.describe() == built_index.describe()
        assert loaded.graph.num_vertices == built_index.graph.num_vertices
        assert loaded.graph.num_edges == built_index.graph.num_edges
        assert loaded.hierarchy.height() == built_index.hierarchy.height()
        assert [n.bits for n in loaded.hierarchy.nodes] == [
            n.bits for n in built_index.hierarchy.nodes
        ]

    def test_save_load_functions_match_methods(self, built_index, tmp_path):
        path = tmp_path / "index.npz"
        save_index(built_index, path)
        loaded = load_index(path)
        assert loaded.flat_labelling() == built_index.flat_labelling()

    def test_uncontracted_index(self, small_graph, tmp_path):
        index = HC2LIndex.build(small_graph, contract=False)
        path = tmp_path / "plain.npz"
        index.save(path)
        loaded = HC2LIndex.load(path)
        for s, t in random_query_pairs(small_graph, 40, seed=8):
            assert loaded.distance(s, t) == index.distance(s, t)

    def test_tiny_graphs(self, tmp_path):
        from repro.graph.graph import Graph

        for n in (0, 1):
            index = HC2LIndex.build(Graph(n))
            path = tmp_path / f"tiny{n}.npz"
            index.save(path)
            loaded = HC2LIndex.load(path)
            assert loaded.graph.num_vertices == n


class TestValidation:
    def test_random_bytes_rejected(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"definitely not an index")
        with pytest.raises(ValueError, match="npz"):
            HC2LIndex.load(path)

    def test_npz_without_header_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        with open(path, "wb") as handle:
            np.savez(handle, something=np.zeros(3))
        with pytest.raises(ValueError, match="header"):
            HC2LIndex.load(path)

    def test_wrong_format_name_rejected(self, tmp_path):
        path = tmp_path / "wrong.npz"
        header = json.dumps({"format": "other-index", "version": 1}).encode()
        with open(path, "wb") as handle:
            np.savez(handle, header=np.frombuffer(header, dtype=np.uint8))
        with pytest.raises(ValueError, match="format"):
            HC2LIndex.load(path)

    def test_future_version_rejected(self, built_index, tmp_path):
        path = tmp_path / "future.npz"
        header = json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION + 1}).encode()
        with open(path, "wb") as handle:
            np.savez(handle, header=np.frombuffer(header, dtype=np.uint8))
        with pytest.raises(ValueError, match="version"):
            HC2LIndex.load(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValueError):
            HC2LIndex.load(tmp_path / "does-not-exist.npz")


class TestOneFormatVersion:
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_archives_raise_rebuild_error(self, built_index, tmp_path, version):
        path = tmp_path / f"v{version}.npz"
        built_index.save(path)
        rewrite_archive(path, edit_header=lambda header: header.update(version=version))
        with pytest.raises(ValueError) as caught:
            HC2LIndex.load(path)
        assert str(caught.value) == (
            f"{path} was written in format version {version}; this build reads "
            f"only version 4. Rebuild the index with 'repro build' (labels do not "
            f"depend on the format version)."
        )

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_manifests_raise_rebuild_error(self, built_index, tmp_path, version):
        from repro.serving import ShardRouter

        path = tmp_path / "index.npz"
        layout = save_index_sharded(built_index, path, num_shards=2)
        manifest_path = layout / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = version
        manifest_path.write_text(json.dumps(manifest))
        message = (
            f"{manifest_path} was written in format version {version}; this build "
            f"reads only version 3. Rebuild the index with 'repro build'"
        )
        for load in (load_manifest, load_index_sharded, ShardRouter):
            with pytest.raises(ValueError) as caught:
                load(path)
            assert str(caught.value).startswith(message)

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda p: p.update(flow_method="dinitz"), "flow_method"),
            (lambda p: p.update(parallel_mode="thread"), "parallel_mode"),
            (lambda p: p.pop("backend"), "backend"),
            (lambda p: p.pop("num_workers"), "num_workers"),
        ],
        ids=["extra-flow_method", "extra-parallel_mode", "missing-backend", "missing-num_workers"],
    )
    def test_parameter_keys_must_match(self, built_index, tmp_path, edit, named):
        path = tmp_path / "index.npz"
        built_index.save(path)
        rewrite_archive(path, edit_header=lambda header: edit(header["parameters"]))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*'{named}'"):
            HC2LIndex.load(path)

    def test_current_archives_declare_version_4(self, built_index, tmp_path):
        path = tmp_path / "v4.npz"
        built_index.save(path)
        with np.load(path, allow_pickle=False) as archive:
            header = json.loads(bytes(archive["header"].tobytes()).decode("utf-8"))
            assert "hier_core_position" in archive.files
        assert header["version"] == FORMAT_VERSION == 4
        assert header["label_layout"] == "inline"
        assert header["parameters"] == dataclasses.asdict(built_index.parameters)

    def test_save_load_save_is_member_identical(self, built_index, tmp_path):
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        built_index.save(first)
        HC2LIndex.load(first).save(second)
        with np.load(first, allow_pickle=False) as a, np.load(second, allow_pickle=False) as b:
            assert sorted(a.files) == sorted(b.files)
            for name in a.files:
                assert a[name].dtype == b[name].dtype, name
                assert np.array_equal(a[name], b[name]), name


class TestShardedLayout:
    def test_layout_files(self, built_index, tmp_path):
        path = tmp_path / "index.npz"
        built_index.save(path)
        layout = save_index_sharded(built_index, path, num_shards=3)
        assert layout == shard_directory(path)
        assert (layout / MANIFEST_FILENAME).exists()
        assert (layout / "base.npz").exists()
        _, manifest = load_manifest(path)
        assert len(manifest["shards"]) == 3
        for shard in manifest["shards"]:
            assert (layout / shard["file"]).exists()
        core_n = built_index.contraction.core.num_vertices
        assert manifest["boundaries"][0] == 0
        assert manifest["boundaries"][-1] == core_n

    def test_round_trip_through_concat(self, small_graph, built_index, tmp_path):
        path = tmp_path / "index.npz"
        save_index_sharded(built_index, path, num_shards=4)
        rebuilt = load_index_sharded(path)
        assert rebuilt.flat_labelling() == built_index.flat_labelling()
        pairs = random_query_pairs(small_graph, 60, seed=12)
        assert rebuilt.distances(pairs).tolist() == built_index.distances(pairs).tolist()
        assert rebuilt.parameters == built_index.parameters
        assert rebuilt.describe() == built_index.describe()

    def test_shards_reassemble_the_labelling(self, built_index, tmp_path):
        from repro.core.flat import FlatLabelling

        path = tmp_path / "index.npz"
        save_index_sharded(built_index, path, num_shards=3)
        parts = [load_shard(path, k) for k in range(3)]
        assert FlatLabelling.concat(parts) == built_index.flat_labelling()

    def test_shard_mmap_is_read_only(self, built_index, tmp_path):
        path = tmp_path / "index.npz"
        save_index_sharded(built_index, path, num_shards=2)
        shard = load_shard(path, 1, mmap=True)
        assert isinstance(shard.values, np.memmap)
        assert not shard.values.flags.writeable
        layout = shard_directory(path)
        assert (layout / "shard-0001.npz.mmap" / "label_values.npy").exists()

    def test_explicit_boundaries(self, built_index, tmp_path):
        path = tmp_path / "index.npz"
        core_n = built_index.contraction.core.num_vertices
        cut = core_n // 3
        save_index_sharded(built_index, path, boundaries=[0, cut, core_n])
        _, manifest = load_manifest(path)
        assert manifest["boundaries"] == [0, cut, core_n]
        assert load_shard(path, 0).num_vertices == cut

    def test_resharding_drops_orphan_files(self, built_index, tmp_path):
        path = tmp_path / "index.npz"
        layout = save_index_sharded(built_index, path, num_shards=4)
        assert (layout / "shard-0003.npz").exists()
        load_shard(path, 3, mmap=True)  # materialise a label-sized sidecar dir
        assert (layout / "shard-0003.npz.mmap").is_dir()
        save_index_sharded(built_index, path, num_shards=2)
        assert not (layout / "shard-0003.npz").exists()
        assert not (layout / "shard-0003.npz.mmap").exists()
        assert load_index_sharded(path).flat_labelling() == built_index.flat_labelling()

    def test_no_stray_tmp_files_after_save(self, built_index, tmp_path):
        """Archives are written via tmp + atomic rename; nothing lingers."""
        path = tmp_path / "index.npz"
        layout = save_index_sharded(built_index, path, num_shards=2)
        leftovers = [p.name for p in layout.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_base_archive_refuses_plain_load(self, built_index, tmp_path):
        """base.npz has no inline labels; load_index must say so clearly."""
        path = tmp_path / "index.npz"
        layout = save_index_sharded(built_index, path, num_shards=2)
        with pytest.raises(ValueError, match="sharded"):
            load_index(layout / "base.npz")

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            load_manifest(tmp_path / "nothing.npz")

    def test_corrupt_manifest_rejected(self, built_index, tmp_path):
        path = tmp_path / "index.npz"
        layout = save_index_sharded(built_index, path, num_shards=2)
        manifest_path = layout / MANIFEST_FILENAME
        broken = json.loads(manifest_path.read_text())
        broken["format"] = "something-else"
        manifest_path.write_text(json.dumps(broken))
        with pytest.raises(ValueError, match="format"):
            load_manifest(path)

    def test_shard_id_out_of_range(self, built_index, tmp_path):
        path = tmp_path / "index.npz"
        save_index_sharded(built_index, path, num_shards=2)
        with pytest.raises(ValueError, match="shard"):
            load_shard(path, 5)


class TestLegacyPickle:
    def test_pickled_non_index_rejected(self, built_index, tmp_path):
        """A pickle, of an index or of anything else, is never unpickled."""
        for name, payload in (("graph.pickle", built_index.graph), ("junk.pickle", [1, 2, 3])):
            path = tmp_path / name
            with open(path, "wb") as handle:
                pickle.dump(payload, handle)
            with pytest.raises(ValueError, match=re.escape(str(path))) as caught:
                HC2LIndex.load(path)
            assert "pickle" not in str(caught.value).replace(str(path), "")
