"""Tests for the command line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main
from repro.graph.builders import path_graph
from repro.graph.io import read_dimacs, write_dimacs


@pytest.fixture()
def dimacs_file(tmp_path, small_graph):
    path = tmp_path / "net.gr"
    write_dimacs(small_graph, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build", "-o", "x.idx"])

    def test_synthetic_and_graph_are_exclusive(self, dimacs_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["build", "--graph", str(dimacs_file), "--synthetic", "100", "-o", "x.idx"]
            )

    def test_parallel_mode_flag_removed(self):
        # --workers >= 2 always means worker processes; the old thread /
        # process switch is rejected instead of silently ignored
        args = build_parser().parse_args(["build", "--synthetic", "100", "-o", "x.idx", "--workers", "2"])
        assert args.workers == 2 and not hasattr(args, "parallel_mode")
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["build", "--synthetic", "100", "-o", "x.idx", "--parallel-mode", "thread"]
            )

    def test_flow_method_flag_removed(self, capsys):
        # the max-flow route follows the region size; naming a solver is
        # an argparse error, not a silently ignored flag
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["build", "--synthetic", "100", "-o", "x.idx", "--flow-method", "matrix"]
            )
        assert exit_info.value.code != 0
        assert "unrecognized arguments: --flow-method matrix" in capsys.readouterr().err

    def test_tree_sidecar_flag_removed(self, capsys):
        # every process rebuilds the tree resolver from the archive; there
        # is no second on-disk copy of it to ask for
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["build", "--synthetic", "100", "-o", "x.idx", "--tree-sidecar"]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --tree-sidecar" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["query", "shard", "fleet-bench"])
    def test_allow_pickle_flag_removed(self, command, capsys):
        # the loader never unpickles, so there is no opt-in to ask for
        with pytest.raises(SystemExit) as exit_info:
            main([command, "index.npz", "--allow-pickle"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --allow-pickle" in capsys.readouterr().err


class TestBuildAndQuery:
    def test_build_from_dimacs_then_query(self, tmp_path, dimacs_file, capsys, small_oracle):
        index_path = tmp_path / "ny.idx"
        assert main(["build", "--graph", str(dimacs_file), "-o", str(index_path)]) == 0
        assert index_path.exists()
        capsys.readouterr()

        assert main(["query", str(index_path), "0,5", "3,17"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        s, t, distance = lines[0].split("\t")
        assert (int(s), int(t)) == (0, 5)
        assert float(distance) == pytest.approx(small_oracle.distance(0, 5), rel=1e-6)

    def test_build_synthetic(self, tmp_path, capsys):
        index_path = tmp_path / "synthetic.idx"
        code = main(
            ["build", "--synthetic", "150", "--seed", "3", "-o", str(index_path), "--workers", "2"]
        )
        assert code == 0
        assert index_path.exists()
        out = capsys.readouterr().out
        assert "construction" in out

    @pytest.mark.parametrize("mode", ["even", "hierarchy"])
    def test_shard_boundaries_modes(self, tmp_path, dimacs_file, capsys, mode, small_oracle):
        from repro.core.persistence import load_manifest

        index_path = tmp_path / "shards.idx"
        assert main(["build", "--graph", str(dimacs_file), "-o", str(index_path)]) == 0
        assert main(
            ["shard", str(index_path), "--shards", "3", "--boundaries", mode]
        ) == 0
        out = capsys.readouterr().out
        assert f"({mode} boundaries)" in out
        _, manifest = load_manifest(index_path)
        assert len(manifest["shards"]) == 3
        expected = "hierarchy" if mode == "hierarchy" else "identity"
        assert manifest["vertex_order"] == expected

        assert main(["query", "--shards", str(index_path), "0,5"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        assert float(line.split("\t")[2]) == pytest.approx(
            small_oracle.distance(0, 5), rel=1e-6
        )

    def test_query_from_stdin(self, tmp_path, dimacs_file, capsys, monkeypatch):
        index_path = tmp_path / "ny.idx"
        main(["build", "--graph", str(dimacs_file), "-o", str(index_path)])
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n# comment\n4,9\n"))
        assert main(["query", str(index_path), "--stdin"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_query_without_pairs_errors(self, tmp_path, dimacs_file, capsys):
        index_path = tmp_path / "ny.idx"
        main(["build", "--graph", str(dimacs_file), "-o", str(index_path)])
        capsys.readouterr()
        assert main(["query", str(index_path)]) == 2


class TestCompareAndGenerate:
    def test_compare_prints_table(self, capsys):
        code = main(
            ["compare", "--synthetic", "140", "--seed", "5", "--methods", "HC2L,HL", "--queries", "100"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HC2L" in out and "HL" in out and "query_us" in out

    def test_compare_unknown_method(self, capsys):
        assert main(["compare", "--synthetic", "80", "--methods", "NOPE"]) == 2

    def test_generate_writes_dimacs(self, tmp_path, capsys):
        output = tmp_path / "generated.gr"
        assert main(["generate", "--vertices", "120", "--seed", "2", "-o", str(output)]) == 0
        graph = read_dimacs(output)
        assert graph.num_vertices >= 120

    def test_generate_travel_time_weighting(self, tmp_path):
        distance_path = tmp_path / "d.gr"
        travel_path = tmp_path / "t.gr"
        main(["generate", "--vertices", "100", "--seed", "4", "-o", str(distance_path)])
        main(
            ["generate", "--vertices", "100", "--seed", "4", "--weighting", "travel_time",
             "-o", str(travel_path)]
        )
        d_graph = read_dimacs(distance_path)
        t_graph = read_dimacs(travel_path)
        assert d_graph.num_edges == t_graph.num_edges
        assert sorted(w for _, _, w in d_graph.edges()) != sorted(w for _, _, w in t_graph.edges())


class TestRoundTripThroughCli:
    def test_generated_network_can_be_indexed(self, tmp_path, capsys):
        network_path = tmp_path / "city.gr"
        index_path = tmp_path / "city.idx"
        main(["generate", "--vertices", "130", "--seed", "9", "-o", str(network_path)])
        main(["build", "--graph", str(network_path), "-o", str(index_path), "--beta", "0.25"])
        capsys.readouterr()
        assert main(["query", str(index_path), "0,10"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("0\t10\t")

    def test_small_path_graph_cli(self, tmp_path, capsys):
        path = tmp_path / "path.gr"
        write_dimacs(path_graph(12, weight=2.0), path)
        index_path = tmp_path / "path.idx"
        main(["build", "--graph", str(path), "-o", str(index_path), "--leaf-size", "3"])
        capsys.readouterr()
        main(["query", str(index_path), "0,11"])
        out = capsys.readouterr().out
        assert float(out.split("\t")[2]) == pytest.approx(22.0)
