import argparse
import concurrent.futures
import gc
import json
import sys
import time
from pathlib import Path

import pytest

from divgraph import Divisor, Graph
from divgraph import cli, verify
from divgraph.cli import main
from divgraph.errors import DocumentError
from divgraph.io import (
    document_of,
    load_document,
    parse_divisor,
    parse_document,
    save_document,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name):
    return str(FIXTURES / name)


class TestDocuments:
    def test_round_trip_is_identity(self):
        for path in sorted(FIXTURES.glob("*.json")):
            original = json.loads(path.read_text(encoding="utf-8"))
            graph, named = parse_document(original)
            again = document_of(graph, named or None)
            graph2, named2 = parse_document(again)
            assert document_of(graph2, named2 or None) == again
            assert graph2 == graph

    def test_save_load(self, tmp_path):
        g = Graph([("a", 1), ("b", 0)], [("a", "b"), ("b", "b")])
        target = tmp_path / "g.json"
        save_document(str(target), g, {"d": Divisor(g, (2, -1))})
        loaded, named = load_document(str(target))
        assert loaded == g
        assert named["d"].coeffs == (2, -1)

    def test_fixture_graphs_match_programmatic(self):
        graph, named = load_document(fixture("triangle_doubled.json"))
        expected = Graph(
            ["v1", "v2", "v3"],
            [("v1", "v2"), ("v1", "v2"), ("v1", "v3"), ("v2", "v3")],
        )
        assert graph == expected
        assert named["drop"].coeffs == (-2, 3, -1)

    def test_malformed_documents(self):
        bad = [
            {},
            {"vertices": []},
            {"vertices": [{"weight": 0}]},
            {"vertices": [{"id": "a"}], "edges": [["a"]]},
            {"vertices": [{"id": "a", "weight": -1}]},
            {"vertices": [{"id": "a"}], "edges": [["a", "zz"]]},
            {"vertices": [{"id": "a"}], "divisors": {"d": [1, 2]}},
            {"vertices": [{"id": "a"}], "divisors": {"d": [1.5]}},
        ]
        for doc in bad:
            with pytest.raises(DocumentError):
                parse_document(doc)


class TestDivisorParsing:
    def test_inline_ascii_and_unicode_minus(self, triangle_doubled):
        d1 = parse_divisor("(-2,3,-1)", triangle_doubled)
        d2 = parse_divisor("(−2, 3, −1)", triangle_doubled)
        assert d1.coeffs == d2.coeffs == (-2, 3, -1)

    def test_named_lookup(self, triangle_doubled):
        named = {"x": Divisor(triangle_doubled, (1, 2, -3))}
        assert parse_divisor("x", triangle_doubled, named).coeffs == (1, 2, -3)

    def test_errors(self, triangle_doubled):
        with pytest.raises(DocumentError):
            parse_divisor("(1,2)", triangle_doubled)
        with pytest.raises(DocumentError):
            parse_divisor("(a,b,c)", triangle_doubled)
        for spec in ("(1,,2,3)", "(,1,2,3)", "(1,2,3,)"):
            with pytest.raises(DocumentError):
                parse_divisor(spec, triangle_doubled)
        with pytest.raises(DocumentError):
            parse_divisor("nope", triangle_doubled, {})


class TestCliExitCodes:
    def test_rank_paper_value(self, capsys):
        code = main(["rank", fixture("triangle_doubled.json"),
                     "--divisor", "(−2,3,−1)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_equiv_negative_answer(self, capsys):
        code = main(["equiv", fixture("cycle3.json"),
                     "--d1", "(1,0,0)", "--d2", "(0,1,0)"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "not equivalent"

    def test_equiv_positive(self, capsys):
        code = main(["equiv", fixture("triangle_doubled.json"),
                     "--d1", "drop", "--d2", "(0,0,0)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "equivalent"

    def test_pic_output(self, capsys):
        code = main(["pic", fixture("binary_g2.json")])
        assert code == 0
        assert capsys.readouterr().out.strip() == "invariant factors [3], order 3"

    def test_usage_error_is_2(self, capsys):
        # a wrong entry count, then an empty entry in a right-sized divisor
        for spec in ("(1,2,3)", "(1,,2)"):
            code = main(["rank", fixture("binary_g2.json"), "--divisor", spec])
            assert code == 2
            assert "error:" in capsys.readouterr().err

    def test_missing_file_is_2(self, capsys):
        code = main(["genus", "no_such_file.json"])
        assert code == 2

    def test_malformed_json_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["genus", str(bad)])
        assert code == 2

    def test_cap_exceeded_is_2(self, capsys):
        code = main(["classes", fixture("binary_g2.json"),
                     "--degree", "0", "--cap", "2"])
        assert code == 2

    @pytest.mark.parametrize("command, extra", [
        ("kz", ["--vertex", "v1", "--r", "1"]),
        ("balance", []),
        ("semibalance-rep", []),
    ])
    def test_subset_sweep_past_cap_is_2(self, command, extra, tmp_path, capsys):
        # a doubled 40-cycle has genus 41 and 2^40 vertex subsets
        ids = [f"v{i + 1}" for i in range(40)]
        g = Graph(ids, [(ids[i], ids[(i + 1) % 40]) for i in range(40)] * 2)
        path = tmp_path / "cycle40.json"
        save_document(str(path), g, {"zero": Divisor.zero(g)})
        start = time.perf_counter()
        assert main([command, str(path), "--divisor", "zero", *extra]) == 2
        assert time.perf_counter() - start < 5
        assert "subset-sweep cap" in capsys.readouterr().err

    def test_non_utf8_file_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00bad")
        assert main(["genus", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "UTF-8" in err

    def test_deeply_nested_file_is_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main(["genus", str(deep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too deeply" in err


class TestCliParser:
    def test_built_once_for_many_calls(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._build_parser.cache_clear()
        assert main(["genus", fixture("binary_g2.json")]) == 0
        assert main(["pic", fixture("binary_g2.json")]) == 0
        assert built.count("divgraph") == 1
        assert capsys.readouterr().out == "2\ninvariant factors [3], order 3\n"

    def test_errors_leave_no_state_behind(self, capsys):
        with pytest.raises(SystemExit) as usage:
            main(["rank", fixture("binary_g2.json")])  # --divisor missing
        assert usage.value.code == 2
        assert main(["rank", fixture("binary_g2.json"), "--divisor", "(5,0)",
                     "--max-search-degree", "1"]) == 2
        capsys.readouterr()
        # the default search cap (30) applies again
        assert main(["rank", fixture("binary_g2.json"), "--divisor", "(5,0)"]) == 0
        assert capsys.readouterr().out.strip() == "3"


class TestCliFreesItsGraphs:
    @pytest.mark.parametrize("argv", [
        ["rank", "weight_loop_mix.json", "--divisor", "point"],
        ["rr-check", "two_weight_one.json", "--divisor", "b"],
        ["clifford", "weight_loop_mix.json", "--divisor", "point"],
        ["reduce", "weight_loop_mix.json", "--divisor", "(3,-1)", "--basepoint", "w"],
        ["equiv", "two_weight_one.json", "--d1", "a", "--d2", "(1,0)"],
        ["pic", "single_vertex_g2.json"],
        ["balance", "weight_loop_mix.json", "--divisor", "(2,1)"],
        ["semibalance-rep", "two_weight_one.json", "--divisor", "(4,-1)"],
    ], ids=lambda argv: argv[0])
    def test_no_graph_outlives_its_query(self, argv, capsys):
        def live_graphs():
            return sum(isinstance(o, Graph) for o in gc.get_objects())

        main([argv[0], fixture(argv[1]), *argv[2:]])  # builds the cached parser
        gc.collect()
        gc.disable()
        try:
            before = live_graphs()
            assert main([argv[0], fixture(argv[1]), *argv[2:]]) in (0, 1)
            assert live_graphs() == before
        finally:
            gc.enable()


class TestVerifyArguments:
    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"),
        ("--workers", str(verify.MAX_WORKERS + 1)),
        ("--workers", "-3"),
        ("--max-vertices", "0"),
        ("--max-edges", "-1"),
        ("--max-weight", "-1"),
        ("--coeff-box", "-1"),
        ("--random-functions", "-1"),
        ("--workers", "two"),
        ("--max-degree", "-1"),
    ])
    def test_refused_before_any_work(self, flag, value, monkeypatch, capsys):
        def started(*args, **kwargs):
            raise AssertionError("verify started work")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", started)
        monkeypatch.setattr(verify, "connected_multigraphs", started)
        with pytest.raises(SystemExit) as refused:
            main(["verify", flag, value])
        assert refused.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err


class TestCliJson:
    def run_json(self, capsys, argv):
        code = main(argv + ["--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"command", "result", "details"}
        return code, payload

    def test_rank_json(self, capsys):
        code, payload = self.run_json(
            capsys, ["rank", fixture("triangle_doubled.json"), "--divisor", "mixed"])
        assert code == 0
        assert payload["result"] == 0
        assert payload["details"]["degree"] == 2
        assert payload["details"]["witness"] == [0, 0, 1]

    def test_balance_json_exact_rational(self, capsys):
        code, payload = self.run_json(
            capsys, ["balance", fixture("binary_g3.json"), "--divisor", "(5,0)"])
        assert code == 1
        assert payload["result"] is False
        assert payload["details"]["violating_set"] == ["v2"]
        assert payload["details"]["bound"] == "1/2"
        assert payload["details"]["value"] == 0

    def test_balance_integral_bound_stays_int(self, capsys):
        code, payload = self.run_json(
            capsys, ["balance", fixture("binary_g2.json"), "--divisor", "(5,0)"])
        assert code == 1
        assert payload["details"]["bound"] == 1

    def test_pic_json(self, capsys):
        code, payload = self.run_json(capsys, ["pic", fixture("cycle4.json")])
        assert code == 0
        assert payload["result"] == {"invariant_factors": [4], "order": 4}

    def test_classes_json(self, capsys):
        code, payload = self.run_json(
            capsys, ["classes", fixture("cycle3.json"), "--degree", "1"])
        assert code == 0
        assert payload["result"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_contract_then_parse(self, capsys):
        code, payload = self.run_json(
            capsys, ["contract", fixture("triangle_doubled.json"), "--edges", "3"])
        assert code == 0
        graph, _ = parse_document(payload["result"])
        assert graph.vertex_count == 2 and graph.edge_count == 3
        assert payload["details"]["vertex_map"]["v3"] == "v2"

    def test_bullet_embeds_divisor(self, capsys):
        code, payload = self.run_json(
            capsys, ["bullet", fixture("weight_loop_mix.json"), "--divisor", "point"])
        assert code == 0
        doc = payload["result"]
        assert doc["divisors"]["pushed"] == [1, 0, 0, 0]
        graph, _ = parse_document(doc)
        assert graph.genus() == 2

    def test_kz_json(self, capsys):
        code, payload = self.run_json(
            capsys, ["kz", fixture("triangle_doubled.json"),
                     "--divisor", "rise", "--vertex", "v2", "--r", "0"])
        assert code == 0
        assert payload["result"] is True
        assert payload["details"]["implied_bound"] == -1


class TestCliWorkflows:
    def test_pushforward_matches_library(self, capsys):
        code = main(["pushforward", fixture("triangle_doubled.json"),
                     "--edges", "3", "--divisor", "drop"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "[-2, 2]"

    def test_reduce(self, capsys):
        code = main(["reduce", fixture("cycle3.json"),
                     "--divisor", "(0,2,0)", "--basepoint", "v1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "[1, 0, 1]"

    def test_rr_check_true(self, capsys):
        code = main(["rr-check", fixture("weight_loop_mix.json"),
                     "--divisor", "point"])
        assert code == 0

    def test_clifford_true(self, capsys):
        code = main(["clifford", fixture("binary_g2.json"), "--divisor", "unit"])
        assert code == 0

    @pytest.mark.parametrize("command, ranks", [("rr-check", 2), ("clifford", 1)])
    def test_each_rank_is_computed_once(self, command, ranks, monkeypatch, capsys):
        # the package attribute divgraph.rank is the function, so the
        # submodule comes from sys.modules
        rank_module = sys.modules["divgraph.rank"]
        calls = []
        honest = rank_module.rank

        def counted(*args, **kwargs):
            calls.append(args)
            return honest(*args, **kwargs)

        monkeypatch.setattr(sys.modules["divgraph.cli"], "rank", counted)
        monkeypatch.setattr(rank_module, "rank", counted)
        assert main([command, fixture("binary_g2.json"), "--divisor", "unit"]) == 0
        assert len(calls) == ranks

    def test_semibalance_rep(self, capsys):
        code = main(["semibalance-rep", fixture("binary_g2.json"),
                     "--divisor", "(5,0)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "[2, 3]"

    def test_verify_small(self, capsys):
        code = main(["verify", "--max-vertices", "2", "--max-edges", "3",
                     "--max-weight", "1", "--random-functions", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "riemann_roch" in out
        assert "FAIL" not in out

    def test_verify_json(self, capsys):
        code = main(["verify", "--max-vertices", "2", "--max-edges", "2",
                     "--max-weight", "0", "--random-functions", "20",
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["result"] is True
        names = {s["name"] for s in payload["details"]["suites"]}
        assert "equivalence_oracles" in names

    def test_verify_max_degree_zero(self, capsys):
        code = main(["verify", "--max-vertices", "2", "--max-edges", "3",
                     "--max-weight", "1", "--max-degree", "0",
                     "--random-functions", "20"])
        assert code == 0
