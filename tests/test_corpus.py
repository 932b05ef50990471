import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import weakref
from itertools import permutations

import pytest

from divgraph import corpus, verify
from divgraph.corpus import connected_multigraphs, weightless
from divgraph.errors import EnumerationCapExceeded
from divgraph.verify import SUITES, run_all

from conftest import SRC

SMALL = {"max_vertices": 3, "max_edges": 4, "max_total_weight": 1}


def _require_fork():
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see a monkeypatch only when forked")


def _python(script, timeout):
    """Run ``script`` in a fresh interpreter that imports this divgraph;
    on timeout, kill its whole process group (workers included) and fail."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    child = subprocess.Popen([sys.executable, "-c", textwrap.dedent(script)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, env=env, start_new_session=True)
    try:
        out, err = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail(f"no answer within {timeout}s")
    assert child.returncode == 0, err
    return out


class TestEnumeration:
    def test_counts_are_stable(self):
        assert len(connected_multigraphs(4, 6, 0)) == 283
        assert len(connected_multigraphs(4, 6, 2)) == 2914

    def test_hand_counted_small_families(self):
        graphs = connected_multigraphs(2, 6, 0)
        by_n = {}
        for g in graphs:
            by_n.setdefault(g.vertex_count, []).append(g)
        # single vertex with 0..6 loops; two vertices: 34 loop/parallel shapes
        assert len(by_n[1]) == 7
        assert len(by_n[2]) == 34

    def test_connected_simple_graphs_on_four_vertices(self):
        graphs = connected_multigraphs(4, 6, 0)
        simple = [
            g for g in graphs
            if g.vertex_count == 4
            and not any(g.loop_count(v) for v in g.vertex_ids)
            and all(m <= 1 for row in g.neighbors for _, m in row)
        ]
        assert len(simple) == 6

    def test_all_connected_within_caps(self):
        for g in connected_multigraphs(3, 4, 1):
            assert g.edge_count <= 4
            assert g.vertex_count <= 3
            assert sum(g.weights) <= 1

    def test_no_isomorphic_duplicates_small(self):
        # relabelling any graph in the corpus never produces another one
        graphs = connected_multigraphs(3, 3, 1)
        keys = set()
        for g in graphs:
            n = g.vertex_count
            canon = None
            for perm in permutations(range(n)):
                w = tuple(g.weights[perm[i]] for i in range(n))
                edges = tuple(sorted(
                    tuple(sorted((perm.index(i), perm.index(j))))
                    for i, j in g.edge_pairs
                ))
                cand = (n, w, edges)
                canon = cand if canon is None or cand < canon else canon
            assert canon not in keys
            keys.add(canon)

    def test_weightless_filter(self):
        graphs = connected_multigraphs(3, 3, 2)
        assert all(not any(g.weights) for g in weightless(graphs))
        assert weightless(graphs) == connected_multigraphs(3, 3, 0)

    def test_deterministic_order(self):
        a = connected_multigraphs(3, 4, 1)
        b = connected_multigraphs(3, 4, 1)
        assert list(a) == list(b)

    @pytest.mark.parametrize("caps", [(8, 7, 0), (4, 6, 40), (4, 10, 2)])
    def test_caps_past_the_candidate_limit_raise_at_once(self, caps, monkeypatch):
        def enumerated(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(corpus, "bounded_vectors", enumerated)
        with pytest.raises(EnumerationCapExceeded):
            connected_multigraphs(*caps)

    def test_no_vertex_count_past_the_edges_is_enumerated(self):
        # 12 vertices and no edge: only the single vertex is connected,
        # and no permutation of 12 vertices is ever listed
        assert connected_multigraphs(12, 0, 0) == connected_multigraphs(1, 0, 0)


class TestSuitesSmallCaps:
    def test_all_suites_pass(self):
        results = run_all(
            max_vertices=3, max_edges=4, max_total_weight=1,
            random_functions=60,
        )
        assert {r.name for r in results} == set(SUITES)
        for r in results:
            assert r.passed, r.line()
            assert r.checked > 0

    def test_sharded_matches_inline(self):
        # every suite, including those that sweep each adjacency once
        inline = run_all(**SMALL)
        sharded = run_all(workers=2, **SMALL)
        assert len(inline) == len(sharded) == len(SUITES)
        for a, b in zip(inline, sharded):
            assert (a.name, a.checked, a.violations) == (
                b.name, b.checked, b.violations)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ci_corpus_counts_are_pinned(self, workers):
        # the CI "Small verify run" corpus: 515,198 checks. A change that
        # alters what a suite checks must change these numbers on purpose.
        expected = {
            "graph_invariants": 5344, "contraction_complexity": 3176,
            "principal_divisors": 5546, "equivalence_oracles": 23252,
            "reduction": 29145, "picard": 13304, "riemann_roch": 95122,
            "rank_properties": 260258, "superadditivity": 52935,
            "contraction_pushforward": 18670, "semibalanced": 1890,
            "rank_oracle": 6556,
        }
        results = run_all(max_vertices=3, max_edges=5, max_total_weight=2,
                          random_functions=40, workers=workers)
        assert {r.name: (r.checked, r.violations) for r in results} == {
            name: (checked, 0) for name, checked in expected.items()}

    def test_max_degree_cap_respected(self):
        capped = run_all(
            suite_names=["riemann_roch"], max_vertices=3, max_edges=3,
            max_total_weight=0, max_degree=0)[0]
        full = run_all(
            suite_names=["riemann_roch"], max_vertices=3, max_edges=3,
            max_total_weight=0)[0]
        assert 0 < capped.checked < full.checked
        assert capped.passed

    def test_every_suite_body_passes_with_no_params(self):
        # the benchmark calls each body as SUITES[name](items, {})
        items = list(enumerate(connected_multigraphs(3, 4, 1)))
        for name, body in SUITES.items():
            rec = body(items, {})
            assert rec.checked > 0, name
            assert (rec.violations, rec.first) == (0, None), name

    def test_misspelt_keyword_is_rejected(self):
        with pytest.raises(TypeError):
            run_all(suite_names=["riemann_roch"], coef_bound=0,
                    max_vertices=2, max_edges=2, max_total_weight=0)


class TestShardProcesses:
    def test_each_shard_keeps_one_process(self, monkeypatch, tmp_path):
        _require_fork()
        log = tmp_path / "shards.log"

        def logging_suite(suite):
            def body(items, params):
                adjacencies = {g.neighbors for _, g in items}
                with log.open("a") as out:
                    out.write(f"{suite} {items[0][0]} {len(adjacencies)} {os.getpid()}\n")
                return verify._Recorder()
            return body

        for suite in ("first", "second"):
            monkeypatch.setitem(SUITES, suite, logging_suite(suite))
        run_all(suite_names=["first", "second"], workers=2, **SMALL)
        runs = [line.split() for line in log.read_text().splitlines()]
        # every body call sees one adjacency group
        assert {adjacencies for _, _, adjacencies, _ in runs} == {"1"}
        groups = {}
        for suite, first_index, _, pid in runs:
            groups.setdefault(int(first_index), []).append((suite, int(pid)))
        assert len(groups) == len({g.neighbors for g in connected_multigraphs(**SMALL)})
        # each group runs every suite, in order, in one process
        for calls in groups.values():
            assert [suite for suite, _ in calls] == ["first", "second"]
            assert len({pid for _, pid in calls}) == 1
        assert groups[0][0][1] == os.getpid()
        assert len({pid for calls in groups.values() for _, pid in calls}) == 2

    def test_earlier_groups_are_freed(self, monkeypatch):
        refs = {}  # first corpus index of a group -> weak references to its graphs
        alive_at_start = []  # graphs of earlier groups alive as each group starts

        def watch(items, params):
            alive_at_start.append(sum(r() is not None for rs in refs.values() for r in rs))
            refs[items[0][0]] = [weakref.ref(g) for _, g in items]
            return verify._Recorder()

        monkeypatch.setitem(SUITES, "watch", watch)
        gc.collect()
        gc.disable()
        try:
            # the real suites fill the rank and model memos on every graph
            results = run_all(suite_names=["watch", "riemann_roch", "rank_properties",
                                           "semibalanced"], **SMALL)
            assert len(alive_at_start) == len({g.neighbors
                                               for g in connected_multigraphs(**SMALL)})
            assert alive_at_start == [0] * len(alive_at_start)
            assert not any(r() for rs in refs.values() for r in rs)
        finally:
            gc.enable()
        assert all(r.checked > 0 and r.passed for r in results[1:])

    def test_dead_worker_raises(self):
        _require_fork()
        out = _python("""
            import os
            from divgraph import verify

            caller = os.getpid()

            def dies(items, params):
                if os.getpid() != caller:
                    os._exit(1)
                return verify._Recorder()

            verify.SUITES["riemann_roch"] = dies
            try:
                verify.run_all(suite_names=["riemann_roch"], workers=2,
                               max_vertices=3, max_edges=4, max_total_weight=1)
            except Exception as exc:
                print(type(exc).__name__)
        """, timeout=30)
        assert out.strip() == "BrokenProcessPool"

    def test_cli_import_loads_no_process_modules(self):
        # the executor is imported inside run_all: every CLI query imports verify
        out = _python("""
            import sys
            import divgraph.cli, divgraph.verify

            print([m for m in ("multiprocessing", "concurrent.futures")
                   if m in sys.modules])
        """, timeout=60)
        assert out.strip() == "[]"


def _weighted_fails_pushforward(monkeypatch):
    real = verify.verify_prin_pushforward
    monkeypatch.setattr(verify, "verify_prin_pushforward",
                        lambda cm: real(cm) and not any(cm.source.weights))


def _weighted_fails_tree_count(monkeypatch):
    real = verify.spanning_tree_count
    monkeypatch.setattr(verify, "spanning_tree_count",
                        lambda g: real(g) + any(g.weights))


class TestCounterexamples:
    """An injected fault fails the checks of every graph with a weighted
    vertex; the report names the first such graph in corpus order. In the
    sharded contraction_pushforward run that graph (corpus index 11) is not
    in the first shard."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name, inject, checked, violations, expected", [
        ("contraction_pushforward", _weighted_fails_pushforward, 3662, 103,
         '{"vertices":[{"id":"v1","weight":0},{"id":"v2","weight":1}],'
         '"edges":[["v1","v2"]]} pushed principal lattice short at edge 0'),
        ("contraction_complexity", _weighted_fails_tree_count, 551, 64,
         '{"vertices":[{"id":"v1","weight":1}],"edges":[]}'
         ' Smith product vs brute tree count'),
        ("picard", _weighted_fails_tree_count, 1850, 64,
         '{"vertices":[{"id":"v1","weight":1}],"edges":[]} complexity vs brute count'),
    ])
    def test_first_in_corpus_order(self, monkeypatch, workers, name, inject,
                                   checked, violations, expected):
        if workers > 1:
            _require_fork()
        inject(monkeypatch)
        result = run_all(suite_names=[name], workers=workers, **SMALL)[0]
        assert (result.checked, result.violations) == (checked, violations)
        assert result.counterexample == expected
        assert f"first counterexample: {expected}" in result.line()
