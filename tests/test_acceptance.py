"""Acceptance gate: one test per criterion, printing a pass line each.

The corpus-level criteria consume the property suites from
divgraph.verify at their default caps (connected multigraphs with at most
4 vertices, 6 edges, total weight 2; divisor coefficients in [-3, 3]);
the suites are run once per test session and shared. Worked-example
criteria assert frozen exact values.
"""

import json
import time
from itertools import product
from pathlib import Path

import pytest

from divgraph import (
    Divisor,
    Graph,
    enumerate_classes,
    is_equivalent,
    picard_structure,
    push_forward,
    rank,
    verify_prin_pushforward,
)
from divgraph.cli import main
from divgraph.transforms import bridge_rank_preservation
from divgraph.verify import run_all

from conftest import binary, cycle, single_vertex

WORKERS = 2
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def suites():
    results = run_all(workers=WORKERS)
    return {r.name: r for r in results}


def _passed(name, detail=""):
    print(f"ACCEPTANCE PASS {name}: {detail}")


def _require(suite, budget=None):
    assert suite.violations == 0, suite.line()
    assert suite.checked > 0
    if budget is not None:
        assert suite.seconds <= budget, (
            f"{suite.name} took {suite.seconds:.1f}s, budget {budget}s"
        )


def test_c01_rank_jumps_across_contraction():
    started = time.perf_counter()
    g = Graph(["v1", "v2", "v3"],
              [("v1", "v2"), ("v1", "v2"), ("v1", "v3"), ("v2", "v3")])
    cm = g.contract({3})
    cases = {
        (-2, 3, -1): (0, -1),
        (1, -1, 1): (-1, 0),
        (1, -1, 2): (0, 1),
    }
    for coeffs, (r_source, r_target) in cases.items():
        d = Divisor(g, coeffs)
        assert rank(g, d).value == r_source
        assert rank(cm.target, push_forward(cm, d)).value == r_target
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed("criterion 1", f"six exact ranks in {elapsed * 1000:.0f} ms")


def test_c02_genus_two_binary_table():
    b = binary(2)
    table = {
        (0, 0): 0, (1, -1): -1, (2, -2): -1,
        (0, 1): 0, (1, 0): 0, (2, -1): -1,
        (0, 2): 0, (1, 1): 1, (2, 0): 0,
    }
    for coeffs, expected in table.items():
        assert rank(b, Divisor(b, coeffs)).value == expected
    _passed("criterion 2", "all nine table entries exact")


def test_c03_genus_two_bridge_case():
    g = Graph([("v1", 1), ("v2", 1)], [("v1", "v2")])
    assert rank(g, Divisor(g, (0, 1))).value == 0
    assert rank(g, Divisor(g, (0, 2))).value == 1
    # the classes embed into the model as (0,1,0,0) and (0,2,0,0)
    model = g.loopless_model()
    emb = Divisor(model.model, model.embed_coeffs((0, 1)))
    assert rank(model.model, emb).value == 0
    # contracting the model's bridge is a rank-preserving isomorphism
    assert model.model.is_bridge(0)
    cm = model.model.contract({0})
    assert picard_structure(cm.target).order == picard_structure(model.model).order
    assert verify_prin_pushforward(cm)
    for coeffs in product(range(-1, 3), repeat=4):
        if abs(sum(coeffs)) <= 3:
            assert bridge_rank_preservation(cm, Divisor(model.model, coeffs))
    _passed("criterion 3", "both class ranks exact; bridge contraction preserves rank")


def test_c04_binary_family_unit_rank():
    for g in range(2, 7):
        b = binary(g)
        assert rank(b, Divisor(b, (1, 1))).value == 1
    _passed("criterion 4", "rank(1,1) = 1 for genus 2..6")


def test_c05_single_vertex_rank_law():
    started = time.perf_counter()
    for g in range(0, 7):
        for h in range(0, g + 1):
            graph = single_vertex(h, loops=g - h)
            for d in range(-2, 15):
                expected = -1 if d < 0 else (d - g if d >= 2 * g - 1 else d // 2)
                assert rank(graph, Divisor(graph, (d,))).value == expected, (g, h, d)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _passed("criterion 5", f"all (h, g, d) combinations in {elapsed:.2f} s")


def test_c06_riemann_roch_exhaustive(suites):
    suite = suites["riemann_roch"]
    _require(suite, budget=300.0)
    assert suite.checked > 3_000_000
    _passed("criterion 6",
            f"{suite.checked} identities, zero violations, {suite.seconds:.0f} s")


def test_c07_picard_structure(suites):
    model = Graph([("v", 1), ("w", 0)], [("v", "w"), ("w", "w")]).loopless_model()
    assert picard_structure(model.model).invariant_factors == (2, 2)
    assert picard_structure(binary(2)).invariant_factors == (3,)
    _require(suites["picard"])
    # cycles: the textbook representative lists hit every class exactly once
    for n in range(3, 7):
        g = cycle(n)
        for degree in (1, 3):
            reps = enumerate_classes(g, degree)
            assert len(reps) == n == g.complexity()
            listed = [Divisor(g, (degree,) + (0,) * (n - 1))]
            for pos in range(1, n):
                coeffs = [degree - 1] + [0] * (n - 1)
                coeffs[pos] = 1
                listed.append(Divisor(g, coeffs))
            for i in range(n):
                for j in range(i + 1, n):
                    assert not is_equivalent(listed[i], listed[j])
                matches = [r for r in reps if is_equivalent(listed[i], r)]
                assert len(matches) == 1
    _passed("criterion 7",
            f"invariant factors exact; {suites['picard'].checked} corpus checks")


def test_c08_equivalence_oracle_agreement(suites):
    # three equivalence relations (integer lattice membership, reduced-form
    # comparison, chip-firing reachability) are each transitive by
    # construction, so partition-level agreement on the divisor box is
    # agreement on 100% of divisor pairs
    _require(suites["equivalence_oracles"])
    _require(suites["reduction"])
    _passed("criterion 8",
            f"{suites['equivalence_oracles'].checked} partition checks agree")


def test_c09_contraction_suite(suites):
    _require(suites["contraction_complexity"])
    _require(suites["contraction_pushforward"])
    _passed("criterion 9",
            "pushed lattices cover, bridges preserve rank, "
            "complexity obeys deletion/contraction")


def test_c10_rank_property_suites(suites):
    _require(suites["rank_properties"])
    _require(suites["superadditivity"])
    _require(suites["principal_divisors"])
    _require(suites["rank_oracle"])
    _passed("criterion 10",
            f"{suites['rank_properties'].checked} rank-law checks, "
            f"{suites['superadditivity'].checked} superadditivity pairs, "
            f"{suites['principal_divisors'].checked} function checks")


def test_c11_semibalanced_suite(suites, capsys):
    _require(suites["semibalanced"])
    # golden output: the balance bound is printed as an exact rational
    code = main(["balance", str(FIXTURES / "binary_g3.json"),
                 "--divisor", "(5,0)", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["details"]["bound"] == "1/2"
    assert payload["details"]["value"] == 0
    with capsys.disabled():
        _passed("criterion 11",
                f"{suites['semibalanced'].checked} representatives at rank d-g; "
                "bounds rendered exactly")
