"""Independent checks of ``divgraph`` CLI answers, run outside the timed
region on a freshly loaded copy of each query's graph.

Each check confirms an answer through a law it must satisfy rather than
by recomputing it the same way: Riemann-Roch and the degree bounds for
``rank``, recomputed ranks held to the degree bounds for ``rr-check`` and
``clifford``, lattice membership plus idempotence for ``reduce``, the order
against ``Graph.complexity()`` for ``pic``, equality of reduced forms for
``equiv``, the rational balance bound subset by subset for ``balance``,
and ``balance_report`` plus ``is_equivalent`` for ``semibalance-rep``.
"""

import json
from itertools import combinations


def check_answer(query, code, output):
    """None when the answer to ``query`` is right, else a short reason."""
    from divgraph.divisors import Divisor, canonical_divisor
    from divgraph.io import load_document, parse_divisor
    from divgraph.picard import is_equivalent, principal_lattice, reduce_coeffs
    from divgraph.rank import rank
    from divgraph.transforms import balance_bound, balance_report

    if not isinstance(code, int):
        return f"raised {code}"
    if code == 2:
        return "exit code 2"
    try:
        payload = json.loads(output)
    except json.JSONDecodeError:
        return f"output is not JSON: {output[:80]!r}"
    command, argv = query["command"], query["argv"]
    graph, named = load_document(query["path"])
    flags = dict(zip(argv[2::2], argv[3::2]))
    result, details = payload.get("result"), payload.get("details", {})
    genus = graph.genus()

    def divisor(flag="--divisor"):
        return parse_divisor(flags[flag], graph, named)

    def out_of_bounds(r, degree):
        """The degree bounds every rank obeys, or None."""
        if r < -1 or r > max(-1, degree):
            return f"rank {r} outside [-1, max(-1, degree {degree})]"
        if degree >= 2 * genus - 1 and r != degree - genus:
            return f"rank {r} != degree - genus at degree {degree}"
        return None

    if command == "rank":
        d = divisor()
        residual = rank(graph, canonical_divisor(graph) - d).value
        if result - residual != d.degree - genus + 1:
            return f"rank {result} breaks Riemann-Roch with residual rank {residual}"
        problem = out_of_bounds(result, d.degree)
        return problem or (None if code == 0 else f"exit code {code}")
    if command in ("rr-check", "clifford"):
        # the reported ranks are recomputed on the freshly loaded graph and
        # held to the degree bounds, not only to each other
        d = divisor()
        r = rank(graph, d).value
        if details["rank"] != r or details["degree"] != d.degree:
            return (f"reported rank {details['rank']} at degree {details['degree']}, "
                    f"recomputed {r} at degree {d.degree}")
        problem = out_of_bounds(r, d.degree)
        if problem:
            return problem
        if command == "clifford":
            ok = result is True and 2 * r <= d.degree and code == 0
            return None if ok else "Clifford bound reported violated"
        k_d = canonical_divisor(graph) - d
        residual = rank(graph, k_d).value
        if details["residual_rank"] != residual:
            return f"reported residual rank {details['residual_rank']}, recomputed {residual}"
        problem = out_of_bounds(residual, k_d.degree)
        if problem:
            return f"residual {problem}"
        holds = r - residual == d.degree - genus + 1
        return None if result is True and holds and code == 0 else "identity reported false"
    if command == "reduce":
        d = divisor()
        q = graph.index(flags["--basepoint"])
        diff = tuple(a - b for a, b in zip(d.coeffs, result))
        if diff not in principal_lattice(graph):
            return f"{result} is not equivalent to the input"
        if list(reduce_coeffs(graph, tuple(result), q)) != result:
            return f"{result} is not q-reduced (reducing it again changes it)"
        if any(c < 0 for i, c in enumerate(result) if i != q):
            return f"{result} is negative away from the basepoint"
        return None if code == 0 else f"exit code {code}"
    if command == "equiv":
        d1, d2 = divisor("--d1"), divisor("--d2")
        same = (d1.degree == d2.degree
                and reduce_coeffs(graph, d1.coeffs, 0) == reduce_coeffs(graph, d2.coeffs, 0))
        if query["expect"].get("equivalent") and not same:
            return "generated as equivalent, reduced forms differ"
        if result != same or code != (0 if same else 1):
            return f"answered {result}, reduced forms say {same}"
        return None
    if command == "pic":
        factors, order = result["invariant_factors"], result["order"]
        product = 1
        for f in factors:
            product *= f
        chain = all(b % a == 0 for a, b in zip(factors, factors[1:]))
        if order != graph.complexity() or product != order or not chain:
            return f"group {factors} of order {order}, complexity {graph.complexity()}"
        return None if code == 0 else f"exit code {code}"
    if command == "balance":
        d = divisor()
        ids = graph.vertex_ids
        semibalanced = all(
            d.restrict(zs) >= balance_bound(graph, d.degree, zs)
            for size in range(1, len(ids))
            for zs in combinations(ids, size)
        ) and all(
            d[v] >= 0 for i, v in enumerate(ids)
            if graph.weights[i] == 0 and graph.valency(v) == 2
        )
        if result != semibalanced or code != (0 if semibalanced else 1):
            return f"answered {result}, the subset bounds say {semibalanced}"
        return None
    if command == "semibalance-rep":
        d = divisor()
        rep = Divisor(graph, result)
        if not balance_report(graph, rep).semibalanced:
            return f"{result} is not semibalanced"
        if not is_equivalent(rep, d):
            return f"{result} is not in the class of the input"
        return None if code == 0 else f"exit code {code}"
    return f"no check for command {command!r}"
