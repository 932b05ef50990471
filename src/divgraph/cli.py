"""Command-line front-end.

One subcommand per library operation plus a ``verify`` runner for the
property suites. Exit codes: 0 for success or a true check, 1 for a
well-formed negative answer (not equivalent, check fails, suite found a
counterexample), 2 for usage or input errors and any other exception (one
``error:`` line). ``--format json`` emits a single object with ``command``,
``result`` and ``details`` keys; all numbers are exact integers,
non-integral rationals are rendered as "p/q" strings.
"""

import argparse
import functools
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from . import verify as verify_mod
from .divisors import Divisor, canonical_divisor
from .errors import DivisorGraphError
from .io import document_of, load_document, parse_divisor
from .picard import CLASS_CAP, enumerate_classes, is_equivalent, picard_structure, q_reduce
from .rank import DEFAULT_DEGREE_CAP, certify_rank_below, check_clifford_degree, rank
from .transforms import (
    balance_bound,
    balance_report,
    find_semibalanced_representative,
    push_forward,
)

OK, NEGATIVE, ERROR = 0, 1, 2


def _rational(value):
    """Exact rendering: plain int when integral, 'p/q' string otherwise."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value


def _emit(args, command, result, details=None, exit_code=OK, text=None):
    if args.format == "json":
        payload = {"command": command, "result": result, "details": details or {}}
        print(json.dumps(payload, ensure_ascii=False))
    else:
        print(text if text is not None else result)
    return exit_code


def _load(args):
    return load_document(args.graph)


def _divisor(args, graph, named):
    return parse_divisor(args.divisor, graph, named)


# -- subcommand handlers ----------------------------------------------------


def _cmd_genus(args):
    graph, _ = _load(args)
    return _emit(args, "genus", graph.genus())


def _cmd_canonical(args):
    graph, _ = _load(args)
    k = canonical_divisor(graph)
    return _emit(args, "canonical", list(k.coeffs),
                 details={"degree": k.degree},
                 text=str(list(k.coeffs)))


def _cmd_rank(args):
    graph, named = _load(args)
    d = _divisor(args, graph, named)
    result = rank(graph, d, with_witness=True, max_degree=args.max_search_degree)
    details = {"degree": d.degree, "genus": graph.genus()}
    if result.witness is not None:
        details["witness"] = list(result.witness.coeffs)
        details["witness_graph_vertices"] = list(result.witness.graph.vertex_ids)
    return _emit(args, "rank", result.value, details=details)


def _cmd_reduce(args):
    graph, named = _load(args)
    d = _divisor(args, graph, named)
    red = q_reduce(d, args.basepoint)
    return _emit(args, "reduce", list(red.coeffs),
                 details={"basepoint": args.basepoint},
                 text=str(list(red.coeffs)))


def _cmd_equiv(args):
    graph, named = _load(args)
    d1 = parse_divisor(args.d1, graph, named)
    d2 = parse_divisor(args.d2, graph, named)
    equivalent = is_equivalent(d1, d2)
    return _emit(args, "equiv", equivalent,
                 text="equivalent" if equivalent else "not equivalent",
                 exit_code=OK if equivalent else NEGATIVE)


def _cmd_pic(args):
    graph, _ = _load(args)
    structure = picard_structure(graph)
    factors = list(structure.invariant_factors)
    return _emit(args, "pic",
                 {"invariant_factors": factors, "order": structure.order},
                 text=f"invariant factors {factors}, order {structure.order}")


def _cmd_classes(args):
    graph, _ = _load(args)
    reps = enumerate_classes(graph, args.degree, cap=args.cap)
    coeff_lists = [list(d.coeffs) for d in reps]
    text = "\n".join(str(c) for c in coeff_lists)
    return _emit(args, "classes", coeff_lists,
                 details={"count": len(reps), "degree": args.degree},
                 text=text)


def _cmd_contract(args):
    graph, _ = _load(args)
    cm = graph.contract(set(args.edges))
    doc = document_of(cm.target)
    details = {
        "vertex_map": dict(cm.vertex_map),
        "contracted_edges": sorted(cm.contracted_edges),
    }
    return _emit(args, "contract", doc, details=details,
                 text=json.dumps(doc, indent=2))


def _cmd_pushforward(args):
    graph, named = _load(args)
    d = _divisor(args, graph, named)
    cm = graph.contract(set(args.edges))
    pushed = push_forward(cm, d)
    return _emit(args, "pushforward", list(pushed.coeffs),
                 details={"target_vertices": list(cm.target.vertex_ids)},
                 text=str(list(pushed.coeffs)))


def _cmd_bullet(args):
    graph, named = _load(args)
    model = graph.loopless_model()
    divisors = None
    if args.divisor:
        d = _divisor(args, graph, named)
        divisors = {"pushed": Divisor(model.model, model.embed_coeffs(d.coeffs))}
    doc = document_of(model.model, divisors)
    return _emit(args, "bullet", doc,
                 details={"genus": model.model.genus()},
                 text=json.dumps(doc, indent=2))


def _cmd_rr_check(args):
    graph, named = _load(args)
    d = _divisor(args, graph, named)
    k = canonical_divisor(graph)
    r_d = rank(graph, d).value
    r_res = rank(graph, k - d).value
    holds = r_d - r_res == d.degree - graph.genus() + 1
    details = {
        "rank": r_d,
        "residual_rank": r_res,
        "degree": d.degree,
        "genus": graph.genus(),
    }
    return _emit(args, "rr-check", holds, details=details,
                 text=f"{r_d} - ({r_res}) == {d.degree} - {graph.genus()} + 1: {holds}",
                 exit_code=OK if holds else NEGATIVE)


def _cmd_clifford(args):
    graph, named = _load(args)
    d = _divisor(args, graph, named)
    check_clifford_degree(graph, d.degree)
    r = rank(graph, d).value
    holds = 2 * r <= d.degree
    return _emit(args, "clifford", holds,
                 details={"rank": r, "degree": d.degree},
                 text="holds" if holds else "violated",
                 exit_code=OK if holds else NEGATIVE)


def _cmd_kz(args):
    graph, named = _load(args)
    d = _divisor(args, graph, named)
    holds = certify_rank_below(graph, d, args.vertex, args.r)
    details = {"implied_bound": args.r - 1} if holds else {}
    return _emit(args, "kz", holds, details=details,
                 text=(f"hypotheses hold: rank <= {args.r - 1}"
                       if holds else "hypotheses do not hold"),
                 exit_code=OK if holds else NEGATIVE)


def _cmd_balance(args):
    graph, named = _load(args)
    d = _divisor(args, graph, named)
    report = balance_report(graph, d)
    details = {"balanced": report.balanced, "degree": d.degree}
    if report.violating_set is not None:
        witness = sorted(report.violating_set)
        details["violating_set"] = witness
        details["bound"] = _rational(balance_bound(graph, d.degree, witness))
        details["value"] = d.restrict(witness)
    text = (
        f"semibalanced={report.semibalanced} balanced={report.balanced}"
        + (f" witness={sorted(report.violating_set)}"
           f" value={details.get('value')} bound={details.get('bound')}"
           if report.violating_set is not None else "")
    )
    return _emit(args, "balance", report.semibalanced, details=details,
                 text=text, exit_code=OK if report.semibalanced else NEGATIVE)


def _cmd_semibalance_rep(args):
    graph, named = _load(args)
    d = _divisor(args, graph, named)
    rep = find_semibalanced_representative(graph, d)
    return _emit(args, "semibalance-rep", list(rep.coeffs),
                 details={"degree": rep.degree},
                 text=str(list(rep.coeffs)))


def _cmd_verify(args):
    results = verify_mod.run_all(
        max_vertices=args.max_vertices,
        max_edges=args.max_edges,
        max_total_weight=args.max_weight,
        workers=args.workers,
        coeff_bound=args.coeff_box,
        max_degree=args.max_degree,
        random_functions=args.random_functions,
    )
    failed = [r for r in results if not r.passed]
    total = sum(r.checked for r in results)
    text = "\n".join([r.line() for r in results]
                     + [f"{'FAIL' if failed else 'ok  '} total checks: {total}"])
    return _emit(args, "verify", not failed, details={"suites": [asdict(r) for r in results]},
                 text=text, exit_code=NEGATIVE if failed else OK)


# -- parser -----------------------------------------------------------------


def _int_in(low, high=None):
    """argparse type: an int from ``low`` to ``high`` (no upper end if None)."""
    def parse(text):
        value = int(text)
        if value < low or high is not None and value > high:
            upto = "" if high is None else f" and at most {high}"
            raise argparse.ArgumentTypeError(f"must be at least {low}{upto}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value"
    return parse


@functools.cache  # built on the first call, then shared: parsing leaves it unchanged
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="divgraph",
        description="Exact divisor theory on vertex-weighted multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, needs_graph=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if needs_graph:
            p.add_argument("graph", help="path to a graph document (JSON)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(handler=handler)
        return p

    add("genus", _cmd_genus, help="genus of the graph")
    add("canonical", _cmd_canonical, help="canonical divisor")

    p = add("rank", _cmd_rank, help="Baker-Norine rank of a divisor")
    p.add_argument("--divisor", required=True)
    p.add_argument("--max-search-degree", type=int, default=DEFAULT_DEGREE_CAP)

    p = add("reduce", _cmd_reduce, help="q-reduced representative")
    p.add_argument("--divisor", required=True)
    p.add_argument("--basepoint", required=True)

    p = add("equiv", _cmd_equiv, help="linear equivalence of two divisors")
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)

    add("pic", _cmd_pic, help="invariant factors of the Picard group")

    p = add("classes", _cmd_classes, help="one representative per divisor class")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cap", type=int, default=CLASS_CAP)

    p = add("contract", _cmd_contract, help="contract a set of edges")
    p.add_argument("--edges", type=int, nargs="+", required=True,
                   help="0-based indices into the document's edge list")

    p = add("pushforward", _cmd_pushforward,
            help="push a divisor through a contraction")
    p.add_argument("--edges", type=int, nargs="+", required=True)
    p.add_argument("--divisor", required=True)

    p = add("bullet", _cmd_bullet, help="weightless loopless model")
    p.add_argument("--divisor")

    p = add("rr-check", _cmd_rr_check, help="Riemann-Roch identity check")
    p.add_argument("--divisor", required=True)

    p = add("clifford", _cmd_clifford, help="Clifford bound check")
    p.add_argument("--divisor", required=True)

    p = add("kz", _cmd_kz, help="cut criterion certifying rank <= r-1")
    p.add_argument("--divisor", required=True)
    p.add_argument("--vertex", required=True)
    p.add_argument("--r", type=int, required=True)

    p = add("balance", _cmd_balance, help="semibalanced/balanced report")
    p.add_argument("--divisor", required=True)

    p = add("semibalance-rep", _cmd_semibalance_rep,
            help="semibalanced representative of a class")
    p.add_argument("--divisor", required=True)

    p = add("verify", _cmd_verify, needs_graph=False,
            help="run the property suites over the small-graph corpus")
    p.add_argument("--max-vertices", type=_int_in(1), default=4)
    p.add_argument("--max-edges", type=_int_in(0), default=6)
    p.add_argument("--max-weight", type=_int_in(0), default=2)
    p.add_argument("--max-degree", type=_int_in(0), default=None)
    p.add_argument("--coeff-box", type=_int_in(0), default=verify_mod.COEFF_BOUND)
    p.add_argument("--random-functions", type=_int_in(0),
                   default=verify_mod.RANDOM_FUNCTIONS)
    p.add_argument("--workers", type=_int_in(1, verify_mod.MAX_WORKERS), default=1)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # any other exception is a defect, named by its type
        kind = "" if isinstance(exc, DivisorGraphError) else f"{type(exc).__name__}: "
        print(f"error: {kind}{exc}".replace("\n", " "), file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
