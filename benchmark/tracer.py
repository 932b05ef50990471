"""Spans around calls into divgraph's modules, recorded from outside.

The tracer edits nothing under ``src/``: it rebinds each traced function
in every loaded ``divgraph`` module that holds it (``reduce_coeffs`` lives
in ``divgraph.picard`` but is also bound in ``divgraph.rank`` and
``divgraph.verify``) and patches traced methods on their classes. Spans
(name, parent, start, end) stay in compact arrays until the run ends;
self time is the span minus its traced children.
"""

import gzip
import sys
import time
from array import array
from collections import Counter

# (module, attribute path, span name); a dotted attribute is a method
# patched on its class. Span names are the metric names' prefixes.
TARGETS = (
    ("picard", "reduce_coeffs", "picard.reduce_coeffs"),
    ("picard", "q_reduce", "picard.q_reduce"),
    ("picard", "is_equivalent", "picard.is_equivalent"),
    ("picard", "principal_lattice", "picard.principal_lattice"),
    ("picard", "picard_structure", "picard.picard_structure"),
    ("picard", "enumerate_classes", "picard.enumerate_classes"),
    ("rank", "rank", "rank.rank"),
    ("rank", "riemann_roch_check", "rank.riemann_roch_check"),
    ("rank", "clifford_check", "rank.clifford_check"),
    ("rank", "certify_rank_below", "rank.certify_rank_below"),
    ("transforms", "push_forward", "transforms.push_forward"),
    ("transforms", "verify_prin_pushforward", "transforms.verify_prin_pushforward"),
    ("transforms", "bridge_rank_preservation", "transforms.bridge_rank_preservation"),
    ("transforms", "balance_report", "transforms.balance_report"),
    ("transforms", "balance_bound", "transforms.balance_bound"),
    ("transforms", "find_semibalanced_representative",
     "transforms.find_semibalanced_representative"),
    ("oracles", "spanning_tree_count", "oracles.spanning_tree_count"),
    ("oracles", "spanning_trees_avoiding", "oracles.spanning_trees_avoiding"),
    ("oracles", "rank_by_definition", "oracles.rank_by_definition"),
    ("oracles", "FiringComponents.__init__", "oracles.FiringComponents"),
    ("intmat", "determinant", "intmat.determinant"),
    ("intmat", "smith_normal_form", "intmat.smith_normal_form"),
    ("intmat", "IntegerLattice.__contains__", "intmat.IntegerLattice.contains"),
    ("intmat", "IntegerLattice.add", "intmat.IntegerLattice.add"),
    ("divisors", "Divisor.__init__", "divisors.Divisor"),
    ("divisors", "firing_divisor", "divisors.firing_divisor"),
    ("divisors", "canonical_divisor", "divisors.canonical_divisor"),
    ("divisors", "RationalFunction.divisor", "divisors.RationalFunction.divisor"),
    ("graphs", "Graph.loopless_model", "graphs.loopless_model"),
    ("graphs", "Graph.contract", "graphs.contract"),
    ("graphs", "Graph.complexity", "graphs.complexity"),
    ("graphs", "Graph.intersection", "graphs.intersection"),
    ("graphs", "Graph.is_bridge", "graphs.is_bridge"),
    ("corpus", "connected_multigraphs", "corpus.connected_multigraphs"),
    ("io", "load_document", "io.load_document"),
    ("io", "parse_divisor", "io.parse_divisor"),
    ("cli", "main", "cli.main"),
)

# The rank engine recurses through its own ``rank`` method; only the
# outermost entry becomes a span, so its self time is the engine's own.
ENGINE_METHODS = ("rank", "reduced", "class_effective")

REDUCE_FROM_RANK = "picard.reduce_coeffs<-rank"
ALREADY_REDUCED = "picard.reduce_coeffs.already_reduced"
CANDIDATES = "transforms.candidates"


def _modules():
    return {name: mod for name, mod in list(sys.modules.items())
            if name == "divgraph" or name.startswith("divgraph.")}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.missing = []
        self._patches = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, after=None, guard=None):
        """A wrapper recording one span per call of ``fn``.

        ``after(args, result)`` runs after the span closes; a ``guard``
        (a one-element list) suppresses spans for calls nested inside
        another call of the same guarded group.
        """
        nid = self.name_id(name)
        clock = time.perf_counter
        stack, names, parents = self.stack, self.name, self.parent
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            if guard is not None:
                if guard[0]:
                    return fn(*args, **kwargs)
                guard[0] = True
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if guard is not None:
                    guard[0] = False
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name):
        """Open a span from the benchmark's own code; returns its closer."""
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())

        def close():
            self.end[idx] = time.perf_counter()
            self.stack.pop()

        return close

    # -- installing the wrappers ---------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Point every divgraph module attribute bound to ``original`` at
        ``wrapper``."""
        for mod in _modules().values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self):
        """Wrap every target the loaded program has. A target that a later
        version of the program renamed or removed is skipped and listed in
        ``missing``; its metrics then read 0."""
        mods = _modules()
        counts = self.counts
        self.missing = []

        def lookup(modname, path):
            owner = mods.get(f"divgraph.{modname}")
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(f"{modname}.{path}")
                return None, attr
            return owner, attr

        for modname, path, name in TARGETS:
            owner, attr = lookup(modname, path)
            if owner is None:
                continue
            if "." in path:
                self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
                continue
            original = getattr(owner, attr)
            after = None
            if path == "reduce_coeffs":
                def after(args, result):
                    if result == tuple(args[1]):
                        counts[ALREADY_REDUCED] += 1
            self._rebind(original, self.wrap(name, original, after=after))
        # a second wrapper for the rank engine's own binding of the burn,
        # so reductions requested by the rank layer are counted apart
        rank_mod, _ = lookup("rank", "reduce_coeffs")
        if rank_mod is not None:
            burn = rank_mod.reduce_coeffs

            def burn_from_rank(*args):
                counts[REDUCE_FROM_RANK] += 1
                return burn(*args)

            self._patch(rank_mod, "reduce_coeffs", burn_from_rank)
        guard = [False]
        for meth in ENGINE_METHODS:
            engine, _ = lookup("rank", f"_RankEngine.{meth}")
            if engine is not None:
                self._patch(engine, meth,
                            self.wrap(f"rank._RankEngine.{meth}", getattr(engine, meth),
                                      guard=guard))
        for modname, mod in mods.items():
            if modname.startswith("divgraph.cli"):
                for attr in [a for a in vars(mod) if a.startswith("_cmd_")]:
                    command = attr[len("_cmd_"):].replace("_", "-")
                    self._patch(mod, attr, self.wrap(f"cli.{command}", getattr(mod, attr)))
        # counted, not spanned: one call per candidate of the semibalanced search
        context, _ = lookup("transforms", "_BalanceContext.is_semibalanced")
        if context is not None:
            test = context.is_semibalanced

            def counted(ctx, coeffs):
                counts[CANDIDATES] += 1
                return test(ctx, coeffs)

            self._patch(context, "is_semibalanced", counted)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the spans ---------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.name)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {}
        for i in range(n):
            dur = end[i] - start[i]
            calls, incl, self_s = out.get(self.names[self.name[i]], (0, 0.0, 0.0))
            out[self.names[self.name[i]]] = (calls + 1, incl + dur, self_s + dur - child[i])
        return out

    def write(self, path):
        """Write every span as ``name<TAB>parent<TAB>start<TAB>end``."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.parent[i]}"
                         f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
