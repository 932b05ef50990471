"""divgraph benchmark: seeded corpus sweeps and a cold CLI query stream.

    python3 benchmark/run.py --workload rank_sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``divgraph`` from its
``src/`` directory. Every run is a fresh interpreter, so the per-graph
memos start cold, as in a real ``divgraph verify`` or CLI invocation. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics and ``--trace 1`` the per-layer metrics of a traced
pass (see README.md).
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from tracer import (  # noqa: E402
    ALREADY_REDUCED,
    CANDIDATES,
    REDUCE_FROM_RANK,
    Tracer,
)

RR_REDUCTIONS = "riemann_roch.reductions"

CORPUS = (4, 6, 2)  # the verify gate's default caps
SETUP_REPEATS = 3
IMPORT_REPEATS = 5  # a fresh interpreter's import is cheap and noisy

# Suite order matters: riemann_roch warms the rank memos first, as in
# ``divgraph verify``. semicontinuity_fixture is a constant and runs nowhere.
# class_sweep samples adjacencies, since its heavy suites dedupe on them.
SWEEPS = {
    "rank_sweep": (("riemann_roch", "rank_properties", "superadditivity",
                    "rank_oracle", "contraction_pushforward"),
                   inputs.stratified_sample, 0.08),
    "class_sweep": (("equivalence_oracles", "reduction", "picard",
                     "principal_divisors", "contraction_complexity",
                     "graph_invariants"),
                    inputs.support_sample, 0.17),
    "semibalance": (("semibalanced",), inputs.stratified_sample, 0.105),
}
QUERIES = 3400
WORKLOADS = (*SWEEPS, "cli_queries")


class Failure(Exception):
    """The program under test could not be found or imported."""


IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
          "import divgraph.cli, divgraph.verify; print(time.perf_counter() - t)")


def load_program():
    """Import divgraph from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "divgraph" / "__init__.py").is_file():
        raise Failure(f"no divgraph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import divgraph.cli
    import divgraph.verify
    if Path(divgraph.__file__).resolve().parent != SRC / "divgraph":
        raise Failure(f"divgraph imported from {divgraph.__file__}, not {SRC}")


def import_times(repeats):
    """Seconds to import the program, each time in a fresh interpreter, as
    every ``divgraph`` invocation does. The run's own import has already
    written the bytecode caches, so no attempt pays for compiling."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return times


def _fresh(items):
    """Cold copies of the sampled graphs: new Graph objects carry empty
    ``_cache`` dicts, so no memo survives from set-up or an earlier pass."""
    from divgraph.graphs import Graph

    return [(gidx, Graph(list(zip(g.vertex_ids, g.weights)), g.edges))
            for gidx, g in items]


def _percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(share * len(ordered)) - 1))]


# -- sweeps ----------------------------------------------------------------


class Sweep:
    """One seeded corpus sample run through a fixed list of verify suites."""

    def __init__(self, name, seed, fraction=None):
        self.name = name
        self.suites, self.sampler, default_fraction = SWEEPS[name]
        self.fraction = default_fraction if fraction is None else fraction
        self.seed = seed
        self.graphs = []
        self.items = []

    def setup(self):
        """The program's set-up: enumerate the corpus."""
        corpus = sys.modules["divgraph.corpus"]
        enumerate_corpus = corpus.connected_multigraphs  # traced in a traced run
        # enumerate afresh, as a new process would; the tracer's wrapper
        # keeps the cached function as ``__wrapped__``
        for fn in (enumerate_corpus, getattr(enumerate_corpus, "__wrapped__", None)):
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
                break
        self.graphs = enumerate_corpus(*CORPUS)

    def make_inputs(self):
        """The benchmark's set-up: draw the seeded sample."""
        self.items = self.sampler(self.graphs, self.fraction, self.seed)

    def checked(self, results):
        """Exact per-suite check counts of one pass."""
        return {suite: r["checked"] for suite, r in results.items()}

    def run_pass(self, tracer=None):
        """Run every suite over a cold copy of the sample, in order, as
        verify does. Returns (seconds, per-suite results, no latencies)."""
        verify = sys.modules["divgraph.verify"]
        items = _fresh(self.items)
        results = {}
        close_pass = tracer.span("bench.pass") if tracer else None
        started = time.perf_counter()
        for suite in self.suites:
            before = tracer.counts[REDUCE_FROM_RANK] if tracer else 0
            close = tracer.span(f"verify.{suite}") if tracer else None
            rec = verify.SUITES[suite](items, {})
            if close:
                close()
                if suite == "riemann_roch":
                    tracer.counts[RR_REDUCTIONS] = tracer.counts[REDUCE_FROM_RANK] - before
            results[suite] = {"checked": rec.checked, "violations": rec.violations,
                              "first": rec.first[1] if rec.first else None}
        seconds = time.perf_counter() - started
        if close_pass:
            close_pass()
        return seconds, results, []

    @staticmethod
    def verdict(passes):
        """(attempted, failed, problems) over all passes: a violation fails
        its check, and every pass must check exactly the same counts."""
        attempted = failed = 0
        problems = []
        reference = {s: r["checked"] for s, r in passes[0][1].items()}
        for _, results, _ in passes:
            for suite, r in results.items():
                attempted += r["checked"]
                failed += r["violations"]
                if r["first"]:
                    problems.append(f"{suite}: {r['first']}")
                if r["checked"] != reference[suite]:
                    problems.append(f"{suite}: checked {r['checked']} != {reference[suite]}")
                    failed += 1
        return attempted, failed, problems

    def cleanup(self):
        pass


# -- cli_queries -----------------------------------------------------------


class Queries:
    """A closed loop with one client: each seeded query is sent to
    ``divgraph.cli.main`` in-process as soon as the previous one returns."""

    name = "cli_queries"

    def __init__(self, seed, count=QUERIES):
        self.seed = seed
        self.count = count
        self.queries = []
        self.directory = OUT / f"docs-{seed}"

    def setup(self):
        """Beyond the import there is nothing to set up: every query starts cold."""

    def make_inputs(self):
        self.queries = inputs.generate_queries(self.seed, self.count, self.directory)

    def checked(self, answers):
        """Queries answered in one pass, by command."""
        counts = dict.fromkeys(inputs.COMMANDS, 0)
        for q, _ in zip(self.queries, answers):
            counts[q["command"]] += 1
        return counts

    def run_pass(self, tracer=None):
        cli = sys.modules["divgraph.cli"]
        answers = []
        samples = []
        close_pass = tracer.span("bench.pass") if tracer else None
        started = time.perf_counter()
        for q in self.queries:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = cli.main(q["argv"])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a traceback is a failed query
                    code = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
            samples.append(1000.0 * dt)
            answers.append((code, out.getvalue()))
        seconds = time.perf_counter() - started
        if close_pass:
            close_pass()
        return seconds, answers, samples

    def verdict(self, passes):
        """(attempted, failed, problems): pass one's answers are checked
        independently; later passes must repeat them exactly."""
        from answers import check_answer

        first = passes[0][1]
        problems = {}
        for i, (q, (code, output)) in enumerate(zip(self.queries, first)):
            problem = check_answer(q, code, output)
            if problem:
                problems[i] = f"{' '.join(q['argv'])}: {problem}"
        attempted = failed = 0
        for _, answers, _ in passes:
            attempted += len(answers)
            failed += sum(1 for i, a in enumerate(answers) if i in problems or a != first[i])
        return attempted, failed, list(problems.values())

    def cleanup(self):
        shutil.rmtree(self.directory, ignore_errors=True)


def make_workload(name, seed, fraction=None, queries=None):
    if name == "cli_queries":
        return Queries(seed, QUERIES if queries is None else queries)
    return Sweep(name, seed, fraction)


# -- measuring -------------------------------------------------------------


def _timed(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _run_pass(workload, tracer=None):
    # Memo graphs hold reference cycles (a graph caches its loopless model,
    # which points back at it); collect them so every pass starts from the
    # same heap instead of paying for the last pass's garbage.
    gc.collect()
    return workload.run_pass(tracer)


def measure(workload, seconds, setup_repeats=SETUP_REPEATS, import_repeats=IMPORT_REPEATS):
    """Untraced run: end-to-end metrics. ``setup_s`` is the program's own
    set-up, the median import plus the median corpus enumeration for the
    sweeps; making the seeded inputs is timed apart. Passes repeat over
    the same inputs until about ``seconds`` have been measured (at least
    one)."""
    imports = import_times(import_repeats)
    setups = [_timed(workload.setup) for _ in range(setup_repeats)]
    setup_s = statistics.median(imports) + statistics.median(setups)
    inputs_s = _timed(workload.make_inputs)
    passes = [_run_pass(workload)]
    wanted = max(1, round(seconds / passes[0][0]))
    while len(passes) < wanted:
        passes.append(_run_pass(workload))
    # read before the answer checks, whose own allocations are not the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, problems = workload.verdict(passes)
    walls = [p[0] for p in passes]
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "checks_per_s": (attempted / len(passes) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"import_seconds": imports, "setup_seconds": setups, "inputs_seconds": inputs_s,
            "passes": len(passes), "pass_seconds": walls,
            "checked_per_pass": workload.checked(passes[0][1]), "problems": problems[:5]}
    return attempted, failed, metrics, info


def measure_traced(workload):
    """Traced run: one untraced pass, then one traced pass over the same
    inputs; per-layer metrics come from the traced pass's spans."""
    tracer = Tracer()
    tracer.install()
    workload.setup()
    tracer.uninstall()
    workload.make_inputs()
    untraced = _run_pass(workload)
    tracer.install()
    traced = _run_pass(workload, tracer)
    tracer.uninstall()
    attempted, failed, problems = workload.verdict([untraced, traced])
    metrics = layer_metrics(tracer, workload, traced, untraced)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload.name}-{workload.seed}.tsv.gz"
    tracer.write(path)
    info = {"spans": len(tracer.name), "span_file": str(path.relative_to(ROOT)),
            "untraced_targets": tracer.missing, "problems": problems[:5]}
    return attempted, failed, metrics, info


COMMANDS = inputs.COMMANDS
ALL_SUITES = tuple(s for suites, _, _ in SWEEPS.values() for s in suites)
MODULES = ("picard", "rank", "transforms", "oracles", "intmat", "divisors",
           "graphs", "io", "cli", "verify")


def layer_metrics(tracer, workload, traced, untraced):
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    def module_self(module):
        return sum((v[2] for k, v in totals.items() if k.startswith(module + ".")), 0.0)

    wall = traced[0]
    suite_checks = traced[1] if isinstance(workload, Sweep) else {}
    latencies = untraced[2]
    m = {}
    burn = "picard.reduce_coeffs"
    m[f"{burn}.calls"] = (calls(burn), "count")
    m[f"{burn}.s"] = (incl(burn), "s")
    m[f"{burn}.us_per_call"] = (1e6 * ratio(incl(burn), calls(burn)), "us")
    m[f"{burn}.already_reduced_ratio"] = (ratio(counts[ALREADY_REDUCED], calls(burn)), "ratio")
    m["picard.enumerate_classes.s"] = (incl("picard.enumerate_classes"), "s")
    rr_checked = suite_checks.get("riemann_roch", {}).get("checked", 0)
    m["rank.reductions_per_check"] = (
        ratio(counts[RR_REDUCTIONS], rr_checked), "ratio")
    m["rank.certify_rank_below.s"] = (incl("rank.certify_rank_below"), "s")
    search = "transforms.find_semibalanced_representative"
    m[f"{search}.calls"] = (calls(search), "count")
    m[f"{search}.s"] = (incl(search), "s")
    m["transforms.candidates_per_class"] = (ratio(counts[CANDIDATES], calls(search)), "ratio")
    m["transforms.balance_report.s"] = (incl("transforms.balance_report"), "s")
    m["transforms.push_forward.s"] = (incl("transforms.push_forward"), "s")
    m["oracles.FiringComponents.calls"] = (calls("oracles.FiringComponents"), "count")
    m["oracles.FiringComponents.s"] = (incl("oracles.FiringComponents"), "s")
    m["oracles.rank_by_definition.s"] = (incl("oracles.rank_by_definition"), "s")
    m["oracles.spanning_tree_count.s"] = (incl("oracles.spanning_tree_count"), "s")
    for name in ("intmat.IntegerLattice.contains", "intmat.smith_normal_form",
                 "divisors.Divisor", "divisors.firing_divisor", "graphs.loopless_model"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (incl(name), "s")
    for name in ("intmat.determinant", "graphs.contract", "graphs.complexity",
                 "corpus.connected_multigraphs", "io.load_document", "io.parse_divisor"):
        m[f"{name}.s"] = (incl(name), "s")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    # per-query latency comes from the untraced pass; 0 when no queries ran
    m["cli.queries"] = (len(latencies), "count")
    m["cli.query_p50_ms"] = (_percentile(latencies, 0.50) if latencies else 0.0, "ms")
    m["cli.query_p99_ms"] = (_percentile(latencies, 0.99) if latencies else 0.0, "ms")
    for command in COMMANDS:
        m[f"cli.{command}.calls"] = (calls(f"cli.{command}"), "count")
        m[f"cli.{command}.s"] = (incl(f"cli.{command}"), "s")
    for suite in ALL_SUITES:
        m[f"verify.{suite}.s"] = (incl(f"verify.{suite}"), "s")
        m[f"verify.{suite}.checked"] = (suite_checks.get(suite, {}).get("checked", 0), "count")
    for module in MODULES:
        m[f"{module}.self_s"] = (module_self(module), "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (untraced[0], "s")
    m["trace.overhead_s"] = (wall - untraced[0], "s")
    m["trace.unattributed_s"] = (self_s("bench.pass"), "s")
    m["trace.spans"] = (len(tracer.name), "count")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except (Failure, ImportError) as exc:
        print(f"benchmark: cannot load the program: {exc}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed)
    try:
        if args.trace:
            attempted, failed, metrics, info = measure_traced(workload)
        else:
            attempted, failed, metrics, info = measure(workload, args.seconds)
    finally:
        workload.cleanup()
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}),
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
