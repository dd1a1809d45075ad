"""Ladder benchmark for taubound.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports taubound from
./src and nothing else of the checkout.  Workloads, metrics and the
reasons for each are in perfbench/README.md.

Every workload is a closed loop with one client in one thread: the next
public call starts when the previous one returns.  The seed drives both
the request stream and the ``seed=`` passed into taubound.  Each run
checks every output against an oracle; a check counts as an operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a separate run
traces one unit of work and reports the per-layer ones.
"""

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import algebras
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5

# Workload-specific names under which each workload's figures are also printed.
DISPLAY = {
    "ladder_fp": [("enumerate_pairs_per_s", "exchange_pairs_per_s", "pairs/s"),
                  ("reports_pairs_per_s", "report_pairs_per_s", "pairs/s")],
    "pair_queries": [("mutate_p50_ms", "exchange_p50_ms", "ms"),
                     ("mutate_p90_ms", "exchange_p90_ms", "ms"),
                     ("pair_report_p50_ms", "report_p50_ms", "ms"),
                     ("pair_report_p90_ms", "report_p90_ms", "ms")],
    "tau_infinite": [("refusal_p50_s", "exchange_p50_ms", "s")],
}
DISPLAY["ladder_q"] = DISPLAY["ladder_fp"]


def import_taubound():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "taubound", "__init__.py")):
        raise SystemExit(f"perfbench: no taubound sources under {src}")
    sys.path.insert(0, src)
    import taubound
    return taubound


def load_spec():
    """BENCHMARK.json: the metric names and units to report."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def digest(tb, payload):
    return hashlib.sha256(tb.canonical_json(payload).encode()).hexdigest()


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def spread(values):
    """Interquartile range over median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / med


class Bench:
    """One run's state: the package, the seed, the operation tally, the
    timed samples and, in a traced run, the tracer."""

    def __init__(self, tb, seed, tracer=None):
        self.tb = tb
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.samples = {"exchange": [], "report": []}   # (group, seconds, pairs)
        self.busy = 0.0

    def recording(self):
        return self.tracer.recording() if self.tracer else contextlib.nullcontext()

    def fail(self, what):
        self.failed += 1
        print(f"perfbench: failed: {what}", file=sys.stderr)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def parse(self, name, text):
        self.attempted += 1
        with self.recording():
            return self.tb.parse_algebra_text(text, path=name)

    def call(self, kind, group, fn, *args, pairs=None, refusal=False, **kwargs):
        """One timed public call.  Returns its result, or None when it
        raised.  With ``refusal`` only a CertificationError is correct."""
        self.attempted += 1
        what = f"{fn.__name__} on {getattr(args[0], 'name', group)}"
        start = time.perf_counter()
        try:
            with self.recording():
                result = fn(*args, **kwargs)
        except self.tb.CertificationError:
            seconds = time.perf_counter() - start
            if not refusal:
                self.fail(f"{what}: {traceback.format_exc()}")
                return None
            result = None
        except Exception:
            self.fail(f"{what}: {traceback.format_exc()}")
            return None
        else:
            seconds = time.perf_counter() - start
            if refusal:
                self.fail(f"{what} returned instead of refusing")
                return None
        self.busy += seconds
        self.samples[kind].append((group, seconds, pairs(result) if pairs else 1))
        return result


class Ladder:
    """enumerate_stt then graph_reports on each algebra of a fixed ladder.
    A unit of work is one pass over the ladder."""

    min_units = 1
    # a request is one pass: the calls of a pass are summed, so a sample
    # spans the whole ladder rather than one algebra's call.  A 25 s run
    # usually makes one pass, and then its p50 and p90 are both that pass's time.
    collapse = "sum"

    def __init__(self, s, specs, expected):
        self.s = s
        self.expected = expected
        self.algebras = [(name, s.parse(name, text), count) for name, text, count in specs]

    def _check_graph(self, name, graph, count, op):
        s = self.s
        s.check(graph.n_nodes == count,
                f"{op} on {name}: {graph.n_nodes} pairs, the closed form gives {count}")
        s.check(digest(s.tb, s.tb.export_graph_json(graph)) == self.expected[name]["graph"],
                f"{op} on {name}: graph export differs from the frozen digest")

    def unit(self, index):
        s, tb = self.s, self.s.tb
        for name, A, count in self.algebras:
            graph = s.call("exchange", index, tb.enumerate_stt, A, seed=s.seed,
                           pairs=lambda g: g.n_nodes)
            if graph is not None:
                self._check_graph(name, graph, count, "enumerate_stt")
            out = s.call("report", index, tb.graph_reports, A, seed=s.seed,
                         pairs=lambda r: r[0].n_nodes)
            if out is not None:
                graph, reports = out
                self._check_graph(name, graph, count, "graph_reports")
                s.check(digest(s.tb, [r.to_json_dict() for r in reports])
                        == self.expected[name]["reports"],
                        f"graph_reports on {name}: reports differ from the frozen digest")


class QueryAlgebra:
    """A pair_queries algebra with its reference exchange graph."""

    def __init__(self, s, name, text, count, expected):
        tb = s.tb
        self.name = name
        self.compact = tb.compact_label
        self.A = s.parse(name, text)
        self.registry = tb.IsoRegistry(self.A, seed=s.seed)
        graph = tb.enumerate_stt(self.A, seed=s.seed, registry=self.registry)
        s.check(graph.n_nodes == count,
                f"reference graph of {name}: {graph.n_nodes} pairs, expected {count}")
        s.check(digest(s.tb, tb.export_graph_json(graph)) == expected["graph"],
                f"reference graph of {name} differs from the frozen digest")
        self.report_digests = expected["node_reports"]
        self.nodes = {n.key: n for n in graph.nodes}
        # arcs[key][name of the exchanged summand] = (neighbour key, direction);
        # every node has one arc per slot, so the arcs form an Eulerian digraph
        self.arcs = {key: {} for key in self.nodes}
        for e in graph.edges:
            self.arcs[e.src][e.removed] = (e.dst, "down")
            self.arcs[e.dst][e.added] = (e.src, "up")
        for key, node in self.nodes.items():
            s.check(sorted(self.slot_names(node.pair)) == sorted(self.arcs[key]),
                    f"reference graph of {name}: node {key} has arcs {self.arcs[key]}")

    def slot_names(self, pair):
        """Names in slot order: module summands, then support vertices."""
        names = [self.compact(self.registry.name_of(x)) for x in pair.summands]
        labels = self.A.quiver.vertices
        return names + [self.compact(f"P({labels[v]})") for v in pair.support]


def euler_circuit(arcs, start, rng):
    """A Hierholzer circuit through every arc once, taking each node's arcs
    in seeded random order: a list of (node, exchanged summand name, next node)."""
    remaining = {u: rng.sample(sorted(out), len(out)) for u, out in sorted(arcs.items())}
    stack, circuit = [(start, None)], []
    while stack:
        u, arc = stack[-1]
        if remaining[u]:
            name = remaining[u].pop()
            v = arcs[u][name][0]
            stack.append((v, (u, name, v)))
        else:
            stack.pop()
            if arc is not None:
                circuit.append(arc)
    circuit.reverse()
    return circuit


class PairQueries:
    """A seeded walk of `mutate` calls with a `derdim_bound_report` of the
    current pair before each step.  A unit of work is, for each algebra, a
    random Eulerian circuit of its exchange graph from a random pair: it
    takes every arc once, so every edge once down and once up.  That is the
    long-run mix of a random walk on uniformly drawn slots, which takes
    every arc equally often, without the sampling noise of such a walk:
    there the share of up-steps, and with it the median, moves by seed."""

    min_units = 2       # at least ten samples above each p90
    collapse = None

    def __init__(self, s, expected):
        self.s = s
        self.algebras = [QueryAlgebra(s, name, text, count, expected[name])
                         for name, text, count in algebras.PAIR_QUERIES]
        self.directions = []

    def unit(self, index):
        s, tb = self.s, self.s.tb
        rng = random.Random(f"{s.seed}/{index}")
        for qa in self.algebras:
            start = rng.choice(sorted(qa.nodes))
            pair = qa.nodes[start].pair
            for key, exchanged, nxt in euler_circuit(qa.arcs, start, rng):
                report = s.call("report", qa.name, tb.derdim_bound_report, qa.A,
                                list(pair.summands), seed=s.seed)
                if report is not None:
                    s.check(digest(s.tb, report.to_json_dict()) == qa.report_digests[key],
                            f"derdim_bound_report on {qa.name} at {key} differs "
                            f"from the frozen digest")
                names = qa.slot_names(pair)
                self.directions.append(qa.arcs[key][exchanged][1])
                result = s.call("exchange", qa.name, tb.mutate, pair, names.index(exchanged),
                                seed=s.seed)
                if result is not None:
                    got = tb.pair_key(sorted(qa.slot_names(result)[:len(result.summands)]))
                    if not s.check(got == nxt, f"mutate on {qa.name}: {exchanged} at {key} "
                                               f"gave {got}, the reference edge leads to {nxt}"):
                        result = None
                # after a failure the walk goes on from the reference pair
                pair = result if result is not None else qa.nodes[nxt].pair


class TauInfinite:
    """enumerate_stt and graph_reports on the Kronecker algebra under each
    of a few small node budgets; only a CertificationError is correct."""

    min_units = 1
    collapse = "median"   # percentiles over each budget's median call time

    def __init__(self, s):
        self.s = s
        self.name, text = algebras.KRONECKER
        self.A = s.parse(self.name, text)

    def unit(self, index):
        s, tb = self.s, self.s.tb
        for budget in algebras.KRONECKER_BUDGETS:
            for kind, fn in (("exchange", tb.enumerate_stt), ("report", tb.graph_reports)):
                s.call(kind, f"{self.name}/{budget}", fn, self.A, max_nodes=budget, seed=s.seed,
                       pairs=lambda _, b=budget: b, refusal=True)


def make_work(s, workload):
    if workload == "ladder_fp":
        return Ladder(s, algebras.LADDER_FP, load_expected())
    if workload == "ladder_q":
        return Ladder(s, algebras.LADDER_Q, load_expected())
    if workload == "pair_queries":
        return PairQueries(s, load_expected())
    return TauInfinite(s)


def summarize(samples, collapse):
    """pairs/s, p50 and p90 in ms over (group, seconds, pairs) samples.
    With ``collapse`` the samples of each group first merge into one: their
    sum, or their median call (the calls of a group do equal work)."""
    if collapse:
        groups = {}
        for g, sec, pairs in samples:
            groups.setdefault(g, []).append((sec, pairs))
        if collapse == "sum":
            rows = [(sum(t for t, _ in v), sum(p for _, p in v)) for v in groups.values()]
        else:
            rows = [(statistics.median(t for t, _ in v), v[0][1]) for v in groups.values()]
    else:
        rows = [(sec, pairs) for _, sec, pairs in samples]
    times = [t for t, _ in rows]
    return {"pairs_per_s": sum(p for _, p in rows) / sum(times),
            "p50_ms": 1000 * statistics.median(times),
            "p90_ms": 1000 * p90(times)}


def setup_probe(workload, seed):
    """Set up once in a fresh interpreter and return the seconds it took."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["ladder_fp", "ladder_q", "pair_queries", "tau_infinite"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    start = time.perf_counter()
    tb = import_taubound()
    tracer = layers.Tracer(tb) if args.trace else None
    if tracer:
        tracer.install()
    s = Bench(tb, args.seed, tracer)
    work = make_work(s, args.workload)
    setup_s = time.perf_counter() - start
    if args.setup_probe:
        print(setup_s)
        return 0 if s.failed == 0 else 1

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} python={sys.version.split()[0]} "
          f"nproc={os.cpu_count()}")
    spec = load_spec()
    if tracer:
        values = traced_run(s, work, tracer, args, spec["per_layer"])
        listed = spec["per_layer"]
    else:
        values = measured_run(s, work, args, setup_s)
        listed = spec["end_to_end"]
    for m in listed:
        print(f"  {m['name']} {values[m['name']]:.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(f"  failed_ratio {s.failed}/{s.attempted} failed/attempted")
    print(json.dumps({"correct": s.failed == 0, "attempted": s.attempted,
                      "failed": s.failed, "metrics": metrics}))
    return 0


def measured_run(s, work, args, setup_s):
    deadline = time.perf_counter() + args.seconds
    longest, units = 0.0, 0
    while units < work.min_units or time.perf_counter() + longest <= deadline:
        t0 = time.perf_counter()
        work.unit(units)
        longest = max(longest, time.perf_counter() - t0)
        units += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    setups = [setup_s]
    for _ in range(SETUP_REPEATS - 1):
        s.attempted += 1
        try:
            setups.append(setup_probe(args.workload, args.seed))
        except (subprocess.SubprocessError, ValueError, IndexError) as e:
            s.fail(f"set-up probe: {e}")

    values = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb}
    for kind in ("exchange", "report"):
        for stat, v in summarize(s.samples[kind], work.collapse).items():
            values[f"{kind}_{stat}"] = v
    for kind in ("exchange", "report"):
        times = [sec for _, sec, _ in s.samples[kind]]
        print(f"  {kind}: {len(times)} calls in {units} units, "
              f"within-run spread (IQR/median) {spread(times):.3f}")
    if isinstance(work, PairQueries):
        downs = work.directions.count("down")
        above = sum(1000 * sec > values["exchange_p90_ms"] for _, sec, _ in s.samples["exchange"])
        print(f"  mutate steps: {downs} down, {len(work.directions) - downs} up; "
              f"{above} above p90")
    print(f"  setup_s samples {[round(x, 4) for x in setups]}")
    for label, key, unit in DISPLAY[args.workload]:
        v = values[key] / 1000 if unit == "s" else values[key]
        print(f"  {label} {v:.6g} {unit}")
    return values


def traced_run(s, work, tracer, args, listed):
    """Unit 0 traced, then unit 0 untraced and traced in turn while the
    time allows; every unit does the same work.  Counts come from the first
    traced unit alone, so they repeat exactly for a seed.
    trace.overhead_ratio is the median busy time of the traced units over
    that of the untraced ones."""
    deadline = time.perf_counter() + args.seconds

    def timed(traced):
        if traced and s.tracer is None:
            tracer.install()
            s.tracer = tracer
        elif not traced and s.tracer is not None:
            tracer.uninstall()
            s.tracer = None
        busy0 = s.busy
        work.unit(0)
        return s.busy - busy0

    pairs0 = sum(p for kind in s.samples.values() for _, _, p in kind)
    t0 = time.perf_counter()
    busy = {True: [timed(True)]}
    pairs = sum(p for kind in s.samples.values() for _, _, p in kind) - pairs0
    values = tracer.metrics(pairs)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tracer.write_spans(os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}.spans.json.gz"))
    counts = {m["name"]: values[m["name"]] for m in listed
              if m["unit"] != "s" and m["name"] != "trace.overhead_ratio"}
    print(f"  spans {len(tracer.spans)}; count digest "
          f"{hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]}")

    busy[False] = [timed(False)]
    turn = time.perf_counter() - t0
    while time.perf_counter() + turn <= deadline:
        tracer.spans.clear()
        busy[True].append(timed(True))
        busy[False].append(timed(False))
    tracer.spans.clear()
    values["trace.overhead_ratio"] = statistics.median(busy[True]) / statistics.median(busy[False])
    print(f"  trace overhead over {len(busy[True])} traced and {len(busy[False])} untraced units")
    return values


if __name__ == "__main__":
    sys.exit(main())
