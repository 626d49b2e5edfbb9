"""The workload process: one closed-loop client with a single connection.

    python3 bench/worker.py SPEC.json          # set up, then run the ops
    python3 bench/worker.py SPEC.json setup    # set up once, print the time
    python3 bench/worker.py --launch ROOT      # start CLI processes (cli workload)

`run.py` writes the spec (inputs, op list and reference answers) and starts
this process once per workload pass.  It imports ubisim from the spec's
source directory and sets the inputs up, timing it.  Then it issues ops
one after another, each only after the previous one has returned, in
whole passes over the op list until the summed op time reaches the spec's
seconds, or until it has issued the spec's op limit.  Between units it
starts short-lived copies of itself in `setup` mode, one at a time, for
more setup samples: they set up in a fresh interpreter, so their memory
never counts in this process's peak.
Every result is checked against the reference outside the timed region.

The host's speed is sampled between ops with a fixed calibration job that
does not use ubisim (see `Speed`), so that op and setup times can be
scaled to one reference speed.  Inputs on which the library hits a known
defect are not timed: they run once after the loop (untraced passes
only), and their outcome is reported apart.

With tracing on, every call into a ubisim layer is recorded as a span and
the spans are written out at the end.  The last stdout line is one JSON
object.
"""

from __future__ import annotations

import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from functools import partial

import gen
from ref import digest

HERE = os.path.dirname(os.path.abspath(__file__))


def direct(name, fn, *args):
    return fn(*args)


class Tracer:
    """Calls a function and keeps a span (name, start, end, op id, parent
    span) for it, in memory.  The parent is the innermost span still open:
    the op's span, or a layer call that calls back into a traced one."""

    def __init__(self):
        self.spans = []
        self.open = []
        self.op = None

    def begin(self, name):
        self.spans.append([name, time.perf_counter_ns(), None, self.op,
                           self.open[-1] if self.open else None])
        self.open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.open.pop()][2] = time.perf_counter_ns()

    def __call__(self, name, fn, *args):
        self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end()

    def write(self, path):
        """One JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, t0, t1, op, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "parent": parent, "op": op, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")


def tally(counts, key, n):
    counts[key] = counts.get(key, 0) + n


# run(call, counts) -> result; check(result, counts) -> bool.  Known-defect
# ops are not timed; they run once, apart (`known_defect_pass`).
Op = namedtuple("Op", "name run check known_defect", defaults=(False,))


# ---------------------------------------------------------------------------
# host speed


def _calibration_machine():
    m = gen.random_mealy(random.Random("calibration"), "cal", 36, 0.6)
    return m["states"], m["inputs"], {(s, i): (o, d) for s, i, o, d in m["trans"]}


CAL_STATES, CAL_INPUTS, CAL_DELTA = _calibration_machine()
# the reference speed: a host on which the job below takes 5 ms, and a
# bare interpreter starts in 60 ms
CAL_REF_NS = 5_000_000
INTERP_REF_NS = 60_000_000


def calibration_job():
    """A fixed pair-removal fixpoint (7 rounds over 36² pairs) written the
    way ubisim's own engine is: frozensets of state-name pairs and dict
    lookups.  It does not use ubisim, and it runs with the garbage
    collector off, so that the objects the workload keeps alive do not
    slow it: its time follows the host only."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _pair_fixpoint()
    finally:
        if enabled:
            gc.enable()


def _pair_fixpoint():
    current = frozenset((x, y) for x in CAL_STATES for y in CAL_STATES)
    while True:
        removed = set()
        for x, y in current:
            for i in CAL_INPUTS:
                dx, dy = CAL_DELTA.get((x, i)), CAL_DELTA.get((y, i))
                if dx is not None and dy is not None and (dx[0] != dy[0]
                                                          or (dx[1], dy[1]) not in current):
                    removed.add((x, y))
                    break
        if not removed:
            return current
        current = current - removed


def timed_ns(fn):
    t0 = time.perf_counter_ns()
    fn()
    return time.perf_counter_ns() - t0


def speed_factor():
    """Reference time over the median of five calibration jobs: below 1 on
    a host slower than the reference."""
    return CAL_REF_NS / statistics.median(timed_ns(calibration_job) for _ in range(5))


class Speed:
    """The host's speed, sampled between ops.

    On the shared host the benchmark runs on, the same code runs up to
    about 1.8 times slower in phases of seconds to minutes, and CPU time
    slows with wall time, so the slowness is the host's, not waiting.
    After every `every_ns` of op time the loop runs `job` (untimed as an
    op) and keeps its duration.  An op's factor is `ref_ns` over the
    median of the seven samples nearest to it, so an op time times its
    factor is that op's time on the reference host.  `job` is
    `calibration_job` for ops that run in this process, and a bare
    interpreter start for `cli` ops, which are process starts."""

    WINDOW = 7

    def __init__(self, job, ref_ns, every_ns):
        self.job, self.ref_ns, self.every_ns = job, ref_ns, every_ns
        self.samples = []  # (number of ops done before it, duration ns)
        self.since = 0

    def sample(self, ops_done):
        self.samples.append((ops_done, timed_ns(self.job)))
        self.since = 0

    def after_op(self, ops_done, op_ns):
        self.since += op_ns
        if self.since >= self.every_ns:
            self.sample(ops_done)

    def factors(self, n_ops):
        """One factor per op, in op order."""
        durations = [ns for _, ns in self.samples]
        out, j = [], 0
        for k in range(n_ops):
            while j < len(self.samples) and self.samples[j][0] <= k:
                j += 1
            lo = max(0, min(j - self.WINDOW // 2, len(durations) - self.WINDOW))
            out.append(self.ref_ns / statistics.median(durations[lo:lo + self.WINDOW]))
        return out


# `Speed(job, ref_ns, every_ns)` for the ops that run in this process
IN_PROCESS_SPEED = (calibration_job, CAL_REF_NS, 100_000_000)


# ---------------------------------------------------------------------------
# relations: one whole relation on one parsed machine per op


def relations_setup(ub, call, spec):
    return call("textfmt.parse", ub.parse, spec["text"]).machines()


def decide(call, counts, span, fn, m):
    return call(span, fn, m)


def relations_units(ub, spec, machines, call, counts, cleanup):
    deciders = {"uncertain": ("bisim.uncertain_bisimilarity", ub.uncertain_bisimilarity),
                "bisimilarity": ("bisim.bisimilarity", ub.bisimilarity),
                "ioco": ("bisim.ioco_compatibility", ub.ioco_compatibility)}
    units = []
    for (kind, name), expected in zip(spec["ops"], spec["expect"]):
        span, fn = deciders[kind]
        m = machines[name]
        symbols = len(m.inputs) + (len(m.outputs) if kind == "ioco" else 0)

        def check(rel, counts, expected=expected, work=len(m.states) ** 2 * symbols):
            tally(counts, "pair_inputs", work)
            return digest(rel.pairs) == expected

        units.append((None, [Op(f"op.relations.{kind}", partial(decide, span=span, fn=fn, m=m), check)]))
    return units, IN_PROCESS_SPEED


# ---------------------------------------------------------------------------
# learning: one learner step per op, one episode per hidden machine


def learning_setup(ub, call, spec):
    return [
        call("machines.construct", ub.PartialMealyMachine, h["name"], h["inputs"], h["outputs"],
             h["states"], {(s, i): (o, d) for s, i, o, d in h["trans"]}, True)
        for h in (ep["hidden"] for ep in spec["episodes"])
    ]


class Episode:
    def __init__(self, ub, hidden):
        self.ub, self.hidden = ub, hidden
        self.teacher = self.tree = None

    def reset(self):
        self.teacher = self.ub.Teacher(self.hidden, self.hidden.states[0])
        self.tree = self.ub.ObservationTree.empty(self.hidden.inputs, self.hidden.outputs)

    def step(self, call, counts, batch):
        asked = self.teacher.queries
        outs = []
        for word in batch:
            o = call("learning.output_query", self.teacher.output_query, word)
            self.tree = call("learning.record", self.tree.record, word, o)
            outs.append(list(o))
        frontier = call("learning.tree_apartness_frontier", self.ub.tree_apartness_frontier, self.tree)
        found = call("learning.find_lax_morphism_from_tree", self.ub.find_lax_morphism_from_tree,
                     self.tree, self.hidden, self.hidden.states[0])
        return outs, frontier, found, self.teacher.queries - asked


def learning_units(ub, spec, hidden, call, counts, cleanup):
    units = []
    for ep_spec, machine in zip(spec["episodes"], hidden):
        ep = Episode(ub, machine)
        ops = []
        for batch, exp in zip(ep_spec["script"], ep_spec["expect"]):
            batch = [tuple(w) for w in batch]

            def check(result, counts, exp=exp, batch=batch):
                outs, frontier, found, asked = result
                tally(counts, "queries", asked)
                tally(counts, "symbols", sum(map(len, batch)))
                tally(counts, "tree_nodes", len(frontier.left))
                tally(counts, "apart_pairs", len(frontier))
                tally(counts, "sample_checks", len(exp["sample"]))
                return (outs == exp["outs"] and len(frontier.left) == exp["nodes"]
                        and all(((x, y) in frontier) == apart for x, y, apart in exp["sample"])
                        and isinstance(found, ub.StateMap)
                        and digest(found.mapping.items()) == exp["mapping"])

            ops.append(Op("op.learning.step", partial(ep.step, batch=batch), check))
        units.append((ep.reset, ops))
    return units, IN_PROCESS_SPEED


# ---------------------------------------------------------------------------
# cli: one `python -m ubisim` subprocess per op, or `ubisim.cli.main` called
# in this process (for the traced run)


def cli_setup(ub, call, spec):
    return [call("textfmt.parse", ub.parse, f["text"]) for f in spec["files"]]


def check_cli(exp, code, out):
    lines = out.splitlines()
    first = lines[0] if lines else ""
    if code != exp["code"]:
        return False
    if "first" in exp and first != exp["first"]:
        return False
    if "token" in exp and first.split()[:1] != [exp["token"]]:
        return False
    if "last" in exp and not lines[-1].startswith(exp["last"]):
        return False
    if "states" in exp:
        decl = next((ln for ln in lines if ln.startswith("states ")), "")
        if len(decl.split()) - 1 != exp["states"]:
            return False
    if "count" in exp:
        prefix, n = exp["count"]
        if sum(ln.startswith(prefix) for ln in lines) != n:
            return False
    return True


class CliError(Exception):
    """The CLI exited with code 2 (a usage, parse or validation error) or
    crashed with a traceback."""


class Launcher:
    """Runs `python -m ubisim ARGV` in the checkout, one process at a time.

    A child's peak RSS includes the memory of the process that started it,
    so the CLI processes are started by a small helper (this file with
    `--launch`), not by the workload process; the helper reports the
    largest peak RSS of its children so far as the count `cli_rss_kib`."""

    def __init__(self, root, counts):
        self.counts = counts
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--launch", root],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def bare(self):
        """Start a bare interpreter (`python -c pass`) the same way; the
        speed sample of the `cli` workload."""
        self.proc.stdin.write("null\n")
        self.proc.stdin.flush()
        self.proc.stdout.readline()

    def __call__(self, argv):
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        code, stdout, stderr, rss_kib = json.loads(self.proc.stdout.readline())
        self.counts["cli_rss_kib"] = rss_kib
        if code == 2 or "Traceback (most recent call last)" in stderr:
            raise CliError((stderr.strip().splitlines() or ["exit 2"])[-1])
        return code, stdout

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def launch(root):
    """The helper behind `Launcher`: one JSON argv per stdin line, answered
    with the exit code, stdout, stderr and the children's peak RSS; `null`
    starts a bare interpreter instead, which is smaller than any ubisim
    child and so never sets the peak."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for line in sys.stdin:
        argv = json.loads(line)
        command = ["-c", "pass"] if argv is None else ["-m", "ubisim", *argv]
        proc = subprocess.run([sys.executable, *command], cwd=root, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(json.dumps([proc.returncode, proc.stdout, proc.stderr, rss_kib]), flush=True)


# the names `ubisim.cli` imports and calls, by the span each is traced as
CLI_CALLS = {
    "parse_file": "textfmt.parse_file", "render": "textfmt.render",
    "disjoint_union": "machines.disjoint_union",
    "uncertain_bisimilarity": "bisim.uncertain_bisimilarity",
    "bisimilarity": "bisim.bisimilarity", "ioco_compatibility": "bisim.ioco_compatibility",
    "apartness_witness": "bisim.apartness_witness",
    "check_morphism": "morphisms.check_morphism", "lax_identify": "morphisms.lax_identify",
    "restrict_along": "morphisms.restrict_along",
    "joint_simulator": "simulation.joint_simulator",
    "simulation_violation": "simulation.simulation_violation",
    "tree_apartness_frontier": "learning.tree_apartness_frontier",
}
# methods the CLI reaches through learning objects, traced on their classes
CLI_METHODS = {
    ("Teacher", "output_query"): "learning.output_query",
    ("ObservationTree", "record"): "learning.record",
    ("ObservationTree", "as_machine"): "learning.as_machine",
}


def trace_cli(ub, cli, call, counts, lines):
    """Route every public call `ubisim.cli` makes through `call`, so each is
    a span of its layer, and tally the work sizes the CLI does not print."""

    def merges(result, m, x, y):
        if isinstance(result, ub.Conflict):
            tally(counts, "merges", len(result.merges))
        else:
            tally(counts, "merges", len(m.states) - len(result.classes))

    def join_states(result, m, x, y):
        if result is not None and not isinstance(result, ub.ApartnessWitness):
            tally(counts, "join_states", len(result.machine.states))

    after = {"parse_file": lambda result, path: tally(counts, "parse_lines", lines[path]),
             "lax_identify": merges, "joint_simulator": join_states}

    def wrap(span, fn, after=None):
        def traced(*args):
            result = call(span, fn, *args)
            if after is not None:
                after(result, *args)
            return result
        return traced

    for name, span in CLI_CALLS.items():
        setattr(cli, name, wrap(span, getattr(cli, name), after.get(name)))
    for (cls_name, meth), span in CLI_METHODS.items():
        cls = getattr(ub, cls_name)
        setattr(cls, meth, wrap(span, getattr(cls, meth)))


def in_process(cli, argv):
    """`ubisim.cli.main(argv)` with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code == 2:
        raise CliError((err.getvalue().strip().splitlines() or ["exit 2"])[-1])
    return code, out.getvalue()


def cli_units(ub, spec, docs, call, counts, cleanup):
    if spec["in_process"]:
        cli = importlib.import_module("ubisim.cli")
        if call is not direct:
            trace_cli(ub, cli, call, counts, {f["path"]: f["lines"] for f in spec["files"]})
        runner = partial(in_process, cli)
    else:
        runner = Launcher(spec["root"], counts)
        cleanup.callback(runner.close)
    units = []
    for op in spec["ops"]:
        exp = op["expect"]
        check = partial(lambda res, counts, exp: check_cli(exp, *res), exp=exp)
        run = partial(lambda call, counts, argv: runner(argv), argv=op["argv"])
        units.append((None, [Op("cli." + op["argv"][0], run, check, exp.get("known_defect", False))]))
    if spec["in_process"]:
        return units, IN_PROCESS_SPEED
    return units, (runner.bare, INTERP_REF_NS, 400_000_000)


WORKLOADS = {
    "relations": (relations_setup, relations_units),
    "learning": (learning_setup, learning_units),
    "cli": (cli_setup, cli_units),
}


# ---------------------------------------------------------------------------
# the closed loop


def run_op(op, call, counts):
    """(result, error) of one op; any failure of the program is an error."""
    try:
        return op.run(call, counts), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def closed_loop(units, call, tracer, counts, limit_ns, max_ops, after_unit, speed):
    """Issue ops one at a time until `max_ops` ops, or else in whole passes
    over the op list until the op time reaches `limit_ns`, so that every
    op is checked and every run of a seed times the same mix of ops.
    `after_unit(op_ns)` runs, untimed, after every unit, and `speed`
    samples the host between ops.  The counts after the first pass
    are kept as `pass_counts`: they are the work of one pass."""
    stats = {"lat_ns": [], "failed": 0, "errors": [], "pass_counts": None}
    lat = stats["lat_ns"]
    op_ns = 0
    speed.sample(0)
    while True:
        for reset, ops in units:
            if reset is not None:
                reset()
            for op in ops:
                if max_ops is not None and len(lat) >= max_ops:
                    return stats
                if tracer is not None:
                    tracer.op = len(lat)
                    tracer.begin(op.name)
                t0 = time.perf_counter_ns()
                result, error = run_op(op, call, counts)
                t1 = time.perf_counter_ns()
                if tracer is not None:
                    tracer.end()
                lat.append(t1 - t0)
                op_ns += t1 - t0
                if error is None:
                    tally(counts, "checks", 1)
                if error is not None or not op.check(result, counts):
                    stats["failed"] += 1
                    if len(stats["errors"]) < 5:
                        stats["errors"].append(f"{op.name}: {error or 'wrong answer'}")
                speed.after_op(len(lat), t1 - t0)
            after_unit(op_ns)
        if stats["pass_counts"] is None:
            stats["pass_counts"] = dict(counts)
        if max_ops is None and op_ns >= limit_ns:
            return stats


def known_defect_pass(ops, call):
    """Run each known-defect op once, untimed: how many there are, how many
    fail, and the first errors."""
    report = {"ops": len(ops), "failed": 0, "errors": []}
    for op in ops:
        result, error = run_op(op, call, {})
        if error is not None or not op.check(result, {}):
            report["failed"] += 1
            if len(report["errors"]) < 5:
                report["errors"].append(f"{op.name}: {error or 'wrong answer'}")
    return report


def load(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    os.chdir(spec["root"])
    return spec


def set_up(spec, call=direct):
    """Import ubisim and set the workload's inputs up: (ub, inputs, seconds)."""
    t0 = time.perf_counter()
    ub = importlib.import_module("ubisim")
    inputs = WORKLOADS[spec["workload"]][0](ub, call, spec)
    return ub, inputs, time.perf_counter() - t0


def setup_probe(spec_path):
    """One setup sample, taken in a fresh interpreter, and the host's speed
    factor right after it."""
    seconds = set_up(load(spec_path))[2]
    print(json.dumps([seconds, speed_factor()]))


def main(spec_path):
    spec = load(spec_path)
    tracer = Tracer() if spec["trace"] else None
    call = tracer or direct
    if tracer is not None:
        tracer.op = "setup"
    ub, inputs, first = set_up(spec, call)
    setup_s = [[first, speed_factor()]]

    # more setup samples, at even shares of the run, so that their median
    # spans the run as the op times do
    limit_ns = spec["seconds"] * 1e9
    probes = spec["setup_probes"]
    marks = [limit_ns * k / (probes + 1) for k in range(1, probes + 1)]

    def after_unit(op_ns):
        while marks and op_ns >= marks[0]:
            marks.pop(0)
            probe = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path,
                                    "setup"], stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                   check=True, text=True)
            setup_s.append(json.loads(probe.stdout))

    counts = {}
    with ExitStack() as cleanup:
        units, speed_job = WORKLOADS[spec["workload"]][1](ub, spec, inputs, call, counts, cleanup)
        # inputs that hit a known defect are left out of the timed loop
        defects = [op for _, ops in units for op in ops if op.known_defect]
        units = [(reset, [op for op in ops if not op.known_defect]) for reset, ops in units]
        units = [unit for unit in units if unit[1]]
        speed = Speed(*speed_job)
        stats = closed_loop(units, call, tracer, counts, limit_ns, spec.get("max_ops"), after_unit,
                            speed)
        known_defect = None if tracer else known_defect_pass(defects, call)
    spans_path = None
    if tracer is not None:
        spans_path = spec["spans"]
        tracer.write(spans_path)
    print(json.dumps(dict(
        stats,
        factors=speed.factors(len(stats["lat_ns"])),
        speed_samples=len(speed.samples),
        known_defect=known_defect,
        setup_s=setup_s,
        counts=counts,
        spans=spans_path,
        rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )))


if __name__ == "__main__":
    if sys.argv[1] == "--launch":
        launch(sys.argv[2])
    elif sys.argv[2:] == ["setup"]:
        setup_probe(sys.argv[1])
    else:
        main(sys.argv[1])
