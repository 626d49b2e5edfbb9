"""ubisim's benchmark.

    python3 bench/run.py --workload relations|learning|cli|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the benchmark uses the checkout's
`src/ubisim` and writes only under `.bench_work/` there.  It generates the
workload's inputs from the seed and computes reference answers (both its
own cost, in this process), then starts one workload process
(`worker.py`) that sets up the inputs, issues ops in a closed loop with a
single client and checks every answer.  The worker samples the host's
speed between ops, and the times reported are scaled to one reference
speed (see NOTES.md).  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the context (sample counts, seed, Python version, nproc, size of
`src/ubisim`, the unscaled values, the known-defect report).

`--trace 0` reports the end-to-end metrics of the chosen workload.
`--trace 1` reports the per-layer metrics: it runs the chosen workload
without and with tracing on the same ops (for the tracing overhead), and
traced passes of the other two workloads, because each layer metric comes
from the workload that exercises that layer (see NOTES.md).  `--workload
all` runs the three workloads in turn and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import ref  # noqa: E402

WORKLOADS = ("relations", "learning", "cli")
LEARNING_SAMPLE = 24  # tree pairs checked per learner step
SETUP_PROBES = 11  # setup samples taken in fresh processes during a timed run
RUN_BUDGET_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# inputs and reference answers


def relations_spec(seed, small):
    machines, ops = gen.relations(seed, small)
    by_name = {m["name"]: m for m in machines}
    expect = []
    for kind, name in ops:
        m = by_name[name]
        if "cycle" in m:
            rel = ref.cycle_relation(m)
        elif kind == "ioco":
            rel = ref.ioco_relation(m)
        else:
            rel = ref.mealy_relation(m, strict=kind == "bisimilarity")
        expect.append(ref.digest(rel))
    return {"text": gen.to_text(*machines), "ops": ops, "expect": expect}


def learning_spec(seed, small):
    episodes = gen.learning(seed, small)
    rng = random.Random(f"learning-sample:{seed}")
    for ep in episodes:
        hidden = ep["hidden"]
        delta = {(s, i): (o, d) for s, i, o, d in hidden["trans"]}
        start = hidden["states"][0]
        children = {}
        ep["expect"] = []
        for batch in ep["script"]:
            outs = [ref.run(delta, start, w)[0] for w in batch]
            for w, o in zip(batch, outs):
                ref.add_word(children, tuple(w), o)
            nodes = sorted({()} | {c for kids in children.values() for _, c in kids.values()})
            inner = [w for w in nodes if w in children]
            sample = []
            for k in range(LEARNING_SAMPLE):
                u, v = rng.sample(inner if k % 2 and len(inner) > 1 else nodes, 2)
                sample.append([ref.node_id(u), ref.node_id(v), ref.tree_apart(children, u, v)])
            mapping = ref.digest((ref.node_id(w), ref.run(delta, start, w)[1]) for w in nodes)
            ep["expect"].append({"outs": outs, "nodes": len(nodes), "sample": sample,
                                 "mapping": mapping})
    return {"episodes": episodes}


def cli_spec(seed, small):
    folder = WORK / f"cli-{seed}{'-small' if small else ''}"
    folder.mkdir(parents=True, exist_ok=True)
    files, ops = [], []
    for k, op in enumerate(gen.cli(seed, small)):
        path = folder / f"op{k:02d}.txt"
        text = gen.to_text(*op["sections"])
        path.write_text(text, encoding="utf-8")
        rel = str(path.relative_to(ROOT))
        files.append({"path": rel, "text": text, "lines": text.count("\n")})
        ops.append({"argv": [a.replace("{file}", rel) for a in op["args"]],
                    "expect": ref.cli_expect(op)})
    return {"files": files, "ops": ops}


SPECS = {"relations": relations_spec, "learning": learning_spec, "cli": cli_spec}


# ---------------------------------------------------------------------------
# workload passes


def run_pass(workload, data, seed, deadline, *, seconds=0.0, trace=False, max_ops=None,
             in_process=False, setup_probes=0):
    """Start one workload process and return its report; it is killed if it
    is still running at `deadline` (a `time.monotonic()` value)."""
    tag = f"{workload}-{seed}-{'traced' if trace else 'timed'}"
    spec = dict(data, workload=workload, root=str(ROOT), seconds=seconds, trace=trace,
                max_ops=max_ops, in_process=in_process, setup_probes=setup_probes,
                spans=str(WORK / f"spans-{tag}.jsonl"))
    spec_path = WORK / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    # string hashing follows the seed too, so set and dict layouts (and with
    # them the op costs) repeat from run to run of one seed
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    # its own session, so a timeout also stops any process it may be running
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{tag}: workload process timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{tag}: workload process failed:\n{stderr[-2000:]}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["workload"] = workload
    return report


def end_to_end(report, scaled=True):
    """The end-to-end metrics of a pass: times scaled to the reference
    speed by the factors the worker measured (see `Speed` in worker.py),
    or as measured with `scaled=False`."""
    factors = report["factors"] if scaled else [1.0] * len(report["lat_ns"])
    lat_ms = sorted(ns / 1e6 * f for ns, f in zip(report["lat_ns"], factors))
    setup_s = [s * f if scaled else s for s, f in report["setup_s"]]
    if report["workload"] == "cli":
        rss = report["counts"]["cli_rss_kib"]
    else:
        rss = report["rss_kib"]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0], "ms"),
        "ops_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "peak_rss_mib": (rss / 1024, "MiB"),
    }


def scaled_ns(report):
    """The op time of a pass at the reference speed."""
    return sum(ns * f for ns, f in zip(report["lat_ns"], report["factors"]))


def load_spans(report):
    with open(report["spans"], encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def _median_ms(spans, name):
    values = [_ms(s) for s in spans if s["name"] == name]
    return statistics.median(values) if values else 0.0


def interpreter_ms(repeats=7):
    """Median wall times of a bare interpreter and of `import ubisim.cli`,
    each a fresh subprocess, alternating."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bare, cli = [], []
    for _ in range(repeats):
        for argv, out in (([sys.executable, "-c", "pass"], bare),
                          ([sys.executable, "-c", "import ubisim.cli"], cli)):
            t0 = time.perf_counter()
            subprocess.run(argv, cwd=ROOT, env=env, check=True)
            out.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(bare), statistics.median(cli)


LAYERS = ("textfmt", "machines", "bisim", "morphisms", "simulation", "learning", "cli")
CLI_COMMANDS = [cmd for cmd, _ in gen.CLI_MIX]


def per_layer(traced, overhead_frac):
    """Layer metrics from the traced passes, each from the workload named
    for it in NOTES.md.  Rates use the counts of the whole traced pass;
    the reported counts are those of one pass over the op list, so they
    are work sizes that do not depend on speed."""
    spans = {w: load_spans(r) for w, r in traced.items()}
    counts = {w: r["counts"] for w, r in traced.items()}
    per_pass = {w: r["pass_counts"] for w, r in traced.items()}
    rel, lrn, cli = spans["relations"], spans["learning"], spans["cli"]
    decide = [s for s in rel if s["name"].startswith("bisim.")]
    parse = [s for s in cli if s["name"] == "textfmt.parse_file"]
    bare_ms, import_ms = interpreter_ms()
    m = {
        "bisim.uncertain_ms": _median_ms(rel, "bisim.uncertain_bisimilarity"),
        "bisim.bisimilarity_ms": _median_ms(rel, "bisim.bisimilarity"),
        "bisim.ioco_ms": _median_ms(rel, "bisim.ioco_compatibility"),
        "bisim.ns_per_pair_input": sum(_ms(s) for s in decide) * 1e6
        / max(1, counts["relations"].get("pair_inputs", 0)),
        "bisim.witness_ms": _median_ms(cli, "bisim.apartness_witness"),
        "simulation.joint_ms": _median_ms(cli, "simulation.joint_simulator"),
        "simulation.join_states": per_pass["cli"].get("join_states", 0),
        "simulation.violation_ms": _median_ms(cli, "simulation.simulation_violation"),
        "morphisms.lax_identify_ms": _median_ms(cli, "morphisms.lax_identify"),
        "morphisms.merges": per_pass["cli"].get("merges", 0),
        "morphisms.check_ms": _median_ms(cli, "morphisms.check_morphism"),
        "morphisms.restrict_ms": _median_ms(cli, "morphisms.restrict_along"),
        "learning.frontier_ms": _median_ms(lrn, "learning.tree_apartness_frontier"),
        "learning.record_ms": _median_ms(lrn, "learning.record"),
        "learning.query_ms": _median_ms(lrn, "learning.output_query"),
        "learning.lax_morphism_ms": _median_ms(lrn, "learning.find_lax_morphism_from_tree"),
        "learning.tree_nodes": per_pass["learning"].get("tree_nodes", 0),
        "learning.queries": per_pass["learning"].get("queries", 0),
        "learning.symbols": per_pass["learning"].get("symbols", 0),
        "learning.apart_pairs": per_pass["learning"].get("apart_pairs", 0),
        "textfmt.parse_ms": _median_ms(cli, "textfmt.parse_file"),
        "textfmt.parse_lines_per_s": counts["cli"].get("parse_lines", 0)
        / max(1e-9, sum(_ms(s) for s in parse) / 1e3),
        "textfmt.render_ms": _median_ms(cli, "textfmt.render"),
        "machines.construct_ms": _median_ms(lrn, "machines.construct"),
        "machines.disjoint_union_ms": _median_ms(cli, "machines.disjoint_union"),
        "cli.interp_ms": bare_ms,
        "cli.import_ms": import_ms - bare_ms,
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd.replace('-', '_')}_ms"] = _median_ms(cli, f"cli.{cmd}")
    # self time: a span's duration minus that of its child spans, per call
    own = {layer: [] for layer in LAYERS}
    for pass_spans in spans.values():
        child_ms = {}
        for s in pass_spans:
            if s["parent"] is not None:
                child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + _ms(s)
        for s in pass_spans:
            layer = s["name"].split(".")[0]
            if layer in own:
                own[layer].append(_ms(s) - child_ms.get(s["id"], 0.0))
    for layer, values in own.items():
        m[f"{layer}.self_ms"] = sum(values) / len(values)
    m["trace.overhead_frac"] = overhead_frac
    units = {"ns_per_pair_input": "ns", "join_states": "count", "merges": "count",
             "tree_nodes": "count", "queries": "count", "symbols": "count",
             "apart_pairs": "count", "parse_lines_per_s": "1/s", "overhead_frac": "fraction"}
    return {k: (v, units.get(k.split(".", 1)[1], "ms")) for k, v in m.items()}


# ---------------------------------------------------------------------------
# one benchmark run


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "ubisim").glob("*.py")))


def run(workload, seed, seconds, trace, small=False):
    """One run of one workload: (context, result) as printed."""
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    data = {workload: SPECS[workload](seed, small)}
    reports = []
    if not trace:
        reports.append(run_pass(workload, data[workload], seed, deadline, seconds=seconds,
                                setup_probes=SETUP_PROBES))
        metrics = end_to_end(reports[0])
        measured = {k: v for k, (v, _) in end_to_end(reports[0], scaled=False).items()}
    else:
        for other in WORKLOADS:
            if other not in data:
                data[other] = SPECS[other](seed, small)
        # the same ops without and with tracing give the overhead; cli ops
        # call `ubisim.cli.main` in the workload process both times
        in_process = workload == "cli"
        plain = run_pass(workload, data[workload], seed, deadline, seconds=seconds / 4,
                         in_process=in_process)
        n = len(plain["lat_ns"])
        traced = {workload: run_pass(workload, data[workload], seed, deadline, trace=True, max_ops=n,
                                     in_process=in_process)}
        for other in WORKLOADS:
            if other != workload:
                traced[other] = run_pass(other, data[other], seed, deadline, seconds=seconds / 4,
                                         trace=True, in_process=other == "cli")
        overhead = 1 - scaled_ns(plain) / scaled_ns(traced[workload])
        reports = [plain, *traced.values()]
        metrics = per_layer(traced, overhead)
    attempted = sum(len(r["lat_ns"]) for r in reports)
    failed = sum(r["failed"] for r in reports)
    factors = [f for r in reports for f in r["factors"]]
    context = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "ops": {r["workload"] + ("-traced" if r["spans"] else ""): len(r["lat_ns"]) for r in reports},
        "latency_samples": len(reports[0]["lat_ns"]),
        "setup_repeats": len(reports[0]["setup_s"]),
        "checks": sum(r["counts"].get("checks", 0) for r in reports),
        "speed_samples": sum(r["speed_samples"] for r in reports),
        "speed_factor_median": statistics.median(factors) if factors else None,
        "measured": None if trace else measured,
        "known_defect": next((r["known_defect"] for r in reports if r["known_defect"]), None),
        "errors": [e for r in reports for e in r["errors"]],
        "spans": [r["spans"] for r in reports if r["spans"]],
        "src_ubisim_lines": src_lines(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return context, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ubisim" / "__init__.py").is_file():
        print(f"bench: no ubisim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            context, result = run(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps({"context": context}))
            print(json.dumps(result))
            return 0
        rows = {}
        for workload in WORKLOADS:
            context, result = run(workload, args.seed, args.seconds, args.trace)
            print(json.dumps({"context": context}))
            print(json.dumps(result))
            rows[workload] = (context, result)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    names = list(rows["relations"][1]["metrics"])
    print(f"{'metric':28}" + "".join(f"{w:>14}" for w in WORKLOADS) + "  unit")
    for name in names:
        cells = [rows[w][1]["metrics"][name]["value"] for w in WORKLOADS]
        unit = rows["relations"][1]["metrics"][name]["unit"]
        print(f"{name:28}" + "".join(f"{c:14.4g}" for c in cells) + f"  {unit}")
    print(f"{'samples':28}" + "".join(f"{rows[w][0]['latency_samples']:>14}" for w in WORKLOADS))
    defects = [rows[w][0]["known_defect"] for w in WORKLOADS]
    cells = [f"{d['failed']}/{d['ops']}" if d else "-" for d in defects]
    print(f"{'known-defect inputs failed':28}" + "".join(f"{c:>14}" for c in cells))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in rows.values()),
        "attempted": sum(r["attempted"] for _, r in rows.values()),
        "failed": sum(r["failed"] for _, r in rows.values()),
        "metrics": {f"{w}.{k}": v for w, (_, r) in rows.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
