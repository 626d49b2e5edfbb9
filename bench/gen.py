"""Seeded input generators for the benchmark.

Every generator takes a `random.Random` and returns plain data: machines
are dicts in the shape of the text format (`trans` rows for Mealy
machines, `itrans`/`otrans` rows for suspension automata), so the same
value can be written as a file, handed to a constructor, or fed to the
reference answers in `ref.py`.  Nothing here imports ubisim.
"""

from __future__ import annotations

import random

MEALY_INPUTS = ("a", "b", "c")
MEALY_OUTPUTS = ("x", "y")
SA_INPUTS = ("a", "b")
SA_OUTPUTS = ("x", "y", "z")


def mealy(name, inputs, outputs, states, trans, total=False):
    return {
        "kind": "total-mealy" if total else "mealy",
        "name": name,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "states": list(states),
        "trans": trans,
    }


def random_mealy(rng, name, n, density, inputs=MEALY_INPUTS, outputs=MEALY_OUTPUTS,
                 states=None, total=False):
    """A partial Mealy machine: each (state, input) is defined with
    probability `density` (always when `total`), with a uniform output and
    successor."""
    states = states or [f"s{k}" for k in range(n)]
    trans = [
        [s, i, rng.choice(outputs), rng.choice(states)]
        for s in states
        for i in inputs
        if total or rng.random() < density
    ]
    return mealy(name, inputs, outputs, states, trans, total)


def random_sa(rng, name, n, in_density, inputs=SA_INPUTS, outputs=SA_OUTPUTS):
    """A suspension automaton: inputs defined with probability
    `in_density`, and a non-empty random set of outputs at every state."""
    states = [f"q{k}" for k in range(n)]
    itrans, otrans = [], []
    for s in states:
        for a in inputs:
            if rng.random() < in_density:
                itrans.append([s, a, rng.choice(states)])
        outs = [o for o in outputs if rng.random() < 0.5] or [rng.choice(outputs)]
        for o in outs:
            otrans.append([s, o, rng.choice(states)])
    return {"kind": "sa", "name": name, "inputs": list(inputs), "outputs": list(outputs),
            "states": states, "itrans": itrans, "otrans": otrans}


def mealy_cycle(name, n):
    """The worst case of the round-based fixpoint: a one-input n-cycle that
    outputs x everywhere except y at the last state.  All distinct states
    are apart, and the pair at distance k from the y-state falls in round
    k + 1, so the fixpoint takes n rounds."""
    states = [f"c{k}" for k in range(n)]
    trans = [[states[k], "i", "y" if k == n - 1 else "x", states[(k + 1) % n]] for k in range(n)]
    return dict(mealy(name, ("i",), ("x", "y"), states, trans), cycle=n)


def sa_cycle(name, n):
    """The suspension-automaton twin of `mealy_cycle`: input a and output x
    step around the cycle, the last state offers only y.  Only the
    diagonal is compatible, reached after n rounds."""
    states = [f"c{k}" for k in range(n)]
    itrans = [[states[k], "a", states[(k + 1) % n]] for k in range(n)]
    otrans = [[states[k], "y" if k == n - 1 else "x", states[(k + 1) % n]] for k in range(n)]
    return {"kind": "sa", "name": name, "inputs": ["a"], "outputs": ["x", "y"],
            "states": states, "itrans": itrans, "otrans": otrans, "cycle": n}


def merge_cycle(name, n):
    """A one-input n-cycle with a single output: identifying c0 with ck
    merges exactly the residue classes modulo gcd(n, k), so c0 ~ c1 merges
    everything."""
    states = [f"c{k}" for k in range(n)]
    trans = [[states[k], "i", "x", states[(k + 1) % n]] for k in range(n)]
    return dict(mealy(name, ("i",), ("x",), states, trans), cycle=n)


def mapped_pair(rng, n_target, n_source, density, style):
    """A source machine, a target machine and a surjective state map that is
    lax (style "lax") or oplax (style "oplax") by construction, never
    strict.

    Lax: every source transition is matched at the image, and at least one
    image transition has no source counterpart.  Oplax: every image
    transition is matched at the source, and at least one source transition
    has no image counterpart.  Returns (source, target, mapping, unmatched)
    where `unmatched` lists the (state, input) entries that break the other
    direction, in declaration order.
    """
    target = random_mealy(rng, "dst", n_target, density)
    tdelta = {(s, i): (o, d) for s, i, o, d in target["trans"]}
    tstates = target["states"]
    sstates = [f"u{k}" for k in range(n_source)]
    images = tstates + [rng.choice(tstates) for _ in range(n_source - n_target)]
    rng.shuffle(images)
    h = dict(zip(sstates, images))
    pre = {}
    for u in sstates:
        pre.setdefault(h[u], []).append(u)
    trans, unmatched = [], []
    for u in sstates:
        for i in MEALY_INPUTS:
            step = tdelta.get((h[u], i))
            if step is not None:
                if style == "lax" and rng.random() < 0.2:
                    unmatched.append((u, i))
                    continue
                trans.append([u, i, step[0], rng.choice(pre[step[1]])])
            elif style == "oplax" and rng.random() < 0.3:
                unmatched.append((u, i))
                trans.append([u, i, rng.choice(MEALY_OUTPUTS), rng.choice(sstates)])
    if not unmatched:
        return mapped_pair(rng, n_target, n_source, density, style)
    return mealy("src", MEALY_INPUTS, MEALY_OUTPUTS, sstates, trans), target, h, unmatched


def learner_script(rng, inputs, steps, target_nodes, phase=0.0):
    """The query batches of one learning episode.

    Each step extends random known access words by short random suffixes
    until the tree has grown to its share of `target_nodes`, so tree sizes
    per step are the same for every seed and only the words differ.  A
    `phase` in [0, 1) shifts the shares by that part of a step, so that
    episodes with different phases step through different tree sizes.
    """
    nodes = {()}
    node_list = [()]
    script = []
    for k in range(1, steps + 1):
        goal = max(2, round(target_nodes * (k - phase) / (steps - phase)))
        batch = []
        while len(nodes) < goal or not batch:
            base = rng.choice(node_list)
            word = base + tuple(rng.choice(inputs) for _ in range(rng.randint(1, 3)))
            batch.append(list(word))
            for j in range(1, len(word) + 1):
                if word[:j] not in nodes:
                    nodes.add(word[:j])
                    node_list.append(word[:j])
        script.append(batch)
    return script


# ---------------------------------------------------------------------------
# text format


def to_text(*sections):
    chunks = []
    for sec in sections:
        kind = sec["kind"]
        if kind in ("map", "rel"):
            head = (f"map {sec['name']} from {sec['left']} to {sec['right']}" if kind == "map"
                    else f"rel {sec['name']} on {sec['left']} x {sec['right']}")
            chunks.append([head] + [f"pair {s} {t}" for s, t in sec["pairs"]])
            continue
        lines = [f"{kind} {sec['name']}", "inputs " + " ".join(sec["inputs"]),
                 "outputs " + " ".join(sec["outputs"]), "states " + " ".join(sec["states"])]
        if kind == "sa":
            lines += ["itrans " + " ".join(t) for t in sec["itrans"]]
            lines += ["otrans " + " ".join(t) for t in sec["otrans"]]
        else:
            lines += ["trans " + " ".join(t) for t in sec["trans"]]
        chunks.append(lines)
    return "\n\n".join("\n".join(c) for c in chunks) + "\n"


# ---------------------------------------------------------------------------
# workloads


def relations(seed, small=False):
    """Machines for the `relations` workload and its op list.

    Sizes and densities are a fixed grid, five machines per point, so
    that every seed has the same cost profile; the seed only changes the
    transition structure and the op order.
    """
    rng = random.Random(f"relations:{seed}")
    sizes = (5, 8) if small else (20, 40, 60, 80, 100, 120, 150)
    densities = (0.3, 0.9) if small else (0.3, 0.6, 0.9)
    machines, ops = [], []
    for n in sizes:
        for d in densities:
            for k in range(5):
                m = random_mealy(rng, f"r{n}d{int(d * 10)}v{k}", n, d)
                machines.append(m)
                ops += [("uncertain", m["name"]), ("bisimilarity", m["name"])]
    for n in ((4,) if small else (30, 60, 90)):
        machines.append(mealy_cycle(f"cyc{n}", n))
        ops.append(("uncertain", f"cyc{n}"))
    for n in ((5,) if small else (20, 40, 60, 80)):
        machines.append(random_sa(rng, f"sa{n}", n, 0.5))
        ops.append(("ioco", f"sa{n}"))
    for n in ((4,) if small else (20, 40)):
        machines.append(sa_cycle(f"sacyc{n}", n))
        ops.append(("ioco", f"sacyc{n}"))
    rng.shuffle(ops)
    return machines, ops


def learning(seed, small=False):
    """Hidden total machines and one learner script per machine: two
    machines of each size, so that the step costs of one seed spread the
    way they do over many seeds.  Each episode has its own phase, so the
    tree sizes of all steps interleave instead of falling on 20 levels."""
    rng = random.Random(f"learning:{seed}")
    sizes = (5,) if small else (20, 25, 30, 35, 40) * 2
    steps, nodes = (3, 20) if small else (20, 200)
    episodes = []
    for k, n in enumerate(sizes):
        hidden = random_mealy(rng, f"h{k}", n, 1.0, total=True)
        script = learner_script(rng, MEALY_INPUTS, steps, nodes, phase=k / len(sizes))
        episodes.append({"hidden": hidden, "script": script})
    rng.shuffle(episodes)
    return episodes


CLI_MIX = (("check", 6), ("witness", 6), ("identify", 6), ("join", 6), ("bisim", 3),
           ("ioco-compat", 3), ("morphism", 3), ("restrict", 3), ("simulate", 2),
           ("learn-demo", 2))


def cli(seed, small=False):
    """Files and command lines for the `cli` workload.

    Returns a list of ops, each {"cmd", "args", "sections", ...}: `args`
    uses "{file}" for the op's own file.  The data needed by the reference
    answers travels with the op.
    """
    rng = random.Random(f"cli:{seed}")
    lo, hi = (4, 6) if small else (10, 30)
    io2 = dict(inputs=("a", "b"), outputs=("x", "y"))
    ops = []
    for cmd, count in CLI_MIX:
        for k in range(count):
            op = {"cmd": cmd}
            if cmd in ("check", "witness", "identify", "join"):
                if (cmd == "identify" and k < 2) or (cmd == "join" and k == 2):
                    # the all-merge cycle; as a join it always yields a simulator
                    n = rng.randint(lo, hi)
                    op.update(sections=[merge_cycle("m", n)], query=("m", "c0", "m", "c1"))
                elif cmd == "join" and k < 2:
                    sa = random_sa(rng, "m", rng.randint(lo, hi), 0.6)
                    x, y = rng.sample(sa["states"], 2)
                    op.update(sections=[sa], query=("m", x, "m", y))
                else:
                    # "plus" names one state after two others (a+b beside a and b),
                    # "dotted" gives one state a dotted name; the format allows
                    # both, and lax merges and disjoint unions build names the
                    # same way, so some of these ops hit name collisions
                    style = rng.choices(("plain", "plus", "dotted"), (3, 1, 1))[0]
                    n1, n2 = rng.randint(lo, hi), rng.randint(lo, hi)
                    names = [f"s{j}" for j in range(n1)]
                    if style == "plus":
                        j = rng.randrange(n1 - 2)
                        names[-1] = f"{names[j]}+{names[j + 1]}"
                    elif style == "dotted":
                        names[rng.randrange(n1)] = f"p.s{rng.randrange(2 * n2)}"
                    first = random_mealy(rng, "m", n1, rng.uniform(0.3, 0.6), states=names, **io2)
                    second = random_mealy(rng, "m.p" if style == "dotted" else "n", n2,
                                          rng.uniform(0.3, 0.6), **io2)
                    if style == "plus" or (style == "plain" and rng.random() < 0.5):
                        x, y = rng.sample(names, 2)
                        if style == "plus" and rng.random() < 0.5:
                            x, y = names[-1].split("+")
                        query = ("m", x, "m", y)
                    else:
                        query = ("m", rng.choice(names), second["name"], rng.choice(second["states"]))
                    op.update(sections=[first, second], query=query)
                a, b = f"{op['query'][0]}:{op['query'][1]}", f"{op['query'][2]}:{op['query'][3]}"
                op["args"] = ([cmd, "uncertain", "{file}", a, b] if cmd == "check" else [cmd, "{file}", a, b])
            elif cmd == "bisim":
                m = random_mealy(rng, "m", rng.randint(lo, hi), rng.uniform(0.5, 0.9), **io2)
                op.update(sections=[m], args=[cmd, "{file}", "m"])
            elif cmd == "ioco-compat":
                op.update(sections=[random_sa(rng, "m", rng.randint(lo, hi), 0.6)],
                          args=[cmd, "{file}", "m"])
            elif cmd in ("morphism", "restrict", "simulate"):
                # restrict gets both kinds of map, so `restrict_along` runs
                style = ("oplax", "lax")[k % 2] if cmd == "restrict" else rng.choice(("lax", "oplax"))
                n = rng.randint(lo, hi)
                src, dst, h, unmatched = mapped_pair(rng, n, n + rng.randint(0, n), 0.6, style)
                pairs = list(h.items())
                if cmd == "simulate":
                    sec = {"kind": "rel", "name": "r", "left": "src", "right": "dst", "pairs": pairs}
                    args = [cmd, "{file}", "r"]
                else:
                    sec = {"kind": "map", "name": "h", "left": "src", "right": "dst", "pairs": pairs}
                    args = [cmd, "{file}", "h"]
                    if cmd == "morphism":
                        op["kind"] = rng.choice(("strict", "lax", "oplax"))
                        args += ["--kind", op["kind"]]
                op.update(sections=[dst, src, sec], args=args, style=style, unmatched=unmatched)
            else:  # learn-demo
                hidden = random_mealy(rng, "h", rng.randint(lo, hi), 1.0, total=True, **io2)
                words = [[rng.choice(io2["inputs"]) for _ in range(rng.randint(2, 5))]
                         for _ in range(rng.randint(3, 6))]
                op.update(sections=[hidden], words=words,
                          args=[cmd, "--hidden", "{file}:h", "--queries", ",".join(" ".join(w) for w in words)])
            ops.append(op)
    rng.shuffle(ops)
    return ops
