"""Reference answers, computed without ubisim.

These run in the benchmark's own process, never in the workload process,
so they cost neither op time nor the workload's memory.  They use other
algorithms than the library does:

* apartness, bisimilarity and ioco compatibility as least fixpoints
  propagated backwards over the pair graph (a product-graph BFS);
* forward product BFS for the lexicographically least shortest witness;
* naive congruence closure for lax merges;
* closed forms for the cycle families (see `gen.py`);
* construction-known verdicts for the generated maps;
* joint descent of subtrees for apartness on observation trees.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque


def digest(pairs) -> str:
    """Order-independent fingerprint of a set of state pairs; the workload
    process computes the same over the library's relation."""
    return hashlib.sha1("\n".join(sorted(f"{x} {y}" for x, y in pairs)).encode()).hexdigest()


def mealy_table(m):
    """Per state index, per input index: (output, successor index) or None."""
    pos = {s: k for k, s in enumerate(m["states"])}
    ipos = {i: k for k, i in enumerate(m["inputs"])}
    tab = [[None] * len(m["inputs"]) for _ in m["states"]]
    for s, i, o, d in m["trans"]:
        tab[pos[s]][ipos[i]] = (o, pos[d])
    return tab


def _propagate(n, seeds, pred, counter=None, opred=None):
    """Least fixpoint over the pair graph: a pair falls when it is a seed,
    when any universal successor falls (`pred`), or when its last
    existential successor falls (`opred` with per-pair `counter`)."""
    fallen = bytearray(n * n)
    queue = deque()
    for p in seeds:
        if not fallen[p]:
            fallen[p] = 1
            queue.append(p)
    while queue:
        q = queue.popleft()
        for p in pred[q]:
            if not fallen[p]:
                fallen[p] = 1
                queue.append(p)
        if opred is not None:
            for p in opred[q]:
                counter[p] -= 1
                if counter[p] == 0 and not fallen[p]:
                    fallen[p] = 1
                    queue.append(p)
    return fallen


def mealy_relation(m, strict=False):
    """Uncertain bisimilarity (strict=False) or bisimilarity (strict=True)
    of a Mealy machine, as a set of state-name pairs."""
    tab = mealy_table(m)
    n = len(tab)
    pred = [[] for _ in range(n * n)]
    seeds = []
    for x in range(n):
        tx = tab[x]
        for y in range(n):
            ty = tab[y]
            p = x * n + y
            for a, b in zip(tx, ty):
                if a is None or b is None:
                    if strict and a is not b:
                        seeds.append(p)
                elif a[0] != b[0]:
                    seeds.append(p)
                else:
                    pred[a[1] * n + b[1]].append(p)
    fallen = _propagate(n, seeds, pred)
    states = m["states"]
    return {(states[p // n], states[p % n]) for p in range(n * n) if not fallen[p]}


def ioco_relation(sa):
    """ioco compatibility: universal over common inputs, existential over
    common outputs (a counter per pair, as in Horn-clause propagation)."""
    pos = {s: k for k, s in enumerate(sa["states"])}
    n = len(pos)
    din = [dict() for _ in range(n)]
    dout = [dict() for _ in range(n)]
    for s, a, d in sa["itrans"]:
        din[pos[s]][a] = pos[d]
    for s, o, d in sa["otrans"]:
        dout[pos[s]][o] = pos[d]
    pred = [[] for _ in range(n * n)]
    opred = [[] for _ in range(n * n)]
    counter = [0] * (n * n)
    seeds = []
    for x in range(n):
        for y in range(n):
            p = x * n + y
            for a, dx in din[x].items():
                dy = din[y].get(a)
                if dy is not None:
                    pred[dx * n + dy].append(p)
            for o, dx in dout[x].items():
                dy = dout[y].get(o)
                if dy is not None:
                    opred[dx * n + dy].append(p)
                    counter[p] += 1
            if counter[p] == 0:
                seeds.append(p)
    fallen = _propagate(n, seeds, pred, counter, opred)
    states = sa["states"]
    return {(states[p // n], states[p % n]) for p in range(n * n) if not fallen[p]}


def merge_cycle_classes(n, k):
    """Closed form of `lax_identify(c0, ck)` on the all-merge cycle of
    `gen.merge_cycle`: the residue classes modulo gcd(n, k)."""
    g = math.gcd(n, k)
    return [[f"c{j}" for j in range(r, n, g)] for r in range(g)]


def cycle_relation(m):
    """Closed form for both cycle families: only the diagonal survives."""
    return {(s, s) for s in m["states"]}


def witness(m, x, y):
    """Forward BFS over the both-defined product from (x, y), inputs in
    declaration order: the lexicographically least shortest separating
    word as (word, left output, right output), or None."""
    tab = mealy_table(m)
    pos = {s: k for k, s in enumerate(m["states"])}
    start = (pos[x], pos[y])
    queue = deque([(start, ())])
    seen = {start}
    while queue:
        (u, v), word = queue.popleft()
        for k, (a, b) in enumerate(zip(tab[u], tab[v])):
            if a is None or b is None:
                continue
            w = word + (m["inputs"][k],)
            if a[0] != b[0]:
                return w, a[0], b[0]
            if (a[1], b[1]) not in seen:
                seen.add((a[1], b[1]))
                queue.append(((a[1], b[1]), w))
    return None


def congruence(m, x, y):
    """Naive congruence closure of x ~ y: merge successors of every pair in
    a class until nothing changes.  Returns ("conflict", None) or
    ("quotient", classes) with classes in declaration order."""
    tab = mealy_table(m)
    n = len(tab)
    pos = {s: k for k, s in enumerate(m["states"])}
    label = list(range(n))

    def merge(a, b):
        la, lb = label[a], label[b]
        keep, drop = min(la, lb), max(la, lb)
        for k in range(n):
            if label[k] == drop:
                label[k] = keep

    merge(pos[x], pos[y])
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in range(u + 1, n):
                if label[u] != label[v]:
                    continue
                for a, b in zip(tab[u], tab[v]):
                    if a is None or b is None:
                        continue
                    if a[0] != b[0]:
                        return "conflict", None
                    if label[a[1]] != label[b[1]]:
                        merge(a[1], b[1])
                        changed = True
    classes = {}
    for k in range(n):
        classes.setdefault(label[k], []).append(m["states"][k])
    return "quotient", sorted(classes.values(), key=lambda c: pos[c[0]])


def join_states(m, x, y):
    """Number of pair states a joint simulator of two compatible Mealy
    states reaches: common inputs pair the successors, one-sided inputs
    duplicate theirs."""
    tab = mealy_table(m)
    pos = {s: k for k, s in enumerate(m["states"])}
    start = (pos[x], pos[y])
    seen = {start}
    stack = [start]
    while stack:
        u, v = stack.pop()
        for a, b in zip(tab[u], tab[v]):
            if a is None and b is None:
                continue
            nxt = (a[1], b[1]) if a is not None and b is not None else ((a or b)[1],) * 2
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen)


def sa_join_states(sa, x, y, compatible):
    """The suspension-automaton joint simulator's pair states: inputs as for
    Mealy machines, and common outputs whose successor pair is compatible."""
    din, dout = {}, {}
    for s, a, d in sa["itrans"]:
        din.setdefault(s, {})[a] = d
    for s, o, d in sa["otrans"]:
        dout.setdefault(s, {})[o] = d
    seen = {(x, y)}
    stack = [(x, y)]
    while stack:
        u, v = stack.pop()
        nexts = []
        for a in sa["inputs"]:
            du, dv = din.get(u, {}).get(a), din.get(v, {}).get(a)
            if du is not None and dv is not None:
                nexts.append((du, dv))
            elif du is not None or dv is not None:
                nexts.append((du or dv,) * 2)
        for o in sa["outputs"]:
            du, dv = dout.get(u, {}).get(o), dout.get(v, {}).get(o)
            if du is not None and dv is not None and (du, dv) in compatible:
                nexts.append((du, dv))
        for nxt in nexts:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen)


def union(first, second):
    """Disjoint union with "<machine>.<state>" names, as the CLI forms it
    for a pair query across two machines.  `collides` is true when two
    renamed states coincide, which the library rejects (a known defect)."""
    r1 = {s: f"{first['name']}.{s}" for s in first["states"]}
    r2 = {s: f"{second['name']}.{s}" for s in second["states"]}
    # states keep separate identities even when their names collide
    states = [("1", s) for s in first["states"]] + [("2", s) for s in second["states"]]
    trans = [[("1", s), i, o, ("1", d)] for s, i, o, d in first["trans"]]
    trans += [[("2", s), i, o, ("2", d)] for s, i, o, d in second["trans"]]
    names = [r1[s] for s in first["states"]] + [r2[s] for s in second["states"]]
    m = {"kind": "mealy", "name": f"{first['name']}+{second['name']}", "inputs": first["inputs"],
         "outputs": first["outputs"], "states": states, "trans": trans}
    return m, dict(zip(states, names)), len(set(names)) != len(names)


# ---------------------------------------------------------------------------
# observation trees


def add_word(children, word, outs):
    """Record one query in a tree's child table: access word ->
    {input: (output, child access word)}."""
    for k in range(len(word)):
        children.setdefault(word[:k], {})[word[k]] = (outs[k], word[: k + 1])


def tree_apart(children, u, v):
    """Joint descent: two tree nodes are apart when walking their subtrees
    together along common inputs reaches an edge with different outputs."""
    stack = [(u, v)]
    while stack:
        a, b = stack.pop()
        cb = children.get(b)
        if not cb:
            continue
        for i, (oa, na) in children.get(a, {}).items():
            step = cb.get(i)
            if step is not None:
                if step[0] != oa:
                    return True
                stack.append((na, step[1]))
    return False


def node_id(word):
    return ".".join(word) if word else "ε"


def run(delta, start, word):
    """Outputs along `word` from `start` in a total machine, and the state
    reached."""
    outs, state = [], start
    for i in word:
        o, state = delta[(state, i)]
        outs.append(o)
    return outs, state


# ---------------------------------------------------------------------------
# cli expectations


def _line_apart(w):
    return "APART " + " ".join(w[0]) + f" {w[1]} {w[2]}"


def cli_expect(op):
    """What `python -m ubisim <args>` must print for a generated op.

    The check is on the exit code and on parts of stdout that do not depend
    on how synthesized states are named: the verdict line or token, the
    exact witness line, and counts of states and pairs.  `known_defect`
    marks inputs whose synthesized names collide (a known library defect),
    where an error exit is counted as a failed op rather than as a wrong
    answer.
    """
    cmd, secs = op["cmd"], op["sections"]
    if cmd in ("check", "witness", "identify", "join"):
        m1, x, m2, y = op["query"]
        machines = {s["name"]: s for s in secs}
        collides = False
        if m1 == m2:
            m = machines[m1]
        else:
            m, names, collides = union(machines[m1], machines[m2])
            x, y = ("1", x), ("2", y)
        if m["kind"] == "sa":
            compatible = ioco_relation(m)
            if (x, y) not in compatible:
                return {"code": 1, "first": "INCOMPATIBLE"}
            return {"code": 0, "first": "sa join", "states": sa_join_states(m, x, y, compatible)}
        w = witness(m, x, y)
        if cmd == "check":
            return {"code": 1 if w else 0, "first": "APART" if w else "UNCERTAIN-BISIMILAR",
                    "known_defect": collides}
        if cmd == "witness" or (cmd == "join" and w):
            return {"code": 1 if w else 0, "first": _line_apart(w) if w else "UNCERTAIN-BISIMILAR",
                    "known_defect": collides}
        if cmd == "join":
            return {"code": 0, "first": "mealy join", "states": join_states(m, x, y),
                    "known_defect": collides}
        if "cycle" in m:
            verdict, classes = "quotient", merge_cycle_classes(m["cycle"], int(y[1:]))
        else:
            verdict, classes = congruence(m, x, y)
        if verdict == "conflict":
            return {"code": 1, "token": "merge", "last": "conflict ", "known_defect": collides}
        label = names.get if m1 != m2 else str
        class_names = ["+".join(label(s) for s in c) for c in classes]
        collides = collides or len(set(class_names)) != len(class_names)
        return {"code": 0, "first": "QUOTIENT", "states": len(classes), "known_defect": collides}
    if cmd == "bisim":
        rel = mealy_relation(secs[0], strict=True)
        return {"code": 0, "first": f"BISIMILARITY m {len(rel)}", "count": ["pair ", len(rel)]}
    if cmd == "ioco-compat":
        rel = ioco_relation(secs[0])
        return {"code": 0, "first": f"IOCO-COMPATIBILITY m {len(rel)}", "count": ["pair ", len(rel)]}
    if cmd in ("morphism", "restrict", "simulate"):
        dst, src, sec = secs
        unmatched = [tuple(u) for u in op["unmatched"]]
        h = dict(sec["pairs"])
        if cmd == "simulate":
            if op["style"] == "lax":
                return {"code": 0, "first": "SIMULATION"}
            u, i = unmatched[0]
            return {"code": 1, "first": f"NOT-SIMULATION {u} {h[u]} {i}"}
        # lax maps break the oplax direction where source entries were
        # dropped, oplax maps the lax direction at the extra entries; either
        # way the violations are exactly `unmatched`, in declaration order
        refuted = {"code": 1, "first": f"VIOLATION {unmatched[0][0]} in {unmatched[0][1]}",
                   "count": ["VIOLATION ", len(unmatched)]}
        if cmd == "morphism":
            return {"code": 0, "first": "OK"} if op["kind"] == op["style"] else refuted
        if op["style"] == "lax":
            return refuted
        return {"code": 0, "first": "mealy src'", "count": ["trans ", len(src["trans"]) - len(unmatched)]}
    # learn-demo
    hidden = secs[0]
    words = [tuple(w) for w in op["words"]]
    delta = {(s, i): (o, d) for s, i, o, d in hidden["trans"]}
    children = {}
    for w in words:
        add_word(children, w, run(delta, hidden["states"][0], w)[0])
    nodes = {()} | {c for kids in children.values() for _, c in kids.values()}
    apart = sum(tree_apart(children, u, v) for u in nodes for v in nodes)
    return {"code": 0, "first": "mealy tree", "states": len(nodes), "count": ["apart ", apart],
            "last": f"queries {len(words)}"}
