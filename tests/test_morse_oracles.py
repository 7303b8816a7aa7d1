"""The table-reading Morse checks against the accessor-based code they
replaced, kept here as test-only oracles."""

import heapq
import random

import pytest

from dms.errors import CyclicField, InconsistentField, MissingValue
from dms.fixtures import (
    genus_surface,
    pillow,
    random_valid_field,
    tree_cotree_field,
)
from dms.morsefield import (
    FieldReport,
    FunctionReport,
    MorseFunction,
    VectorField,
    _field_of,
    _find_cycle,
    synthesize_function,
    validate_field,
    validate_function,
)


# --- oracles: the checks as they were, one accessor call per incidence ----


def oracle_validate_function(K, f):
    for cid in K.cells:
        if cid not in f:
            raise MissingValue(cid)
    violations = []
    for cid in sorted(K.cells):
        val = f[cid]
        exc_faces = sum(1 for s in K.boundary(cid) if f[s] >= val)
        exc_cofaces = sum(1 for c in K.cofaces(cid) if f[c] <= val)
        if exc_faces > 1:
            violations.append((cid, "faces"))
        if exc_cofaces > 1:
            violations.append((cid, "cofaces"))
        if exc_faces == 1 and exc_cofaces == 1:
            violations.append((cid, "exclusivity"))
    return FunctionReport(ok=not violations, violations=violations)


def oracle_field_of(K, f):
    pairs = []
    for tid in sorted(K.cells):
        for sid in K.boundary(tid):
            if f[sid] >= f[tid]:
                pairs.append((sid, tid))
    return VectorField(pairs)


def oracle_validate_field(K, V, check_acyclic=True):
    issues = []
    seen = set()
    ok_pairs = []
    for a, b in V.pairs():
        if a not in K.cells or b not in K.cells:
            issues.append(("unknown-cell", a if a not in K.cells else b))
            continue
        if K.dim(b) != K.dim(a) + 1:
            issues.append(("dimension", (a, b)))
            continue
        if a not in K.boundary(b):
            issues.append(("incidence", (a, b)))
            continue
        dup = [c for c in (a, b) if c in seen]
        if dup:
            issues.append(("double-match", dup[0]))
            continue
        seen.add(a)
        seen.add(b)
        ok_pairs.append((a, b))
    witness = None
    if check_acyclic and not issues:
        witness = oracle_find_cycle(K, dict(ok_pairs))
        if witness is not None:
            issues.append(("cycle", witness))
    return FieldReport(ok=not issues, issues=issues, cycle_witness=witness)


def oracle_find_cycle(K, head_of):
    """Depth-first search only, from the tails in sorted order."""
    by_dim = {}
    for s in head_of:
        by_dim.setdefault(K.dim(s), []).append(s)
    for p in sorted(by_dim):
        tails = sorted(by_dim[p])
        tailset = set(tails)
        color = {}
        for start in tails:
            if color.get(start):
                continue
            stack = [(start, None)]
            path = []
            on_path = {}
            while stack:
                node, it = stack[-1]
                if it is None:
                    color[node] = 1
                    on_path[node] = len(path)
                    path.append(node)
                    nbrs = sorted(s for s in K.boundary(head_of[node])
                                  if s != node and s in tailset)
                    stack[-1] = (node, iter(nbrs))
                    continue
                advanced = False
                for nxt in it:
                    if color.get(nxt) == 1:
                        cyc = path[on_path[nxt]:]
                        witness = []
                        for s in cyc:
                            witness.extend((s, head_of[s]))
                        return tuple(witness)
                    if not color.get(nxt):
                        stack.append((nxt, None))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    on_path.pop(node, None)
                    path.pop()
                    stack.pop()
    return None


def oracle_synthesize_function(K, V):
    report = oracle_validate_field(K, V)
    if not report.ok:
        kinds = {k for k, _ in report.issues}
        if kinds == {"cycle"}:
            raise CyclicField(report.cycle_witness)
        raise InconsistentField(report.issues[:5])
    pm = V.partner_map()

    def node(cid):
        partner = pm.get(cid)
        if partner is not None:
            return min(cid, partner)
        return cid

    succ = {}
    indeg = {}
    for cid in K.cells:
        succ.setdefault(node(cid), set())
        indeg.setdefault(node(cid), 0)
    for tid in sorted(K.cells):
        nt = node(tid)
        for sid in K.boundary(tid):
            ns = node(sid)
            if ns == nt:
                continue
            if ns not in succ[nt]:
                succ[nt].add(ns)
                indeg[ns] += 1
    ready = [n for n in succ if indeg[n] == 0]
    heapq.heapify(ready)
    position = {}
    while ready:
        n = heapq.heappop(ready)
        position[n] = len(position)
        for s in sorted(succ[n]):
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
    if len(position) != len(succ):
        raise CyclicField("flow digraph has a directed cycle")
    top = len(position) - 1
    values = {cid: float(top - position[node(cid)]) for cid in K.cells}
    return MorseFunction(values)


# --- helpers ----------------------------------------------------------------


def outcome(fn, *args):
    """('ok', result) or (error class, error args): what a call did."""
    try:
        return "ok", fn(*args)
    except (CyclicField, InconsistentField, MissingValue) as err:
        return type(err), err.args


def assert_same_synthesis(K, V):
    new, old = outcome(synthesize_function, K, V), \
        outcome(oracle_synthesize_function, K, V)
    assert new == old
    if new[0] == "ok":
        assert list(new[1].values.items()) == list(old[1].values.items())
    return new[0]


def random_matching(K, seed):
    """A random acyclic matching with random pairs of its unmatched cells
    added: some of these have closed V-paths and some do not."""
    rng = random.Random(seed)
    pairs = list(random_valid_field(K, seed).pairs())
    free = set(K.cells).difference(*pairs)
    for cid in rng.sample(sorted(K.cells), len(K.cells)):
        if cid not in free:
            continue
        up = [t for t in K.cofaces(cid) if t in free]
        if up:
            t = rng.choice(up)
            pairs.append((cid, t))
            free -= {cid, t}
    return VectorField(pairs)


@pytest.fixture(scope="module")
def surfaces():
    return {g: genus_surface(g)[0] for g in (1, 2, 3, 4)}


# --- tests -------------------------------------------------------------------


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_checks_match_oracles_on_tree_cotree_functions(surfaces, g):
    K = surfaces[g]
    for seed in range(3):
        V = tree_cotree_field(K, rng=random.Random(seed))
        assert validate_field(K, V) == oracle_validate_field(K, V)
        assert validate_field(K, V).ok
        assert assert_same_synthesis(K, V) == "ok"
        f = synthesize_function(K, V)
        assert validate_function(K, f) == oracle_validate_function(K, f)
        assert validate_function(K, f).ok
        assert _field_of(K, f) == oracle_field_of(K, f) == V


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_violations_match_oracle_on_swapped_values(surfaces, g):
    K = surfaces[g]
    rng = random.Random(g)
    faces = sorted((s, t) for t in K.cells for s in K.boundary(t))
    kinds = set()
    for seed in range(10):
        f = synthesize_function(K, tree_cotree_field(
            K, rng=random.Random(seed)))
        values = dict(f.values)
        for s, t in rng.sample(faces, 1 + seed):
            values[s], values[t] = values[t], values[s]
        bad = MorseFunction(values)
        report = validate_function(K, bad)
        assert report == oracle_validate_function(K, bad)
        assert _field_of(K, bad) == oracle_field_of(K, bad)
        kinds.update(kind for _, kind in report.violations)
    assert kinds == {"faces", "cofaces", "exclusivity"}


def test_missing_value_matches_oracle(surfaces):
    K = surfaces[2]
    f = synthesize_function(K, tree_cotree_field(K))
    values = dict(f.values)
    for cid in sorted(K.cells)[5:9]:
        del values[cid]
    partial = MorseFunction(values)
    assert outcome(validate_function, K, partial)[0] is MissingValue
    assert outcome(validate_function, K, partial) == \
        outcome(oracle_validate_function, K, partial)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_closed_v_paths_match_oracle(surfaces, g):
    K = surfaces[g]
    seen = set()
    for seed in range(25):
        V = random_matching(K, seed)
        report = validate_field(K, V)
        assert report == oracle_validate_field(K, V)
        head_of = dict(V.pairs())
        assert _find_cycle(K, head_of) == oracle_find_cycle(K, head_of)
        seen.add(assert_same_synthesis(K, V))
    assert seen == {"ok", CyclicField}


def test_pillow_cycle_and_bad_pairs_match_oracle():
    K = pillow()
    cyclic = VectorField([("q0", "sqA"), ("q1", "sqB")])
    assert validate_field(K, cyclic) == oracle_validate_field(K, cyclic)
    assert assert_same_synthesis(K, cyclic) is CyclicField
    for pairs in ([("q0", "sqA"), ("q0", "sqB")],   # double match
                  [("p0", "sqA")],                  # dimension
                  [("p2", "q0")],                   # incidence
                  [("p0", "nope"), ("q1", "sqB")],  # unknown cell
                  [("q0", "sqA"), ("q1", "sqB"), ("p0", "q0")]):
        V = VectorField(pairs)
        assert validate_field(K, V) == oracle_validate_field(K, V)
        assert not validate_field(K, V).ok
        assert assert_same_synthesis(K, V) is InconsistentField
