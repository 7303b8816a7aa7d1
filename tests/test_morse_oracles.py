"""The table-reading Morse checks against the accessor-based code they
replaced, kept here as test-only oracles; the Morse-complex homology
against the cellular one; and the local checks and carried caches of
compose and the edits against full re-derivations."""

import heapq
import random

import pytest

from dms import morsefield, surgery
from dms.errors import (
    CyclicField,
    InconsistentField,
    InseparableCriticals,
    MissingValue,
)
from dms.fixtures import (
    genus_surface,
    pillow,
    projective_plane6,
    random_valid_field,
    tetrahedron,
    torus7,
    tree_cotree_field,
)
from dms.homology import betti_mod2
from dms.splitter import decompose
from dms.morsefield import (
    FieldReport,
    FunctionReport,
    MorseFunction,
    VectorField,
    _check_function,
    _find_cycle,
    _matching_issues,
    critical_cells,
    induced_field,
    is_perfect,
    morse_betti,
    synthesize_function,
    validate_field,
    validate_function,
)

from conftest import ComposeSides, critical_ids


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


def oracle_validate_field(K, V):
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
    if not issues:
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


def reference_synthesize_function(K, V):
    """synthesize_function as it was before its successor lists: the
    face relations walked once for the in-degrees and again, through the
    partner map, inside the heap loop."""
    issues = _matching_issues(K, V)
    if issues:
        raise InconsistentField(issues[:5])
    cells = K.cells
    pm = V.partner_map()
    node = {cid: cid for cid in cells}
    for a, b in V.pairs():
        node[a] = node[b] = min(a, b)
    indeg = dict.fromkeys(node.values(), 0)
    for tid, cell in cells.items():
        nt = node[tid]
        for sid in cell.boundary:
            ns = node[sid]
            if ns != nt:
                indeg[ns] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    position = {}
    while ready:
        n = heapq.heappop(ready)
        position[n] = len(position)
        partner = pm.get(n)
        for cid in (n,) if partner is None else (n, partner):
            for sid in cells[cid].boundary:
                ns = node[sid]
                if ns != n:
                    indeg[ns] -= 1
                    if indeg[ns] == 0:
                        heapq.heappush(ready, ns)
    if len(position) != len(indeg):
        raise CyclicField(_find_cycle(K, dict(V.pairs())))
    top = len(position) - 1
    values = {cid: float(top - position[node[cid]]) for cid in cells}
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
        assert induced_field(K, f) == oracle_field_of(K, f) == V


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
        # the violations and, from the same face loop, the pairs
        report, pairs = _check_function(K, bad)
        assert report == validate_function(K, bad) == \
            oracle_validate_function(K, bad)
        assert VectorField(pairs) == oracle_field_of(K, bad)
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
    assert outcome(is_perfect, K, cyclic) == \
        outcome(synthesize_function, K, cyclic)
    for pairs in ([("q0", "sqA"), ("q0", "sqB")],   # double match
                  [("p0", "sqA")],                  # dimension
                  [("p2", "q0")],                   # incidence
                  [("p0", "nope"), ("q1", "sqB")],  # unknown cell
                  [("q0", "sqA"), ("q1", "sqB"), ("p0", "q0")]):
        V = VectorField(pairs)
        assert validate_field(K, V) == oracle_validate_field(K, V)
        assert not validate_field(K, V).ok
        assert assert_same_synthesis(K, V) is InconsistentField
        # is_perfect refuses what synthesize_function refuses, alike
        assert outcome(is_perfect, K, V) == outcome(synthesize_function, K, V)


def assert_synthesis_matches_the_reference(K, V):
    new = outcome(synthesize_function, K, V)
    assert new == outcome(reference_synthesize_function, K, V)
    if new[0] == "ok":
        old = reference_synthesize_function(K, V)
        assert list(new[1].values.items()) == list(old.values.items())
    return new[0]


@pytest.mark.parametrize("make", [tetrahedron, torus7,
                                  lambda: genus_surface(2)[0]])
def test_synthesis_matches_the_two_pass_reference_on_random_fields(make):
    K = make()
    for seed in range(40):
        V = random_valid_field(K, seed)
        assert assert_synthesis_matches_the_reference(K, V) == "ok"


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_synthesis_matches_the_two_pass_reference_on_tree_cotree_fields(g):
    K = genus_surface(g)[0]
    for seed in range(3):
        V = tree_cotree_field(K, rng=random.Random(seed))
        assert assert_synthesis_matches_the_reference(K, V) == "ok"


@pytest.mark.parametrize("g1", [1, 2])
def test_synthesis_matches_the_reference_on_capped_pieces(g1):
    # decompose's pieces, whose caps add `cone:` ids
    K, f = genus_surface(4)[:2]
    res = decompose(K, f, g1, 4 - g1)
    for P, V in ((res.m1_complex, res.m1_field),
                 (res.m2_complex, res.m2_field)):
        assert any(cid.startswith("cone:") for cid in P.cells)
        assert assert_synthesis_matches_the_reference(P, V) == "ok"


def test_synthesis_matches_the_reference_inside_compose():
    # each first summand of a compose chain as the boundary clearing
    # leaves it; from the second link on it keeps the ids of the last
    # compose, whose edits left its cells out of id order
    seen = []
    K, f = genus_surface(1)[:2]
    for seed in range(4):
        left = ComposeSides(K).names.left
        K1, V1, name = surgery._prefixed(K, induced_field(K, f), left)
        alpha = critical_cells(V1, K1).cells[2][0]
        values = {name[cid]: val for cid, val in f.values.items()}
        _, steps, _ = surgery._clear_top_cell_boundary(
            K1, V1, alpha, values)
        assert steps
        seen.append((K1, V1, left))
        T = torus7()
        ft = synthesize_function(T, tree_cotree_field(
            T, rng=random.Random(seed)))
        K, f, _, _ = surgery.compose(K, f, T, ft)
    lefts = [K1 for K1, _, left in seen if not left]
    assert len(lefts) == 3 and all(list(K1.cells) != sorted(K1.cells)
                                   for K1 in lefts)
    for K1, V1, _ in seen:
        assert assert_synthesis_matches_the_reference(K1, V1) == "ok"


def test_synthesis_refuses_as_the_reference_does():
    K = pillow()
    cyclic = VectorField([("q0", "sqA"), ("q1", "sqB")])
    assert assert_synthesis_matches_the_reference(K, cyclic) is CyclicField
    # the witness names the closed V-path
    witness = _find_cycle(K, dict(cyclic.pairs()))
    assert witness and outcome(synthesize_function, K, cyclic)[1] == \
        (witness,)
    double = VectorField([("q0", "sqA"), ("q0", "sqB")])
    assert assert_synthesis_matches_the_reference(K, double) \
        is InconsistentField


# --- homology from the Morse complex ---------------------------------------


def sub_fields(V, seed):
    """V and two random subsets of its pairs: acyclic fields too."""
    rng = random.Random(seed)
    out = [V]
    for _ in range(2):
        out.append(VectorField([p for p in V.pairs() if rng.random() < 0.7]))
    return out


@pytest.mark.parametrize("name", ["tetrahedron", "torus7", "rp2", "pillow",
                                  "genus2", "genus3", "genus4"])
def test_morse_betti_matches_betti_mod2_on_surfaces(name):
    K = {"tetrahedron": tetrahedron, "torus7": torus7,
         "rp2": projective_plane6, "pillow": pillow}.get(
        name, lambda: genus_surface(int(name[-1]))[0])()
    b = betti_mod2(K)
    fields = [VectorField(), tree_cotree_field(K)]
    for seed in range(4):
        fields.append(tree_cotree_field(K, rng=random.Random(seed)))
        fields.append(random_valid_field(K, seed))
    perfect = set()
    for V in fields:
        assert morse_betti(K, V) == b
        perfect.add(is_perfect(K, V))
        assert is_perfect(K, V) == (critical_cells(V, K).m == b.b)
    assert perfect == {False, True}


def test_morse_betti_matches_betti_mod2_on_collapse_fields(sphere3,
                                                          collapse_field):
    S = sphere3()
    b = betti_mod2(S)
    assert b.b == (1, 0, 0, 1)
    tops = sorted(c for c in S.cells if S.dim(c) == 3)
    for seed, alpha in enumerate(tops):
        V = collapse_field(S, alpha)
        assert is_perfect(S, V)
        for W in sub_fields(V, seed):
            assert morse_betti(S, W) == b


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_morse_betti_raises_what_synthesis_raises(surfaces, g):
    K = surfaces[g]
    seen = set()
    for seed in range(25):
        V = random_matching(K, seed)
        got = outcome(morse_betti, K, V)
        if got[0] == "ok":
            assert got[1] == betti_mod2(K)
        else:
            assert got == outcome(synthesize_function, K, V)
        assert outcome(is_perfect, K, V)[0] == got[0]
        seen.add(got[0])
    assert seen == {"ok", CyclicField}


# --- compose checks only the cells it touched -------------------------------


def affine(f, scale, shift):
    """f under an order-preserving affine map: the same field, other
    ranges."""
    return MorseFunction({cid: scale * val + shift
                          for cid, val in f.values.items()})


MAPS = [(1.0, 0.0), (1.0, 1000.0), (1.0, -1000.0), (0.001, 0.0),
        (1000.0, 5.0)]


@pytest.fixture
def local_checks(monkeypatch):
    """The local function checks compose makes, each with the induced
    pairs it read in the same face loop, recorded with their results;
    the whole-complex checks of its summands pass no ids."""
    full_check = morsefield._check_function
    checks = []

    def check(K, f, ids=None):
        out = full_check(K, f, ids)
        if ids is not None:
            checks.append((K, f, ids, out))
        return out

    monkeypatch.setattr(morsefield, "_check_function", check)
    return checks


def sunk(K, f, sides):
    """f with the cells glued from the second summand lowered below
    every tube cell: the composed function with its second part out of
    order, which breaks the Morse condition along the glue.  `sides`
    tells the cells of K apart (ComposeSides)."""
    tube = [f[cid] for cid in K.cells if sides.side(cid) == "tube"]
    glued = [cid for cid in K.cells if sides.side(cid) == "right"]
    drop = max(f[cid] for cid in glued) - min(tube) + 1.0
    values = dict(f.values)
    for cid in glued:
        values[cid] -= drop
    return MorseFunction(values)


def compose_checked_locally(checks, M1, f1, M2, f2):
    """compose, with its one local verdict equal to the full one: the
    violations and induced pairs of the function it checked, and whether
    it induces the returned field; and the same on the cells it checked
    for that function sunk along the glue.  Returns the violation kinds
    found on the sunk function."""
    del checks[:]
    sides = ComposeSides(M1)
    K, f, V, rep = surgery.compose(M1, f1, M2, f2)
    assert len(checks) == 1
    (M, g, ids, (report, pairs)), = checks
    assert M is K and g is f and report.ok
    low = sunk(M, g, sides)
    low_report, low_pairs = _check_function(M, low, ids)
    ids = set(ids)
    for h, hreport, hpairs in ((g, report, pairs),
                               (low, low_report, low_pairs)):
        assert hreport == validate_function(M, h)
        assert sorted(hpairs) == [p for p in oracle_field_of(M, h).pairs()
                                  if p[1] in ids]
    local = sorted(pairs) == [p for p in V.pairs() if p[1] in ids]
    assert local == (induced_field(M, g) == V)
    return K, f, V, rep, [kind for _, kind in low_report.violations]


@pytest.mark.parametrize("seed", range(4))
def test_local_compose_checks_match_full_checks(local_checks, seed):
    # random chains with shifted or scaled summands
    rng = random.Random(seed)
    K = torus7()
    f = synthesize_function(K, tree_cotree_field(K, rng=rng))
    kinds = set()
    for _ in range(5):
        T = torus7()
        ft = synthesize_function(T, tree_cotree_field(T, rng=rng))
        K, f, V, rep, found = compose_checked_locally(
            local_checks, K, affine(f, *rng.choice(MAPS)),
            T, affine(ft, *rng.choice(MAPS)))
        kinds.update(found)
    assert kinds


def test_local_compose_checks_match_full_checks_in_dimension_three(
        local_checks, sphere3, collapse_field):
    # the first summand needs no clearing here, so its shifts reach the
    # removed cell's boundary as given
    S = sphere3()
    f = synthesize_function(S, collapse_field(S, "c0-1-2-3"))
    kinds = set()
    for m1 in MAPS:
        for m2 in MAPS:
            kinds.update(compose_checked_locally(
                local_checks, S, affine(f, *m1), sphere3(),
                affine(f, *m2))[4])
    assert kinds


def test_chained_betti_cache_is_the_homology():
    K, f = genus_surface(1)[:2]
    for seed in range(4):
        T = torus7()
        ft = synthesize_function(T, tree_cotree_field(
            T, rng=random.Random(seed)))
        K, f, V, rep = surgery.compose(K, f, T, ft)
        assert rep.perfect
        assert K._betti == betti_mod2(K) == morse_betti(K, V)


# --- caches the edits carry -------------------------------------------------


def oracle_touching_crit_pairs(K, crits):
    """Every pair of critical cells, closures intersected."""
    out = []
    for i, c1 in enumerate(crits):
        for c2 in crits[i + 1:]:
            shared = K.closure(c1) & K.closure(c2)
            if shared:
                out.append((c1, c2, sorted(shared)))
    return out


def test_touching_crit_pairs_match_the_pairwise_oracle(each_separation_step):
    # on entry and after every step, the touching pairs read off the
    # carried closures (each crowded cell with its sorted holders) are
    # the pairwise oracle's on that step's complex, and the loop reads
    # the least pair with the least cell it shares
    found = []

    def check(index, K, V):
        shared = {}
        for x in sorted(index.closures.crowded):
            cs = sorted(index.closures.held[x])
            for i, c1 in enumerate(cs):
                for c2 in cs[i + 1:]:
                    shared.setdefault((c1, c2), []).append(x)
        out = [(c1, c2, xs) for (c1, c2), xs in sorted(shared.items())]
        assert out == oracle_touching_crit_pairs(K, critical_ids(V, K))
        assert index.touching() == (
            (out[0][0], out[0][1], out[0][2][0]) if out else None)
        found.append(len(out))

    each_separation_step(check)
    for K in (tetrahedron(), torus7(), genus_surface(2)[0]):
        for seed in range(6):
            try:
                surgery.separate_critical_cells(K, random_valid_field(K, seed))
            except InseparableCriticals:
                pass  # the corner cut that does not converge
    assert len(found) > 12 and any(found)


@pytest.mark.parametrize("seed", range(20))
def test_replace_carries_the_partner_map_of_a_fresh_field(seed):
    # drops may miss, repeat or be reversed; adds may clash with a kept
    # pair, repeat, or land on free cells
    rng = random.Random(seed)
    K = torus7()
    V = random_valid_field(K, seed)
    pairs = list(V.pairs())
    cells = sorted(K.cells)
    drop = rng.sample(pairs, rng.randrange(len(pairs) // 2))
    drop += [tuple(rng.sample(cells, 2)) for _ in range(2)]
    drop += [(b, a) for a, b in rng.sample(pairs, 2)] + drop[:1]
    free = sorted(set(cells).difference(*[
        p for p in pairs if p not in drop]))
    add = [tuple(rng.sample(free, 2)) for _ in range(rng.randrange(4))]
    if seed % 2:
        add += [tuple(rng.sample(cells, 2))]
    for built in (False, True):
        W = VectorField(V.pairs())
        if built:
            W.partner_map()
        out = W.replace(drop=drop, add=add)
        fresh = outcome(VectorField(out.pairs()).partner_map)
        if not built:
            assert out._partner is None
        elif fresh[0] == "ok":
            assert out._partner == fresh[1]
        else:
            assert out._partner is None
        assert outcome(out.partner_map) == fresh
