import random
import sys
from itertools import combinations

import pytest

from dms import surgery
from dms.cellcomplex import Complex, build_poset, euler_characteristic, \
    verify_closed_surface
from dms.errors import (
    BadChord,
    DimensionMismatch,
    NotA2Cell,
    NotAnEdge,
    NotPerfectInput,
    NotSeparating,
    NotTopCell,
    VertexNotOnCell,
)
from dms.fixtures import genus_surface, tetrahedron, torus7, \
    tree_cotree_field
from dms.homology import betti_mod2
from dms.morsefield import (
    VectorField,
    critical_cells,
    induced_field,
    is_perfect,
    synthesize_function,
    trace_1path_tree,
    validate_field,
    validate_function,
)
from dms.splitter import decompose
from dms.surgery import (
    bisect_2cell,
    bisect_edge,
    build_prism_over_boundary,
    compose,
    separate_critical_cells,
    shrink_closed_star,
)


def seeded_torus(seed):
    T = torus7()
    return T, synthesize_function(T, tree_cotree_field(
        T, rng=random.Random(seed)))


def field_state(K, V):
    rep = validate_field(K, V)
    return rep.ok, critical_cells(V, K).m


def test_bisect_requires_edge(torus, torus_field):
    with pytest.raises(NotAnEdge):
        bisect_edge(torus, torus_field, "v0")
    with pytest.raises(NotA2Cell):
        bisect_2cell(torus, torus_field, "e0-1", "v0", "v1")


def test_bisect_critical_edge(torus, torus_field):
    crit = critical_cells(torus_field, torus).cells[1][0]
    K2, V2, rec = bisect_edge(torus, torus_field, crit)
    w, e1, e2 = rec.new_cells
    pm = V2.partner_map()
    assert e1 not in pm               # criticality inherited
    assert pm[w] == e2                # the midpoint pairs with the other half
    ok, m = field_state(K2, V2)
    assert ok and m == critical_cells(torus_field, torus).m
    assert K2.is_closed_surface


def test_bisect_vertex_paired_edge_reroutes_1path(torus, torus_field):
    pm = torus_field.partner_map()
    e = next(p[1] for p in torus_field.pairs() if torus.dim(p[0]) == 0)
    u = pm[e]
    K2, V2, rec = bisect_edge(torus, torus_field, e)
    w, e1, e2 = rec.new_cells
    pm2 = V2.partner_map()
    assert pm2[u] == e1 and u in K2.boundary(e1)
    assert pm2[w] == e2
    tree = trace_1path_tree(K2, V2)
    root = tree.root
    for v in tree.parent:
        cur = v
        for _ in range(len(K2.cells)):
            if cur == root:
                break
            cur = tree.parent[cur]
        assert cur == root


def test_bisect_every_edge_preserves_invariants(torus, torus_field):
    m0 = critical_cells(torus_field, torus).m
    for e in torus.cells_of_dim(1):
        K2, V2, rec = bisect_edge(torus, torus_field, e)
        ok, m = field_state(K2, V2)
        assert ok and m == m0, e
        assert K2.is_closed_surface


def test_bisect_2cell_critical_and_mirror(torus, torus_field):
    # make a quad first; then the chord splits it
    K, V, rec = bisect_edge(torus, torus_field, "e0-1")
    w = rec.new_cells[0]
    quad = [t for t in K.cells_of_dim(2) if rec.new_cells[1] in K.boundary(t)][0]
    verts = list(K.boundary_cycle(quad)[0::2])
    far = [v for v in verts if v != w
           and not any(K.boundary(e) == frozenset({v, w})
                       for e in K.boundary(quad))][0]
    K2, V2, rec2 = bisect_2cell(K, V, quad, w, far)
    d, c1, c2 = rec2.new_cells
    pm = V2.partner_map()
    old_pair = V.partner_map().get(quad)
    if old_pair is None:
        assert c1 not in pm and pm[d] == c2
    else:
        kept = pm[old_pair]
        other = c2 if kept == c1 else c1
        assert pm[d] == other
    ok, m = field_state(K2, V2)
    assert ok and m == critical_cells(torus_field, torus).m


def test_bad_chord(torus, torus_field):
    t = torus.cells_of_dim(2)[0]
    verts = list(torus.boundary_cycle(t)[0::2])
    with pytest.raises(BadChord):
        bisect_2cell(torus, torus_field, t, verts[0], verts[1])
    with pytest.raises(BadChord):
        bisect_2cell(torus, torus_field, t, verts[0], verts[0])


@pytest.mark.parametrize("seed", range(5))
def test_bisection_fuzz(seed, genus2, assert_same_complex):
    complexes = [tetrahedron(), torus7(), genus2[0]]
    fields = [tree_cotree_field(complexes[0]), tree_cotree_field(complexes[1]),
              genus2[2]]
    rng = random.Random(seed)
    for _ in range(20):
        i = rng.randrange(3)
        K, V = complexes[i], fields[i]
        m0 = critical_cells(V, K).m
        if rng.random() < 0.5:
            e = rng.choice(K.cells_of_dim(1))
            K, V, _ = bisect_edge(K, V, e)
        else:
            t = rng.choice(K.cells_of_dim(2))
            cyc = K.boundary_cycle(t)
            verts = list(cyc[0::2])
            edges = set(cyc[1::2])
            legal = [(u, w) for u, w in combinations(verts, 2)
                     if not any(K.boundary(e) == frozenset({u, w})
                                for e in edges)]
            if not legal:
                K, V, _ = bisect_edge(K, V, rng.choice(sorted(edges)))
            else:
                u, w = rng.choice(legal)
                K, V, _ = bisect_2cell(K, V, t, u, w)
        ok, m = field_state(K, V)
        assert ok and m == m0
        assert K.is_closed_surface
        assert_same_complex(K, Complex(K.cells.values()))
        complexes[i], fields[i] = K, V


def test_bisections_build_no_complex_from_scratch(monkeypatch, torus,
                                                   torus_field):
    def refuse(self, cells):
        raise AssertionError("an edit rebuilt the whole complex")

    monkeypatch.setattr(Complex, "__init__", refuse)
    K, V, rec = bisect_edge(torus, torus_field, "e0-1")
    quad = K.cofaces(rec.new_cells[1])[0]
    verts = K.boundary_cycle(quad)[0::2]
    i = verts.index(rec.new_cells[0])
    bisect_2cell(K, V, quad, verts[i], verts[(i + 2) % 4])


def test_every_edit_matches_a_full_rebuild(monkeypatch, rebuild,
                                           assert_same_complex):
    # each replace_cells call in a compose chain and in decompose, under
    # the seeds of test_golden.py, against the same edit done from scratch
    edit = Complex.replace_cells
    calls = []

    def checked(K, remove=(), add=()):
        remove, add = list(remove), list(add)
        out = edit(K, remove, add)
        assert_same_complex(out, rebuild(K, remove, add))
        calls.append(len(add))
        return out

    monkeypatch.setattr(Complex, "replace_cells", checked)
    K, f = seeded_torus(100)
    for seed in (101, 102, 103, 104):
        T, ft = seeded_torus(seed)
        K, f, _, _ = compose(K, f, T, ft)
    assert verify_closed_surface(K).genus == 5
    composing = len(calls)
    K = genus_surface(4)[0]
    for seed in range(9):
        V = tree_cotree_field(K, rng=random.Random(seed))
        f = synthesize_function(K, V)
        g1 = 1 + seed % 3
        try:
            decompose(K, f, g1, 4 - g1)
        except NotSeparating:
            assert seed == 7
    assert composing > 0 and len(calls) > 2 * composing


def closure_scan(K, crits):
    """Cells whose closure holds >= 2 critical cells, by intersecting
    every closure: the oracle for the star walk of _crits_in_closures."""
    out = []
    critset = set(crits)
    for cid in sorted(K.cells):
        hits = sorted(critset & K.closure(cid))
        if len(hits) >= 2:
            out.append((cid, hits))
    return out


def test_crits_in_closures_matches_closure_scan(monkeypatch):
    star_walk = surgery._crits_in_closures
    found = []

    def checked(K, crits):
        out = star_walk(K, crits)
        assert out == closure_scan(K, crits)
        found.append(len(out))
        return out

    monkeypatch.setattr(surgery, "_crits_in_closures", checked)
    for g in (2, 3, 4):
        K = genus_surface(g)[0]
        for seed in range(4):
            separate_critical_cells(
                K, tree_cotree_field(K, rng=random.Random(seed)))
    assert len(found) > 12 and any(found)


def test_separate_critical_cells_identity(torus, torus_field):
    crits = torus_field.critical(torus)
    clash = any(len(set(crits) & torus.closure(c)) >= 2
                for c in torus.cells)
    K, V, recs = separate_critical_cells(torus, torus_field)
    if not clash:
        assert not recs and K == torus


def test_separate_two_edges_sharing_vertex():
    # find a field on the torus whose two critical edges meet in a vertex
    K = torus7()
    for seed in range(60):
        V = tree_cotree_field(K, rng=random.Random(seed))
        crits = critical_cells(V, K).cells[1]
        shared = set(K.boundary(crits[0])) & set(K.boundary(crits[1]))
        if shared:
            break
    else:
        pytest.skip("no seed with adjacent critical edges")
    K2, V2, recs = separate_critical_cells(K, V)
    assert recs
    assert validate_field(K2, V2).ok
    assert critical_cells(V2, K2).m == (1, 2, 1)
    crits2 = V2.critical(K2)
    # no cell closure holds two critical cells, and the closed star of
    # one critical cell never contains another
    for cid in K2.cells:
        assert len(set(crits2) & K2.closure(cid)) <= 1
    for i, c1 in enumerate(crits2):
        assert not (K2.closure(c1) & set(crits2) - {c1})
        for c2 in crits2[i + 1:]:
            assert not (K2.closure(c1) & K2.closure(c2))
            assert c2 not in K2.closed_star(c1)


def solid_tetrahedron():
    records = []
    for k in range(4):
        for s in combinations(range(4), k + 1):
            sid = "s" + "-".join(map(str, s))
            bnd = ["s" + "-".join(map(str, f))
                   for f in combinations(s, k)] if k else []
            records.append((sid, k, bnd))
    return build_poset(records)


def test_prism_over_triangle(tetra):
    tube = build_prism_over_boundary(tetra, "t0-1-2")
    by_dim = {}
    for c in tube.new_cells:
        by_dim.setdefault(c.dim, []).append(c)
    assert len(by_dim[0]) == 3            # top vertices
    assert len(by_dim[1]) == 6            # 3 top edges + 3 vertical edges
    assert len(by_dim[2]) == 3            # quads
    chi = sum((-1) ** c.dim for c in tube.new_cells)
    assert chi == 0
    quad = [c for c in by_dim[2]][0]
    assert len(quad.boundary) == 4


def test_prism_over_tetrahedron_cell():
    K = solid_tetrahedron()
    top = [c for c in K.cells if K.dim(c) == 3][0]
    tube = build_prism_over_boundary(K, top)
    prisms = [c for c in tube.new_cells if c.id.endswith(":prism")]
    assert len(prisms) == 14              # one per boundary cell of the tet
    assert sum((-1) ** c.dim for c in tube.new_cells) == 0
    with pytest.raises(NotTopCell):
        build_prism_over_boundary(K, "s0-1-2")


def test_shrink_closed_star_triangle():
    K = solid_tetrahedron()
    # work on the 2-skeleton's face: use a closed 2-simplex instead
    from dms.cellcomplex import build_simplicial
    K = build_simplicial([(0, 1, 2)], closed=False)
    ic = shrink_closed_star(K, "t0-1-2", "v0")
    K2 = ic.complex
    # collar: outer edge e1-2, inner copy, two side edges, one quad
    quads = [c for c in K2.cells.values() if c.dim == 2 and c.id != ic.beta_prime]
    assert len(quads) == 1 and len(quads[0].boundary) == 4
    sides = [c for c in K2.cells.values()
             if c.dim == 1 and c.id.startswith("inner:")]
    assert len(sides) == 2
    assert "e1-2" in K2.cells and "shrunk:e1-2" in K2.cells
    # correspondence(v * w1) is the prism over w1, one dimension up
    assert ic.correspondence["e0-1"] == "inner:e0-1"
    assert K2.dim("inner:e0-1") == 1
    assert ic.correspondence["e1-2"] == "e1-2"
    with pytest.raises(VertexNotOnCell):
        shrink_closed_star(build_simplicial([(0, 1, 2), (0, 1, 3)],
                                            closed=False), "t0-1-2", "v3")


def test_shrink_preserves_face_relation():
    from dms.cellcomplex import build_simplicial
    cases = [(build_simplicial([(0, 1, 2)], closed=False), "t0-1-2", "v0"),
             (solid_tetrahedron(), "s0-1-2-3", "s0")]
    for K, beta, v in cases:
        ic = shrink_closed_star(K, beta, v)
        K2 = ic.complex
        domain = sorted(set(K.cells) - {v})
        for r1 in domain:
            for r2 in domain:
                if r1 in K.closure(r2) and r1 != r2:
                    img1, img2 = ic.correspondence[r1], ic.correspondence[r2]
                    assert img1 in K2.closure(img2)
                    assert K2.dim(img1) == K.dim(r1)


def test_compose_tori(torus, torus_function):
    M, f, V, rep = compose(torus, torus_function, torus7(),
                           synthesize_function(torus7(),
                                               tree_cotree_field(torus7())))
    assert rep.chi == -2
    assert rep.counts == (1, 4, 1)
    assert rep.perfect
    assert rep.function_valid
    assert validate_function(M, f).ok
    assert induced_field(M, f) == V
    assert verify_closed_surface(M).genus == 2
    assert verify_closed_surface(M).orientable
    # every tube arrow points from the glued copy into its own prism
    pm = V.partner_map()
    for cid in M.cells:
        if cid.startswith("tube:") and cid.endswith(":top"):
            base = cid[len("tube:"):-len(":top")]
            assert pm[cid] == "tube:%s:prism" % base


def test_compose_spheres():
    A = tetrahedron()
    fa = synthesize_function(A, tree_cotree_field(A))
    M, f, V, rep = compose(A, fa, tetrahedron(), fa)
    assert rep.counts == (1, 0, 1)
    assert rep.chi == 2
    assert rep.perfect
    assert is_perfect(M, V)
    assert verify_closed_surface(M).genus == 0


def test_compose_function_formula_constant(torus, torus_function):
    M, f, V, rep = compose(torus, torus_function, torus7(),
                           synthesize_function(torus7(),
                                               tree_cotree_field(torus7())))
    # C is the removed cell's value plus two, and the second summand's
    # values sit exactly C above their originals
    alpha_val = rep.constant - 2.0
    m2_cells = [cid for cid in M.cells if cid.startswith("m2:")
                and "inner" not in cid and "~b" not in cid
                and "shrunk" not in cid]
    assert m2_cells
    for cid in m2_cells[:10]:
        assert f[cid] >= alpha_val


def test_compose_rescale_fallback(torus, torus_function):
    # an equivalent function with a hostile range: the literal constant
    # cannot keep the summands ordered, so compose falls back to
    # order-isomorphic copies in [0, 1]
    from dms.morsefield import MorseFunction
    T2 = torus7()
    f2raw = synthesize_function(T2, tree_cotree_field(T2))
    f2 = MorseFunction({cid: v - 1000.0 for cid, v in f2raw.values.items()})
    M, f, V, rep = compose(torus, torus_function, T2, f2)
    assert rep.rescaled
    assert rep.constant == 3.0          # rescaled f1(alpha) = 1
    assert rep.function_valid and rep.perfect
    assert validate_function(M, f).ok
    assert induced_field(M, f) == V


def spy(monkeypatch, fn):
    """Record the calls to fn through every dms module that binds it."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "dms" or name.startswith("dms."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def test_compose_checks_each_structure_once(monkeypatch):
    # inputs: one validate_function and one betti_mod2 each; the result:
    # one betti_mod2 and one validate_function per assembled function
    bettis = spy(monkeypatch, betti_mod2)
    validations = spy(monkeypatch, validate_function)
    K, f = seeded_torus(100)
    paths = set()
    for seed in range(101, 111):
        T, ft = seeded_torus(seed)
        del bettis[:], validations[:]
        K, f, V, rep = compose(K, f, T, ft)
        assert len(bettis) == 3
        assert len(validations) == (4 if rep.rescaled else 3)
        paths.add(rep.rescaled)
    assert paths == {False, True}


def test_compose_rejects_imperfect(torus):
    from dms.morsefield import MorseFunction
    f = MorseFunction({cid: float(c.dim) for cid, c in torus.cells.items()})
    with pytest.raises(NotPerfectInput):
        compose(torus, f, torus, f)


def test_compose_rejects_dimension_mismatch(torus, torus_function):
    circle = build_poset([("a", 0, []), ("b", 0, []),
                          ("x", 1, ["a", "b"]), ("y", 1, ["a", "b"])])
    from dms.morsefield import MorseFunction
    fc = MorseFunction({c: 0.0 for c in circle.cells})
    with pytest.raises(DimensionMismatch):
        compose(torus, torus_function, circle, fc)


def sphere3():
    records = []
    for k in range(4):
        for s in combinations(range(5), k + 1):
            sid = "c" + "-".join(map(str, s))
            bnd = ["c" + "-".join(map(str, f))
                   for f in combinations(s, k)] if k else []
            records.append((sid, k, bnd))
    return build_poset(records)


def collapse_field(K, alpha):
    alive = set(K.cells) - {alpha}
    pairs = []
    changed = True
    while changed:
        changed = False
        for sid in sorted(alive):
            cof = [c for c in K.cofaces(sid) if c in alive]
            if len(cof) == 1 and K.dim(cof[0]) == K.dim(sid) + 1:
                pairs.append((sid, cof[0]))
                alive.discard(sid)
                alive.discard(cof[0])
                changed = True
                break
    return VectorField(pairs)


def test_compose_dimension_three():
    S = sphere3()
    alpha = sorted(c for c in S.cells if S.dim(c) == 3)[0]
    V = collapse_field(S, alpha)
    assert is_perfect(S, V)
    f = synthesize_function(S, V)
    M, fc, Vc, rep = compose(S, f, sphere3(), f)
    assert rep.counts == (1, 0, 0, 1)
    assert rep.chi == 0
    assert rep.perfect and rep.function_valid
    assert induced_field(M, fc) == Vc


def test_glued_results_match_a_full_rebuild(assert_same_complex):
    K, f = seeded_torus(100)
    for seed in range(101, 106):
        T, ft = seeded_torus(seed)
        K, f, V, rep = compose(K, f, T, ft)
        assert_same_complex(K, Complex(K.cells.values()))
    assert verify_closed_surface(K).genus == 6
    S = sphere3()
    f = synthesize_function(S, collapse_field(S, "c0-1-2-3"))
    M, fc, Vc, rep = compose(S, f, sphere3(), f)
    assert_same_complex(M, Complex(M.cells.values()))
    assert M.top_dim == 3 and M.is_pseudomanifold


def test_compose_builds_no_complex_from_scratch(monkeypatch):
    K, f = seeded_torus(100)
    T, ft = seeded_torus(101)
    S = sphere3()
    fs = synthesize_function(S, collapse_field(S, "c0-1-2-3"))
    S2 = sphere3()

    def refuse(self, cells):
        raise AssertionError("compose built a complex from scratch")

    monkeypatch.setattr(Complex, "__init__", refuse)
    M, _, _, rep = compose(K, f, T, ft)
    assert rep.boundary_clearing_steps and rep.perfect
    M, _, _, rep = compose(S, fs, S2, fs)
    assert M.top_dim == 3 and rep.perfect
