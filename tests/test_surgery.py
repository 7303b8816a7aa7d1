import random
from itertools import combinations

import pytest

from dms import morsefield, surgery
from dms.cellcomplex import Complex, build_poset, build_simplicial, \
    euler_characteristic, verify_closed_surface
from dms.errors import (
    BadChord,
    DimensionMismatch,
    Disconnected,
    InconsistentField,
    InseparableCriticals,
    InvalidFunction,
    NotA2Cell,
    NotAnEdge,
    NotPerfectInput,
    NotSeparating,
    NotTopCell,
    UnclearableBoundary,
    VertexNotOnCell,
)
from dms.formats import parse_cwp, write_cwp, write_dmf, write_dvf
from dms.fixtures import genus_surface, random_valid_field, tetrahedron, \
    torus7, tree_cotree_field
from dms.homology import betti_mod2
from dms.morsefield import (
    MorseFunction,
    VectorField,
    _check_function,
    critical_cells,
    induced_field,
    is_perfect,
    morse_betti,
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


def hexagon_pillow():
    """Sphere made of two hexagons glued along one 6-cycle."""
    records = [("h%d" % i, 0, []) for i in range(6)]
    records += [("g%d" % i, 1, ["h%d" % i, "h%d" % ((i + 1) % 6)])
                for i in range(6)]
    edges = ["g%d" % i for i in range(6)]
    return build_poset(records + [("hexA", 2, edges), ("hexB", 2, edges)])


def test_inheriting_arc_is_the_boundary_bisect_2cell_gives_b1():
    K = hexagon_pillow()
    verts = K.cells_of_dim(0)
    chords = [(u, w) for u in verts for w in verts if u != w
              and {u, w} not in [K.boundary(e) for e in K.cells_of_dim(1)]]
    assert len(chords) == 18  # 9 chords, both argument orders
    for u, w in chords:
        arc = surgery._inheriting_arc(K, "hexA", u, w)
        # a walk from u along the boundary that stops just short of w
        ends = list(arc[0::2]) + [w]
        assert len(set(ends)) == len(ends)
        for i, e in enumerate(arc[1::2]):
            assert K.boundary(e) == {ends[i], ends[i + 1]}
        K2, _, _ = bisect_2cell(K, VectorField(), "hexA", u, w)
        assert set(arc[1::2]) == K2.boundary("hexA~b1") - {"hexA~b0"}


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
        calls.append(len(out.cells))
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


def test_split_cell_carries_the_flags_of_a_full_rebuild(monkeypatch):
    # each split_cell call in decompose, under the seeds of test_golden.py,
    # and in a compose chain: the flags it hands on equal a rebuild's
    split = Complex.split_cell
    carried = []

    def checked(K, old, new_cells, halves):
        out = split(K, old, new_cells, halves)
        flags = {k: v for k, v in vars(out).items()
                 if k in ("is_pseudomanifold", "_surface_info")}
        R = Complex(out.cells.values())
        for name, value in flags.items():
            assert getattr(R, name) == value, (old, name)
        carried.append(sorted(flags))
        return out

    K = genus_surface(4)[0]
    monkeypatch.setattr(Complex, "split_cell", checked)
    for seed in range(9):
        V = tree_cotree_field(K, rng=random.Random(seed))
        f = synthesize_function(K, V)
        g1 = 1 + seed % 3
        try:
            decompose(K, f, g1, 4 - g1)
        except NotSeparating:
            assert seed == 7
    # decompose verifies its input, so every split inherits both flags
    assert carried and all(flags == ["_surface_info", "is_pseudomanifold"]
                           for flags in carried)
    # the subdivision check accepts every split compose makes
    del carried[:]
    K, f = seeded_torus(100)
    for seed in (101, 102, 103, 104):
        T, ft = seeded_torus(seed)
        K, f, _, _ = compose(K, f, T, ft)
    assert carried


def closure_scan(K, crits):
    """Cells whose closure holds >= 2 critical cells, by intersecting
    every closure: the oracle for the witnesses of the carried index."""
    out = []
    critset = set(crits)
    for cid in sorted(K.cells):
        hits = sorted(critset & K.closure(cid))
        if len(hits) >= 2:
            out.append((cid, hits))
    return out


def test_crits_in_closures_matches_closure_scan(each_separation_step):
    # on entry and after every step, the carried critical set is the
    # field's, the carried stars and closures are the complex's, and the
    # witnesses read off the stars are the closure scan's
    found = []

    def check(index, K, V):
        crits = V.critical(K)
        assert sorted(index.stars.of) == sorted(index.closures.of) == crits
        for c in crits:
            assert index.stars.of[c] == K.star(c)
            assert index.closures.of[c] == K.closure(c)
        out = index.witnesses()
        assert out == closure_scan(K, crits)
        found.append(len(out))

    each_separation_step(check)
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


def test_separation_budget_is_fixed_on_entry(monkeypatch):
    # on this field the corner cut between critical triangles that meet
    # in a vertex never ends the loop; the step budget must not grow with
    # the cells each bisection adds
    K = tetrahedron()
    V = random_valid_field(K, 37)
    made = []
    for name in ("bisect_edge", "bisect_2cell"):
        def counted(*args, _fn=getattr(surgery, name), **kwargs):
            made.append(args[2])
            assert len(made) <= 1000, "bisection budget exceeded"
            out = _fn(*args, **kwargs)
            last[:] = out[:2]
            return out
        monkeypatch.setattr(surgery, name, counted)
    last = []
    with pytest.raises(InseparableCriticals) as err:
        separate_critical_cells(K, V)
    assert len(made) == 100 + 10 * len(K.cells)
    # the refusal names two critical polygons of the last complex whose
    # closures meet
    K2, V2 = last
    a, b = err.value.args
    assert {a, b} <= set(V2.critical(K2))
    assert K2.dim(a) == K2.dim(b) == 2 and K2.closure(a) & K2.closure(b)


# the fields on which the corner cut between two critical polygons keeps
# cutting while the piece left critical keeps part of their shared
# boundary, until the step budget runs out
INSEPARABLE_SEEDS = {("tetrahedron", 37), ("torus7", 38), ("genus2", 6),
                     ("genus2", 17), ("genus2", 21), ("genus2", 25)}


def test_separation_refuses_only_the_known_fields():
    refused = set()
    for name, K in (("tetrahedron", tetrahedron()), ("torus7", torus7()),
                    ("genus2", genus_surface(2)[0])):
        for seed in range(40):
            V = random_valid_field(K, seed)
            try:
                K2, V2, _ = separate_critical_cells(K, V)
            except InseparableCriticals:
                refused.add((name, seed))
                continue
            # never the internal InconsistentField; a separation keeps
            # the critical counts
            assert critical_cells(V2, K2).m == critical_cells(V, K).m
    assert refused <= INSEPARABLE_SEEDS


def test_one_critical_scan_per_separation(monkeypatch):
    # the loop carries its critical cells, so however many steps it takes
    # it scans the whole complex for them once, on entry
    scans = []
    for owner, name in ((VectorField, "critical"),
                        (morsefield, "critical_cells"),
                        (surgery, "critical_cells")):
        def counted(*args, _fn=getattr(owner, name), **kwargs):
            scans.append(name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    steps = []
    for g in (2, 3, 4, 5, 6):
        K = genus_surface(g)[0]
        for seed in range(3):
            V = tree_cotree_field(K, rng=random.Random(seed))
            del scans[:]
            K2, V2, recs = separate_critical_cells(K, V)
            assert len(scans) <= 1
            steps.append((len(K2.cells) - len(K.cells)) // 2)  # bisections
    assert max(steps) > 10


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


@pytest.mark.parametrize("name", ["torus7", "sphere3"])
def test_shrink_hands_on_the_flags_of_a_fresh_build(name, sphere3,
                                                     assert_same_complex):
    K = torus7() if name == "torus7" else sphere3()
    assert K.is_pseudomanifold
    K.is_closed_surface  # computed, so the shrink can hand it on
    beta = K.cells_of_dim(K.top_dim)[0]
    K2 = shrink_closed_star(K, beta, K.vertices_of(beta)[0]).complex
    # a defect names a cell, so only a SurfaceInfo is handed on
    handed = ["_surface_info", "is_pseudomanifold"] if K.top_dim == 2 \
        else ["is_pseudomanifold"]
    assert sorted(k for k in ("is_pseudomanifold", "_surface_info")
                  if k in K2.__dict__) == handed
    R = Complex(K2.cells.values())
    for flag in handed:
        assert K2.__dict__[flag] == getattr(R, flag)
    assert_same_complex(K2, R)


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


def test_compose_cuts_a_corner_for_beta(torus, torus_function,
                                        pillow_sphere):
    # the pillow has no triangle: compose cuts one off a square's corner
    # at the critical vertex and resynthesizes the second function
    g = synthesize_function(pillow_sphere, tree_cotree_field(pillow_sphere))
    M, f, V, rep = compose(torus, torus_function, pillow_sphere, g)
    assert "~b" in rep.beta
    assert verify_closed_surface(M).genus == 1
    assert validate_field(M, V).ok and is_perfect(M, V) and rep.perfect
    assert validate_function(M, f).ok and induced_field(M, f) == V


def removed_value(M1, f1, rep):
    """f1(alpha) as compose's formula reads it: the caller's value, or,
    after boundary clearing, the value of f1 resynthesized on the
    complex the clearing subdivided."""
    if not rep.boundary_clearing_steps:
        return f1[rep.alpha[len("m1:"):]]
    K1, V1, _ = surgery._prefixed(M1, induced_field(M1, f1), "m1:")
    alpha = critical_cells(V1, K1).cells[K1.top_dim][0]
    K1, V1, alpha, _ = surgery._clear_top_cell_boundary(K1, V1, alpha)
    assert alpha == rep.alpha
    return synthesize_function(K1, V1)[alpha]


def assert_formula(M1, f1, f2, composed):
    """The composed function is the paper's, f1 + C/2 on every tube cell
    and f2 + C on every glued cell, with C = max(2, f1(alpha) + 2,
    2 (f1(alpha) + 1 - m2)) and m2 the least f2 value glued; it is
    valid and induces the composed field."""
    M, f, V, rep = composed
    glued = {cid: f2[cid.removeprefix("inner:").removeprefix("m2:")]
             for cid in M.cells if not cid.startswith(("m1:", "tube:"))}
    a = removed_value(M1, f1, rep)
    C = max(2.0, a + 2.0, 2.0 * (a + 1.0 - min(glued.values())))
    assert rep.constant == C and not rep.rescaled
    for cid, val in glued.items():
        assert f[cid] == val + C
    tube = [cid for cid in M.cells if cid.startswith("tube:")]
    assert tube
    for cid in tube:
        assert f[cid] == f[cid[len("tube:"):cid.rindex(":")]] + C / 2.0
    assert rep.function_valid and rep.perfect
    assert validate_function(M, f).ok
    assert induced_field(M, f) == V


def test_compose_function_formula_constant(torus, torus_function):
    T2 = torus7()
    f2 = synthesize_function(T2, tree_cotree_field(T2))
    assert_formula(torus, torus_function, f2,
                   compose(torus, torus_function, T2, f2))


def test_compose_hostile_range_takes_the_formula(torus, torus_function):
    # an equivalent second function far below the first: C lifts the
    # glued cells above the tube, and the one assembly serves
    T2 = torus7()
    f2raw = synthesize_function(T2, tree_cotree_field(T2))
    f2 = MorseFunction({cid: v - 1000.0 for cid, v in f2raw.values.items()})
    composed = compose(torus, torus_function, T2, f2)
    assert_formula(torus, torus_function, f2, composed)
    assert composed[3].constant > 2000.0


def positive_affine(f, rng):
    """f under a seeded order-preserving affine map: scale 10^-2 to
    10^2, shift -1000 to 1000."""
    scale, shift = 10.0 ** rng.uniform(-2, 2), rng.uniform(-1000, 1000)
    return MorseFunction({cid: scale * val + shift
                          for cid, val in f.values.items()})


@pytest.mark.parametrize("seed", range(3))
def test_compose_formula_under_positive_affine_ranges(seed, sphere3,
                                                      collapse_field):
    # tori, a chain whose left summand grows, and the n = 3 pairs the
    # boundary guard lets through, each under random input ranges
    rng = random.Random(seed)
    cases = [(*seeded_torus(rng.randrange(1000)),
              *seeded_torus(rng.randrange(1000))) for _ in range(4)]
    S = sphere3()
    f = synthesize_function(S, collapse_field(S, "c0-1-2-3"))
    for alpha in sorted(c for c in S.cells if S.dim(c) == 3):
        cases.append((S, f, sphere3(),
                      synthesize_function(S, collapse_field(S, alpha))))
    for M1, f1, M2, f2 in cases:
        f1, f2 = positive_affine(f1, rng), positive_affine(f2, rng)
        assert_formula(M1, f1, f2, compose(M1, f1, M2, f2))
    K, f = seeded_torus(rng.randrange(1000))
    for _ in range(5):
        f = positive_affine(f, rng)
        T, ft = seeded_torus(rng.randrange(1000))
        ft = positive_affine(ft, rng)
        composed = compose(K, f, T, ft)
        assert_formula(K, f, ft, composed)
        K, f = composed[:2]


def test_compose_refuses_uncleared_boundaries_beyond_surfaces(
        sphere3, collapse_field):
    # S^3 under the collapse field of each removed tetrahedron: only the
    # field whose removed cell's boundary holds no critical cell of
    # dimension >= 1 and no pair composes; the others are refused by
    # the left summand's own cells
    S = sphere3()
    tops = sorted(c for c in S.cells if S.dim(c) == 3)
    fs = {t: synthesize_function(S, collapse_field(S, t)) for t in tops}
    valid = refused = 0
    for a in tops:
        for b in tops:
            try:
                M, f, V, rep = compose(S, fs[a], sphere3(), fs[b])
            except UnclearableBoundary as err:
                assert err.args and set(err.args) <= set(S.cells)
                assert len(set(err.args)) == len(err.args)
                refused += 1
                continue
            assert validate_field(M, V).ok and is_perfect(M, V)
            assert rep.perfect and induced_field(M, f) == V
            valid += 1
    assert (valid, refused) == (5, 20)


@pytest.mark.parametrize("g", range(2, 7))
def test_genus_surface_field_is_the_induced_one(g):
    K, f, V = genus_surface(g)
    assert V == induced_field(K, f)


def test_compose_checks_each_structure_once(spy):
    # inputs: one whole-complex function check each, except a chained
    # left summand, whose record from the compose that returned it
    # stands for its check; the result: one local function check per
    # assembled function; only the inputs are ranked, each once in its
    # life: a compose result has its Betti numbers cached from
    # Mayer-Vietoris, so neither it nor a chained left summand is ranked
    bettis = spy(betti_mod2)
    ranked = spy(morse_betti)
    checks = spy(_check_function)
    K, f = seeded_torus(100)
    seen = []
    for seed in range(101, 111):
        T, ft = seeded_torus(seed)
        del ranked[:], checks[:]
        left, fleft = K, f
        K, f, V, rep = compose(K, f, T, ft)
        full = [(left, fleft), (T, ft)] if seed == 101 else [(T, ft)]
        assert checks[:len(full)] == full
        local = checks[len(full):]
        assert len(local) == 1 and rep.function_valid
        for M, _, ids in local:
            assert M is K and len(set(ids)) == len(ids) < len(K.cells)
        assert [args[0] for args in ranked] == (
            [left, T] if seed == 101 else [T])
        seen.extend(args[0] for args in ranked)
    assert bettis == []
    assert len(set(map(id, seen))) == len(seen)


def chained(n):
    """The complex and function of n composes onto seeded tori."""
    K, f = seeded_torus(200)
    for seed in range(201, 201 + n):
        K, f, _, _ = compose(K, f, *seeded_torus(seed))
    return K, f


def composed_texts(K, f, V):
    return write_cwp(K), write_dvf(V, K), write_dmf(f)


def test_a_copy_of_a_composed_function_is_checked_in_full(spy):
    # the record stands only for the very function compose returned: a
    # copy is checked on every cell and composes to the same bytes
    K, f = chained(3)
    T, ft = seeded_torus(300)
    checks = spy(_check_function)
    M, g, V, rep = compose(K, f, T, ft)
    assert checks[0][0] is T
    copy = MorseFunction(dict(f.values))
    del checks[:]
    M2, g2, V2, rep2 = compose(K, copy, T, ft)
    assert checks[0][0] is K and checks[0][1] is copy and checks[1][0] is T
    assert composed_texts(M2, g2, V2) == composed_texts(M, g, V)
    assert rep2 == rep


def test_a_copy_with_two_values_swapped_is_refused():
    K, f = chained(3)
    values = dict(f.values)
    low = critical_cells(induced_field(K, f), K).cells[0][0]
    high = max(values, key=values.get)
    values[low], values[high] = values[high], values[low]
    swapped = MorseFunction(values)
    assert not validate_function(K, swapped).ok
    with pytest.raises(InvalidFunction):
        compose(K, swapped, *seeded_torus(300))


def test_a_composed_function_is_read_only():
    K, f = chained(1)
    with pytest.raises(TypeError):
        f.values[next(iter(f.values))] = 0.0
    assert f == MorseFunction(dict(f.values))


def test_a_reparsed_complex_is_checked_in_full(spy):
    K, f = chained(3)
    L = parse_cwp(write_cwp(K))
    T, ft = seeded_torus(300)
    checks = spy(_check_function)
    M, g, V, _ = compose(L, f, T, ft)
    assert checks[0][0] is L and checks[0][1] is f
    assert composed_texts(M, g, V) == composed_texts(
        *compose(K, f, T, ft)[:3])


@pytest.mark.parametrize("seed", range(3))
def test_cached_betti_of_a_compose_chain_is_the_homology(seed):
    # b(M1) + b(M2) - e_0 - e_n, cached by compose, against both rankings
    rng = random.Random(seed)
    T = torus7()
    K, f = T, synthesize_function(T, tree_cotree_field(T, rng=rng))
    for genus in range(2, 9):
        T = torus7()
        ft = synthesize_function(T, tree_cotree_field(T, rng=rng))
        K, f, V, rep = compose(K, f, T, ft)
        assert K._betti == betti_mod2(K) == morse_betti(K, V)
        assert K._betti.b == (1, 2 * genus, 1) and rep.perfect


@pytest.mark.parametrize("seed", range(3))
def test_compose_hands_on_the_pseudomanifold_flag(seed, sphere3,
                                                  collapse_field):
    # a connected sum of closed pseudomanifolds is one: the flag compose
    # sets against a scan of a complex built from scratch, along a
    # seeded chain to genus 8 and an n = 3 chain
    rng = random.Random(seed)
    T = torus7()
    K, f = T, synthesize_function(T, tree_cotree_field(T, rng=rng))
    chain = []
    for genus in range(2, 9):
        T = torus7()
        ft = synthesize_function(T, tree_cotree_field(T, rng=rng))
        K, f, V, rep = compose(K, f, T, ft)
        chain.append(K)
    S = sphere3()
    fs = synthesize_function(S, collapse_field(S, "c0-1-2-3"))
    M, fc = S, fs
    for _ in range(2):
        M, fc, Vc, rep = compose(M, fc, sphere3(), fs)
        chain.append(M)
    for M in chain:
        assert vars(M)["is_pseudomanifold"] is True
        assert Complex(M.cells.values()).is_pseudomanifold


def test_cached_betti_in_dimension_three(sphere3, collapse_field):
    # chains of n = 3 composes, each with second summands unshifted or
    # shifted far below the first
    S = sphere3()
    f = synthesize_function(S, collapse_field(S, "c0-1-2-3"))
    shifted = MorseFunction({cid: v - 1000.0 for cid, v in f.values.items()})
    for f2 in (f, shifted):
        M, fc = S, f
        for _ in range(3):
            M, fc, Vc, rep = compose(M, fc, sphere3(), f2)
            assert M._betti == betti_mod2(M) == morse_betti(M, Vc)
            assert M._betti.b == (1, 0, 0, 1) and rep.perfect
            assert rep.function_valid and not rep.rescaled


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


def test_compose_rejects_a_disconnected_summand(tetra):
    # two disjoint tetrahedra with a perfect field: two critical vertices
    def shifted(cid, k):
        return cid[0] + "-".join(str(int(i) + k) for i in cid[1:].split("-"))

    D = build_simplicial([(a + k, b + k, c + k) for k in (0, 4)
                          for a, b, c in combinations(range(4), 3)])
    W = VectorField([(shifted(a, k), shifted(b, k)) for k in (0, 4)
                     for a, b in tree_cotree_field(tetra).pairs()])
    assert is_perfect(D, W) and critical_cells(W, D).m == (2, 0, 2)
    fD = synthesize_function(D, W)
    ft = synthesize_function(tetra, tree_cotree_field(tetra))
    for args in ((D, fD, tetra, ft), (tetra, ft, D, fD)):
        with pytest.raises(Disconnected, match="critical vertices v0, v4"):
            compose(*args)


def test_compose_dimension_three(sphere3, collapse_field):
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


def test_glued_results_match_a_full_rebuild(assert_same_complex, sphere3,
                                           collapse_field):
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


def test_compose_builds_no_complex_from_scratch(monkeypatch, sphere3,
                                                collapse_field):
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


def sequential_split_smallest_edges(K, t, k):
    """The loop _split_smallest_edges replaced: split the smallest edge
    of 2-cell t from its smaller endpoint, one edit per split, until t
    has k edges."""
    while len(K.boundary(t)) < k:
        K, _, _ = bisect_edge(K, VectorField(), min(K.boundary(t)))
    return K


@pytest.mark.parametrize("k", [3, 4, 5, 8, 13])
def test_one_edit_equalisation_matches_the_sequential_splits(
        k, assert_same_complex):
    T = torus7()
    ic = shrink_closed_star(T, "t0-1-3", "v0")
    for K, t in ((T, "t0-1-3"), (ic.complex, ic.beta_prime)):
        assert K.is_closed_surface  # computed, so both hand it on
        one = surgery._split_smallest_edges(K, t, k)
        seq = sequential_split_smallest_edges(K, t, k)
        assert_same_complex(one, seq)
        assert_same_complex(one, Complex(one.cells.values()))
        assert len(one.boundary(t)) == max(k, 3)
        for flag in ("is_pseudomanifold", "_surface_info"):
            assert flag in one.__dict__ and flag in seq.__dict__
            assert one.__dict__[flag] == seq.__dict__[flag]


def test_edits_per_compose_do_not_grow_with_the_genus(monkeypatch):
    # two edits per clearing step, one per corner cut for beta, and the
    # shrink, the equalisation and the glue once each, while the glued
    # cycle grows with the genus; the one-by-one splits took an edit for
    # each of its sides past three
    edit = Complex.replace_cells
    edits = []

    def counted(self, *args, **kwargs):
        edits.append(self)
        return edit(self, *args, **kwargs)

    monkeypatch.setattr(Complex, "replace_cells", counted)
    K, f = seeded_torus(200)
    cycles, counts = [], []
    for seed in range(201, 210):
        T, ft = seeded_torus(seed)
        del edits[:]
        K, f, V, rep = compose(K, f, T, ft)
        equalised = rep.glue_cycle_length > 3
        assert len(edits) == (2 * rep.boundary_clearing_steps
                              + ("~b" in rep.beta) + 2 + equalised)
        cycles.append(rep.glue_cycle_length)
        counts.append(len(edits))
    assert verify_closed_surface(K).genus == 10
    assert cycles == sorted(cycles) and cycles[-1] > 10
    assert len(set(counts[1:])) == 1
