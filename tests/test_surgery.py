import hashlib
import random
from itertools import combinations, product

import pytest

from dms import surgery
from dms.cellcomplex import Complex, build_poset, build_simplicial, \
    euler_characteristic, verify_closed_surface
from dms.errors import (
    BadCellBoundary,
    BadChord,
    DimensionMismatch,
    Disconnected,
    InconsistentField,
    InexactFunction,
    InseparableCriticals,
    InvalidFunction,
    NonPseudomanifold,
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
from dms.surgery import build_prism_over_boundary, compose

from conftest import INSEPARABLE_SEEDS, ComposeSides, critical_ids, \
    drafted, frozen_surface, ordered_function, separated


def seeded_torus(seed):
    T = torus7()
    return T, synthesize_function(T, tree_cotree_field(
        T, rng=random.Random(seed)))


def field_state(K, V):
    rep = validate_field(K, V)
    return rep.ok, critical_cells(V, K).m


def assert_scanned_criticals(M, f, V, rep):
    """compose read its critical cells off the cells it touched; the
    report's counts and its record on M are what a scan of M finds."""
    crit = critical_cells(V, M)
    assert rep.counts == crit.m
    assert M._composed[0] is f and M._composed[1] is V
    assert M._composed[2] == crit


def test_bisect_requires_edge(torus, torus_field):
    K, V = torus._draft(), torus_field._draft()
    with pytest.raises(NotAnEdge):
        surgery._bisect_edge(K, V, "v0", None, {})
    with pytest.raises(NotA2Cell):
        surgery._bisect_2cell(K, V, "e0-1", "v0", "v1", {})


def test_bisect_critical_edge(torus, torus_field):
    crit = critical_cells(torus_field, torus).cells[1][0]
    K2, V2, rec = drafted(surgery._bisect_edge, torus, torus_field, crit,
                          None)
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
    K2, V2, rec = drafted(surgery._bisect_edge, torus, torus_field, e, None)
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
        K2, V2, rec = drafted(surgery._bisect_edge, torus, torus_field, e,
                              None)
        ok, m = field_state(K2, V2)
        assert ok and m == m0, e
        assert K2.is_closed_surface


def test_bisect_2cell_critical_and_mirror(torus, torus_field):
    # make a quad first; then the chord splits it
    K, V, rec = drafted(surgery._bisect_edge, torus, torus_field, "e0-1",
                        None)
    w = rec.new_cells[0]
    quad = [t for t in K.cells_of_dim(2) if rec.new_cells[1] in K.boundary(t)][0]
    verts = list(K.boundary_cycle(quad)[0::2])
    far = [v for v in verts if v != w
           and not any(K.boundary(e) == frozenset({v, w})
                       for e in K.boundary(quad))][0]
    K2, V2, rec2 = drafted(surgery._bisect_2cell, K, V, quad, w, far)
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
    K, V = torus._draft(), torus_field._draft()
    with pytest.raises(BadChord):
        surgery._bisect_2cell(K, V, t, verts[0], verts[1], {})
    with pytest.raises(BadChord):
        surgery._bisect_2cell(K, V, t, verts[0], verts[0], {})


def polygon_pillow(k):
    """Sphere made of two k-gons A and B glued along one k-cycle."""
    records = [("h%d" % i, 0, []) for i in range(k)]
    records += [("g%d" % i, 1, ["h%d" % i, "h%d" % ((i + 1) % k)])
                for i in range(k)]
    edges = ["g%d" % i for i in range(k)]
    return build_poset(records + [("A", 2, edges), ("B", 2, edges)])


def test_bisect_2cell_of_a_facet_paired_with_a_3cell(sphere3, collapse_field):
    # the piece c~b1 takes over the pairing with the 3-cell and the
    # chord is paired with c~b2; the triangle first gains a side, so
    # that a chord exists
    S = sphere3()
    V = collapse_field(S, sorted(S.cells_of_dim(3))[0])
    pm = V.partner_map()
    t = next(t for t in sorted(S.cells_of_dim(2))
             if t in pm and S.dim(pm[t]) == 3)
    K, W, rec = drafted(surgery._bisect_edge, S, V, sorted(S.boundary(t))[0],
                        None)
    w = rec.new_cells[0]
    verts = K.boundary_cycle(t)[0::2]
    K2, W2, rec2 = drafted(surgery._bisect_2cell, K, W, t, w,
                           verts[(verts.index(w) + 2) % 4])
    d, c1, c2 = rec2.new_cells
    assert rec2.replacements == {t: c1}
    pm2 = W2.partner_map()
    assert pm2[c1] == pm[t] and pm2[d] == c2
    assert field_state(K2, W2) == field_state(S, V) == (True, (1, 0, 0, 1))


def test_inheriting_arc_is_the_boundary_bisect_2cell_gives_b1():
    K = polygon_pillow(6)
    verts = K.cells_of_dim(0)
    chords = [(u, w) for u in verts for w in verts if u != w
              and {u, w} not in [K.boundary(e) for e in K.cells_of_dim(1)]]
    assert len(chords) == 18  # 9 chords, both argument orders
    for u, w in chords:
        arc = surgery._inheriting_arc(K, "A", u, w)
        # a walk from u along the boundary that stops just short of w
        ends = list(arc[0::2]) + [w]
        assert len(set(ends)) == len(ends)
        for i, e in enumerate(arc[1::2]):
            assert K.boundary(e) == {ends[i], ends[i + 1]}
        K2, _, _ = drafted(surgery._bisect_2cell, K, VectorField(), "A", u, w)
        assert set(arc[1::2]) == K2.boundary("A~b1") - {"A~b0"}


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
            K, V, _ = drafted(surgery._bisect_edge, K, V, e, None)
        else:
            t = rng.choice(K.cells_of_dim(2))
            cyc = K.boundary_cycle(t)
            verts = list(cyc[0::2])
            edges = set(cyc[1::2])
            legal = [(u, w) for u, w in combinations(verts, 2)
                     if not any(K.boundary(e) == frozenset({u, w})
                                for e in edges)]
            if not legal:
                K, V, _ = drafted(surgery._bisect_edge, K, V,
                                  rng.choice(sorted(edges)), None)
            else:
                u, w = rng.choice(legal)
                K, V, _ = drafted(surgery._bisect_2cell, K, V, t, u, w)
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
    K, V, rec = drafted(surgery._bisect_edge, torus, torus_field, "e0-1",
                        None)
    quad = K.cofaces(rec.new_cells[1])[0]
    verts = K.boundary_cycle(quad)[0::2]
    i = verts.index(rec.new_cells[0])
    drafted(surgery._bisect_2cell, K, V, quad, verts[i], verts[(i + 2) % 4])


def test_every_edit_matches_a_full_rebuild(monkeypatch, rebuild,
                                           assert_same_complex):
    # each in-place edit in a compose chain and in decompose, under the
    # seeds of test_golden.py, against the same edit done from scratch on
    # the complex as it was before the edit
    edit = Complex._edit
    calls = []

    def checked(K, remove=(), add=()):
        remove, add = list(remove), list(add)
        before = Complex._draft(K)
        edit(K, remove, add)
        assert_same_complex(K, rebuild(before, remove, add))
        calls.append(len(K.cells))

    monkeypatch.setattr(Complex, "_edit", checked)
    K, f = seeded_torus(100)
    for seed in (101, 102, 103, 104):
        T, ft = seeded_torus(seed)
        K, f, _, _ = compose(K, f, T, ft)
    assert verify_closed_surface(K).genus == 5
    composing = len(calls)
    K = frozen_surface(4)
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
    # each in-place cell split in decompose, under the seeds of
    # test_golden.py, and in a compose chain: the flags the split complex
    # keeps equal a rebuild's
    split = Complex._split_cell
    carried = []

    def checked(K, old, new_cells, halves):
        split(K, old, new_cells, halves)
        flags = {k: v for k, v in vars(K).items()
                 if k in ("is_pseudomanifold", "_surface_info")}
        R = Complex(K.cells.values())
        for name, value in flags.items():
            assert getattr(R, name) == value, (old, name)
        carried.append(sorted(flags))

    K = frozen_surface(4)
    monkeypatch.setattr(Complex, "_split_cell", checked)
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
    # field's, the carried stars and closures are the complex's, the
    # crowded stars with their holders are the closure scan's witnesses,
    # and the witness the loop reads is the least of them by (dim, id)
    found = []

    def check(index, K, V):
        crits = critical_ids(V, K)
        assert sorted(index.stars.of) == sorted(index.closures.of) == crits
        for c in crits:
            assert index.stars.of[c] == K.star(c)
            assert index.closures.of[c] == K.closure(c)
        out = sorted((x, sorted(index.stars.held[x]))
                     for x in index.stars.crowded)
        assert out == closure_scan(K, crits)
        least = min(out, key=lambda w: (K.dim(w[0]), w[0]), default=None)
        assert index.witness(K) == least
        found.append(len(out))

    each_separation_step(check)
    for g in (2, 3, 4):
        K = genus_surface(g)[0]
        for seed in range(4):
            separated(K, tree_cotree_field(K, rng=random.Random(seed)))
    # random fields put a vertex and an edge or polygon in one crowded
    # set, where the least by (dim, id) is not the least by id
    K = genus_surface(2)[0]
    for seed in range(2):
        separated(K, random_valid_field(K, seed))
    assert len(found) > 12 and any(found)


def test_separate_critical_cells_identity(torus, torus_field):
    crits = critical_ids(torus_field, torus)
    clash = any(len(set(crits) & torus.closure(c)) >= 2
                for c in torus.cells)
    K, V, recs = separated(torus, torus_field)
    if not clash:
        assert not recs and K == torus


def test_separation_budget_is_fixed_on_entry(monkeypatch):
    # on this field the corner cut between critical triangles that meet
    # in a vertex never ends the loop; the step budget must not grow with
    # the cells each bisection adds
    K = tetrahedron()
    V = random_valid_field(K, 37)
    made = []
    # the loop bisects its own drafts in place
    for name in ("_bisect_edge", "_bisect_2cell"):
        def counted(*args, _fn=getattr(surgery, name), **kwargs):
            made.append(args[2])
            assert len(made) <= 1000, "bisection budget exceeded"
            out = _fn(*args, **kwargs)
            last[:] = args[:2]
            return out
        monkeypatch.setattr(surgery, name, counted)
    last = []
    with pytest.raises(InseparableCriticals) as err:
        separated(K, V)
    assert len(made) == 100 + 10 * len(K.cells)
    # the refusal names two critical polygons of the last complex whose
    # closures meet
    K2, V2 = last
    a, b = err.value.args
    assert {a, b} <= set(critical_ids(V2, K2))
    assert K2.dim(a) == K2.dim(b) == 2 and K2.closure(a) & K2.closure(b)


def test_separation_refuses_only_the_known_fields():
    # every case carries the function synthesized for its field, which
    # each step patches
    refused = set()
    for name, K in (("tetrahedron", tetrahedron()), ("torus7", torus7()),
                    ("genus2", frozen_surface(2))):
        for seed in range(40):
            V = random_valid_field(K, seed)
            K2, V2 = K._draft(), V._draft()
            values = dict(synthesize_function(K, V).values)
            try:
                surgery._separate_critical_cells(
                    K2, V2, critical_ids(V, K), values)
            except InseparableCriticals:
                refused.add((name, seed))
                continue
            # never the internal InconsistentField; a separation keeps
            # the critical counts
            assert critical_cells(V2, K2).m == critical_cells(V, K).m
            # the patched values are a Morse function on the separated
            # complex, one value per cell, inducing the separated field
            f2 = MorseFunction(values)
            assert values.keys() == K2.cells.keys()
            assert _check_function(K2, f2)[0].ok
            assert induced_field(K2, f2) == V2
    assert refused <= INSEPARABLE_SEEDS


def test_one_critical_scan_per_separation(spy):
    # the loop is handed its critical cells and carries them from step to
    # step, so however many steps it takes it never lists them itself
    scans = spy(critical_cells)
    steps = []
    for g in (2, 3, 4, 5, 6):
        K = genus_surface(g)[0]
        for seed in range(3):
            V = tree_cotree_field(K, rng=random.Random(seed))
            K2, V2 = K._draft(), V._draft()
            crit = critical_ids(V, K)
            values = dict(synthesize_function(K, V).values)
            del scans[:]
            surgery._separate_critical_cells(K2, V2, crit, values)
            assert not scans
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
    K2, V2, recs = separated(K, V)
    assert recs
    assert validate_field(K2, V2).ok
    assert critical_cells(V2, K2).m == (1, 2, 1)
    crits2 = critical_ids(V2, K2)
    # no cell closure holds two critical cells, and the closed star of
    # one critical cell never contains another
    for cid in K2.cells:
        assert len(set(crits2) & K2.closure(cid)) <= 1
    for i, c1 in enumerate(crits2):
        assert not (K2.closure(c1) & set(crits2) - {c1})
        for c2 in crits2[i + 1:]:
            assert not (K2.closure(c1) & K2.closure(c2))
            assert not any(c2 in K2.closure(x) for x in K2.star(c1))


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
    ic = surgery._shrink_closed_star(K._draft(), "t0-1-2", "v0")
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
        surgery._shrink_closed_star(build_simplicial(
            [(0, 1, 2), (0, 1, 3)], closed=False), "t0-1-2", "v3")


def test_shrink_closed_star_refuses_a_lower_cell_and_a_polygon(
        pillow_sphere):
    K = build_simplicial([(0, 1, 2)], closed=False)
    with pytest.raises(NotTopCell):
        surgery._shrink_closed_star(K._draft(), "e0-1", "v0")
    with pytest.raises(BadCellBoundary,
                       match="shrink needs a simplicial cell; 'sqA'"):
        surgery._shrink_closed_star(pillow_sphere._draft(), "sqA", "p0")


def test_shrink_preserves_face_relation():
    from dms.cellcomplex import build_simplicial
    cases = [(build_simplicial([(0, 1, 2)], closed=False), "t0-1-2", "v0"),
             (solid_tetrahedron(), "s0-1-2-3", "s0")]
    for K, beta, v in cases:
        ic = surgery._shrink_closed_star(K._draft(), beta, v)
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
    K2 = surgery._shrink_closed_star(K._draft(), beta,
                                     K.vertices_of(beta)[0]).complex
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
    assert_scanned_criticals(M, f, V, rep)
    assert rep.chi == -2
    assert rep.counts == (1, 4, 1)
    assert rep.perfect
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
    assert_scanned_criticals(M, f, V, rep)
    assert rep.counts == (1, 0, 1)
    assert rep.chi == 2
    assert rep.perfect
    assert is_perfect(M, V)
    assert verify_closed_surface(M).genus == 0


def test_compose_cuts_a_corner_for_beta(torus, torus_function,
                                        pillow_sphere):
    # the pillow has no triangle: compose cuts one off a square's corner
    # at the critical vertex and patches the second function
    g = synthesize_function(pillow_sphere, tree_cotree_field(pillow_sphere))
    M, f, V, rep = compose(torus, torus_function, pillow_sphere, g)
    assert_scanned_criticals(M, f, V, rep)
    assert "~b" in rep.beta
    assert verify_closed_surface(M).genus == 1
    assert validate_field(M, V).ok and is_perfect(M, V) and rep.perfect
    assert validate_function(M, f).ok and induced_field(M, f) == V


def test_beta_falls_back_to_the_first_non_critical_triangle(
        torus, torus_function):
    # each triangle of the tetrahedron at v0 shares an edge there with
    # the critical t0-1-2, so no beta avoids it: compose takes the first
    # non-critical triangle, and writes the bytes it wrote before it
    # preferred a beta off the critical triangle
    S = tetrahedron()
    V = tree_cotree_field(S)
    assert critical_ids(V, S) == ["t0-1-2", "v0"]
    M, f, W, rep = compose(torus, torus_function, S,
                           synthesize_function(S, V))
    assert rep.beta == "m2:t0-1-3"
    h = hashlib.sha256()
    for text in (write_cwp(M), write_dvf(W, M), write_dmf(f)):
        h.update(text.encode("utf-8") + b"\0")
    assert h.hexdigest() == (
        "177e92a4893458d6fe259474738eb56e1f982e44af6693e5e0c49c90d79cbdc4")


def test_a_chain_of_tori_gains_the_same_cells_every_link():
    # each beta's edges at v2 miss the torus's critical triangle, so every
    # alpha is a triangle and each link adds the same 60 cells
    K, f, _ = genus_surface(1)
    T = torus7()
    ft = synthesize_function(T, tree_cotree_field(T))
    for g in range(2, 41):
        K, f, _, _ = compose(K, f, torus7(), ft)
        assert len(K.cells) == 60 * g - 18, g
    # genus_surface(g) is this chain
    assert K == genus_surface(40)[0]
    for g in (2, 3, 8):
        assert len(genus_surface(g)[0].cells) == 60 * g - 18


@pytest.mark.parametrize("n", [3, 4, 5])
def test_compose_keeps_f2_through_a_beta_cut(n, grid_torus, torus,
                                             torus_function, genus3):
    # no triangle lies on the grid torus, so every compose onto it cuts
    # beta; the cut patches f2, which every other right cell keeps
    G = grid_torus(n)
    for seed in range(12):
        f2 = synthesize_function(G, tree_cotree_field(G, random.Random(seed)))
        for K, f1 in ((torus, torus_function), genus3[:2]):
            sides = ComposeSides(K)
            M, f, V, rep = compose(K, f1, G, f2)
            assert "~b" in rep.beta
            assert validate_function(M, f).ok and induced_field(M, f) == V
            for cid in G.cells:
                if sides.right(cid) in M.cells:
                    assert f[sides.right(cid)] == f2[cid] + rep.constant


def test_a_beta_cut_raises_the_heir_below_a_chord_end(
        grid_torus, random_root_field, torus, torus_function):
    # a vertex of the cut square may lie above it: paired with one of its
    # edges there, the square paired with the other; the heir of the
    # square then rises between the chord and the square's partner
    above = 0
    for n in (3, 4):
        G = grid_torus(n)
        for seed in range(8):
            V2 = random_root_field(G, seed)
            v2, = critical_cells(V2, G).cells[0]
            t = min(t for t in G.star(v2) if G.dim(t) == 2)
            verts = G.boundary_cycle(t)[0::2]
            i = verts.index(v2)
            ends = {verts[i - 1], verts[(i + 1) % 4]}
            f2 = ordered_function(G, V2, {t}, ends)
            above += max(f2[u] for u in ends) > f2[t]
            M, f, V, rep = compose(torus, torus_function, G, f2)
            assert validate_function(M, f).ok and induced_field(M, f) == V
    assert above


def cleared_left(M1, f1):
    """The first summand as compose clears it: the complex and field
    under compose's names after _clear_top_cell_boundary, the heir of
    the critical top cell, the steps, the patched values and the
    caller's values under those names, and the cells the patch
    touched."""
    K1, V1, name = surgery._prefixed(M1, induced_field(M1, f1),
                                     ComposeSides(M1).names.left)
    alpha = critical_cells(V1, K1).cells[K1.top_dim][0]
    caller = {name[cid]: val for cid, val in f1.values.items()
              if cid in name}
    values = dict(caller)
    heir, steps, touched = surgery._clear_top_cell_boundary(
        K1, V1, alpha, values)
    return K1, V1, alpha, heir, steps, values, caller, touched


def removed_value(M1, f1, rep):
    """f1(alpha) as compose's formula reads it: the caller's value at
    the critical top cell, which its heir keeps through the boundary
    clearing."""
    _, _, alpha, heir, steps, values, caller, _ = cleared_left(M1, f1)
    assert heir == rep.alpha and steps == rep.boundary_clearing_steps
    assert values[heir] == caller[alpha]
    return caller[alpha]


def assert_formula(M1, f1, f2, composed):
    """The composed function is the paper's, f1 + C/2 on every tube cell
    and f2 + C on every glued cell, with C = max(2, f1(alpha) + 2,
    2 (f1(alpha) + 1 - m2)) and m2 the least f2 value glued; it is
    valid and induces the composed field."""
    M, f, V, rep = composed
    sides = ComposeSides(M1)
    glued = {cid: f2[sides.right_source(cid)]
             for cid in M.cells if sides.side(cid) == "right"}
    a = removed_value(M1, f1, rep)
    C = max(2.0, a + 2.0, 2.0 * (a + 1.0 - min(glued.values())))
    assert rep.constant == C and not rep.rescaled
    for cid, val in glued.items():
        assert f[cid] == val + C
    tube = [cid for cid in M.cells if sides.side(cid) == "tube"]
    assert tube
    for cid in tube:
        assert f[cid] == f[sides.tube_base(cid)] + C / 2.0
    assert rep.perfect
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


@pytest.mark.parametrize("seed", range(8))
def test_compose_patches_f1_on_random_chains(seed, random_root_field):
    # chains of tori and tetrahedra under tree-cotree and random-root
    # fields and random input ranges, each link handed on as returned
    # or re-ranged: the patched first summand always gives a valid
    # function inducing the composed field, and a perfect one
    rng = random.Random(seed)

    def summand():
        K = rng.choice((torus7, tetrahedron))()
        if rng.random() < 0.5:
            V = tree_cotree_field(K, rng=rng)
        else:
            V = random_root_field(K, rng.randrange(10 ** 6))
        return K, positive_affine(synthesize_function(K, V), rng)

    cleared = 0
    for _ in range(6):
        K, f = summand()
        for _ in range(5):
            K, f, V, rep = compose(K, f, *summand())
            assert validate_function(K, f).ok
            assert induced_field(K, f) == V
            assert rep.perfect
            assert_scanned_criticals(K, f, V, rep)
            cleared += rep.boundary_clearing_steps > 0
            if rng.random() < 0.5:
                f = positive_affine(f, rng)
    assert cleared


@pytest.mark.parametrize("seed", range(4))
def test_clearing_keeps_the_values_it_leaves_alone(seed, random_root_field,
                                                   spy):
    # the clearing patches the caller's f1 only on the cells it makes:
    # every other cell keeps its value, the heir of alpha keeps
    # f1(alpha), the patched function is valid and induces the cleared
    # field, and compose checks every cell the patch touched
    rng = random.Random(seed)
    M1, f1 = seeded_torus(rng.randrange(1000))
    for _ in range(5):  # a chain until its first summand needs clearing
        T = torus7()
        ft = synthesize_function(T, random_root_field(T, rng.randrange(1000)))
        M1, f1 = compose(M1, positive_affine(f1, rng), T, ft)[:2]
        K1, V1, alpha, heir, steps, values, caller, touched = \
            cleared_left(M1, f1)
        if steps:
            break
    assert steps
    assert values.keys() == K1.cells.keys()
    assert all(values[cid] == val for cid, val in caller.items()
               if cid in K1.cells)
    assert values[heir] == caller[alpha]
    g = MorseFunction(values)
    assert validate_function(K1, g).ok and induced_field(K1, g) == V1
    made = values.keys() - caller.keys()
    assert made - {heir} <= touched and heir not in touched

    T, ft = seeded_torus(rng.randrange(1000))
    checks = spy(_check_function)
    M, f, V, rep = compose(M1, f1, T, ft)
    assert rep.boundary_clearing_steps == steps
    # the summands' full checks pass no ids; compose's local one does
    (_, _, checked), = [args for args in checks if len(args) == 3]
    assert touched <= set(checked)
    sides = ComposeSides(M1)
    for cid in M1.cells:
        if sides.left(cid) in M.cells:
            assert f[sides.left(cid)] == f1[cid]


def test_compose_synthesizes_nothing(spy, torus, torus_function,
                                     pillow_sphere):
    # f1 is patched, never resynthesized, and so is f2 when beta is cut
    # off a corner of the second summand
    rights = [seeded_torus(seed) for seed in range(4)]
    g = synthesize_function(pillow_sphere, tree_cotree_field(pillow_sphere))
    syntheses = spy(synthesize_function)
    K, f = torus, torus_function
    for T, ft in rights:
        K, f, _, rep = compose(K, f, T, ft)
        assert rep.boundary_clearing_steps and "~b" not in rep.beta
    rep = compose(K, f, pillow_sphere, g)[3]
    assert "~b" in rep.beta
    assert syntheses == []


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


def boundary_of_4cube():
    """The boundary of the 4-cube: cell q<x> for each string x over 01*
    of length 4 but ****, its dimension the number of stars, its facets
    the strings with one star set to 0 or to 1."""
    records = []
    for x in product("01*", repeat=4):
        if x.count("*") < 4:
            facets = [x[:i] + (b,) + x[i + 1:]
                      for i, c in enumerate(x) if c == "*" for b in "01"]
            records.append(("q" + "".join(x), x.count("*"),
                            ["q" + "".join(y) for y in facets]))
    return build_poset(records)


def test_compose_refuses_a_non_simplicial_alpha_beyond_surfaces(
        sphere3, collapse_field):
    # the left summand's critical cube clears the boundary check, and
    # only a simplex glues to the shrunken beta
    Q = boundary_of_4cube()
    assert [len(Q.cells_of_dim(k)) for k in range(4)] == [16, 32, 24, 8]
    fq = synthesize_function(Q, collapse_field(Q, "q***0"))
    S = sphere3()
    for alpha in ("c0-1-2-3", "c1-2-3-4"):
        fs = synthesize_function(S, collapse_field(S, alpha))
        with pytest.raises(BadCellBoundary, match="'q\\*\\*\\*0'"):
            compose(Q, fq, S, fs)


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
        assert len(local) == 1
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_a_value_that_is_not_finite_is_refused_by_its_cell(bad):
    # nan compares false with everything, so validate_function passed it
    # and compose or decompose ended in an internal InconsistentField
    # (-inf: InexactFunction); the whole-function check names the cell
    T = torus7()
    g = synthesize_function(T, tree_cotree_field(T))
    f = MorseFunction({**g.values, "v0": bad, "v1": bad})
    K, h, _ = genus_surface(2)
    fk = MorseFunction({**h.values, "m1:v0": bad})
    for call, cell in ((lambda: validate_function(T, f), "v0"),
                       (lambda: compose(T, g, T, f), "v0"),
                       (lambda: compose(T, f, T, g), "v0"),
                       (lambda: decompose(K, fk, 1, 1), "m1:v0")):
        with pytest.raises(InvalidFunction,
                           match=r"of cell %s is not finite" % cell):
            call()


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


def test_a_chained_left_keeps_its_ids():
    # compose names only the second summand's cells and its own: every
    # cell of a left it made survives under its own id, but alpha and
    # the edges the clearing bisected
    K, f = chained(2)
    M, g, V, rep = compose(K, f, *seeded_torus(300))
    gone = K.cells.keys() - M.cells.keys()
    assert len(gone) == 1 + rep.boundary_clearing_steps
    assert all(g[cid] == f[cid] for cid in K.cells.keys() - gone)
    # the new cells sort below and above every id of the left, as the
    # collar and the rest of a first link's cells do around `m1:`
    low, high = min(K.cells), max(K.cells)
    new = sorted(M.cells.keys() - K.cells.keys())
    inner = [cid for cid in new if cid < low]
    assert inner and all(cid.startswith("hz6:") for cid in inner)
    assert all(cid > high for cid in new[len(inner):] if "~b" not in cid)


def test_a_left_compose_did_not_name_is_prefixed_once():
    # a raw torus7, a composed surface renamed below `cone:` and a
    # decompose piece, whose smallest id is `cone:apex`: each is renamed
    # `m1:` as on a first link, and the new cells take a first link's
    # names
    K, f = chained(1)
    below = K.prefixed("b:")
    fb = MorseFunction({"b:" + cid: val for cid, val in f.values.items()})
    res = decompose(*genus_surface(4)[:2], 2, 2)
    lefts = [seeded_torus(400), (below, fb),
             (res.m1_complex, res.m1_function)]
    assert min(below.cells) < "cone:" == min(res.m1_complex.cells)[:5]
    for M1, f1 in lefts:
        M, g, V, rep = compose(M1, f1, *seeded_torus(401))
        assert all(cid.startswith(("m1:", "m2:", "inner:m2:", "tube:m1:"))
                   for cid in M.cells)
        gone = {"m1:" + cid for cid in M1.cells} - M.cells.keys()
        assert len(gone) == 1 + rep.boundary_clearing_steps
        assert validate_function(M, g).ok and induced_field(M, g) == V


def test_a_chained_left_held_by_the_caller_is_unchanged():
    # compose edits a draft of the left it keeps the ids of, never the
    # left itself: its cells, coface table, walks, values and record
    K, f = chained(3)
    record = K._composed
    _, V, counts = record

    def held():
        return (dict(K.cells), dict(K.coface_table), dict(K._cycles),
                dict(f.values), V.pairs(), dict(V.partner_map()), counts)

    before = held()
    M, g, W, _ = compose(K, f, *seeded_torus(300))
    assert K._composed is record and held() == before
    assert M is not K and W is not V
    assert M.cells.keys() & K.cells.keys()


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
        assert_scanned_criticals(K, f, V, rep)
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
            assert_scanned_criticals(M, fc, Vc, rep)
            assert M._betti == betti_mod2(M) == morse_betti(M, Vc)
            assert M._betti.b == (1, 0, 0, 1) and rep.perfect
            assert validate_function(M, fc).ok and not rep.rescaled


def test_compose_scans_no_result_for_its_critical_cells(spy):
    # a chained link finds the critical cells of its result among the
    # cells it touched: the only scan is of the fresh right summand
    scans = spy(critical_cells)
    K, f = seeded_torus(100)
    for seed in range(101, 106):
        T, ft = seeded_torus(seed)
        del scans[:]
        left = K
        K, f, V, rep = compose(K, f, T, ft)
        assert [args[1] for args in scans] == (
            [left, T] if seed == 101 else [T])
        assert_scanned_criticals(K, f, V, rep)


def test_a_chained_compose_reads_no_pair_list_of_its_result(monkeypatch):
    # the result's function is checked against V through the partner map
    # over the touched cells: no link reads a whole pair list
    def refuse(self):
        raise AssertionError("a whole pair list was read")

    K, f = chained(1)
    rights = [seeded_torus(seed) for seed in range(300, 303)]
    monkeypatch.setattr(VectorField, "pairs", refuse)
    for T, ft in rights:
        K, f, V, rep = compose(K, f, T, ft)
        assert rep.perfect
        assert_scanned_criticals(K, f, V, rep)


def test_compose_clears_critical_edges_off_alpha(depth_first_cotree_field):
    # a depth-first dual tree can leave critical edges on its critical
    # triangle, which a breadth-first one never does: as the left
    # summand, the clearing bisects each off alpha's boundary, and as
    # either summand the result is a perfect genus-2 surface
    cleared = 0
    for seed in range(12):
        T = torus7()
        W = depth_first_cotree_field(T, seed)
        assert validate_field(T, W).ok and is_perfect(T, W)
        crit = critical_cells(W, T)
        alpha = crit.cells[2][0]
        on_alpha = [e for e in crit.cells[1] if e in T.boundary(alpha)]
        assert set(on_alpha) <= set(surgery._boundary_offenders(T, W, alpha))
        g = synthesize_function(T, W)
        left = compose(T, g, *seeded_torus(seed))
        right = compose(*seeded_torus(seed), T, g)
        for M, f, V, rep in (left, right):
            assert validate_field(M, V).ok and induced_field(M, f) == V
            assert rep.perfect and verify_closed_surface(M).genus == 2
            assert critical_cells(V, M).m == betti_mod2(M).b == (1, 4, 1)
            assert_scanned_criticals(M, f, V, rep)
        assert left[3].boundary_clearing_steps >= len(on_alpha)
        cleared += bool(on_alpha)
    assert cleared >= 4


def test_a_chained_left_drops_its_values_off_the_complex():
    # a left summand whose function holds a value for an id that is no
    # cell of it composes as the function without that value does
    K, f = chained(2)
    T, ft = seeded_torus(300)
    extra = MorseFunction({**f.values, "zz:off": 0.5})
    M, g, V, rep = compose(K, extra, T, ft)
    assert g.values.keys() == M.cells.keys()
    M2, g2, V2, rep2 = compose(K, MorseFunction(dict(f.values)), T, ft)
    assert composed_texts(M, g, V) == composed_texts(M2, g2, V2)
    assert rep == rep2


def test_compose_refuses_counts_that_drifted(torus, torus_function):
    # chi is read off the counts a complex keeps through its edits; a
    # count that disagrees with the inputs' critical cells is refused
    K = torus._draft()
    K._counts = (7, 21, 15)
    with pytest.raises(InconsistentField, match="Euler characteristic"):
        compose(K, torus_function, *seeded_torus(100))


def test_compose_rejects_imperfect(torus):
    from dms.morsefield import MorseFunction
    f = MorseFunction({cid: float(c.dim) for cid, c in torus.cells.items()})
    with pytest.raises(NotPerfectInput):
        compose(torus, f, torus, f)


def test_compose_rejects_a_summand_that_is_no_closed_pseudomanifold(
        torus, torus_function):
    disk = build_simplicial([(0, 1, 2), (0, 2, 3)], closed=False)
    fd = MorseFunction({cid: float(c.dim) for cid, c in disk.cells.items()})
    for args in ((disk, fd, torus, torus_function),
                 (torus, torus_function, disk, fd)):
        with pytest.raises(NonPseudomanifold):
            compose(*args)


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
    assert_scanned_criticals(M, fc, Vc, rep)
    assert rep.counts == (1, 0, 0, 1)
    assert rep.chi == 0
    assert rep.perfect and validate_function(M, fc).ok
    assert induced_field(M, fc) == Vc


def test_glued_results_match_a_full_rebuild(assert_same_complex, sphere3,
                                           collapse_field):
    K, f = seeded_torus(100)
    for seed in range(101, 106):
        T, ft = seeded_torus(seed)
        K, f, V, rep = compose(K, f, T, ft)
        assert_same_complex(K, Complex(K.cells.values()))
        assert_scanned_criticals(K, f, V, rep)
    assert verify_closed_surface(K).genus == 6
    S = sphere3()
    f = synthesize_function(S, collapse_field(S, "c0-1-2-3"))
    M, fc, Vc, rep = compose(S, f, sphere3(), f)
    assert_same_complex(M, Complex(M.cells.values()))
    assert_scanned_criticals(M, fc, Vc, rep)
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


def split_then_glue(K1, alpha, top, K2, bprime):
    """The glue of bprime onto the tube top by way of a copy of bprime
    with alpha's k sides: split bprime's smallest edge from its smaller
    endpoint through surgery._bisect_edge until it has k edges, then
    map the two 2k-walks onto each other, both anchored at their
    smallest vertex, directions reversed.  Returns the split complex and
    the map, one top cell per cell of the split walk."""
    k = len(K1.boundary(alpha))
    while len(K2.boundary(bprime)) < k:
        K2, _, _ = drafted(surgery._bisect_edge, K2, VectorField(),
                           min(K2.boundary(bprime)), None)

    def rotate_to_min(cycle):
        i = cycle[0::2].index(min(cycle[0::2]))
        return cycle[2 * i:] + cycle[:2 * i]

    top_cycle = rotate_to_min([top[c] for c in K1.boundary_cycle(alpha)])
    inner = rotate_to_min(list(K2.boundary_cycle(bprime)))
    glue = {inner[0]: top_cycle[0]}
    for i in range(1, 2 * k):
        glue[inner[i]] = top_cycle[2 * k - i]
    return K2, glue


@pytest.mark.parametrize("k", [3, 4, 5, 8, 13])
@pytest.mark.parametrize("beta, v", [
    ("t0-1-3", "v0"),  # bprime's smallest edge runs from v2
    ("t1-2-6", "v6"),  # bprime's smallest edge is opposite v2
])
def test_direct_glue_matches_split_then_glue(k, beta, v):
    # the second summand carries compose's prefix: the glue's anchor is
    # the critical vertex because `m2:` sorts below `shrunk:`
    K1 = polygon_pillow(k)
    top = build_prism_over_boundary(K1, "A").top
    ic = surgery._shrink_closed_star(torus7().prefixed("m2:"),
                                     "m2:" + beta, "m2:" + v)
    K2, bprime = ic.complex, ic.beta_prime
    glue = surgery._surface_glue_map(K1, K2, "A", bprime, top)
    split, old = split_then_glue(K1, "A", top, K2, bprime)
    assert len(split.boundary(bprime)) == k
    dropped = K2.closure(bprime)
    assert glue.keys() == dropped - {bprime}
    images = [g for gs in glue.values() for g in gs]
    assert len(images) == len(set(images)) == k + 3  # k edges, 3 vertices
    assert {top[e] for e in K1.boundary("A")} < set(images)
    kept = K2.cells.keys() - dropped
    assert split.cells.keys() - split.closure(bprime) == kept
    meeting = sorted(cid for cid in kept
                     if not K2.boundary(cid).isdisjoint(dropped))
    others = {t for e in K2.boundary(bprime)
              for t in K2.coface_table[e]} - {bprime}
    assert len(others) == 3 and others < set(meeting)
    for cid in meeting:
        direct = {g for f in K2.boundary(cid) for g in glue.get(f, (f,))}
        assert direct == {old.get(f, f) for f in split.boundary(cid)}, cid


def test_edits_per_compose_do_not_grow_with_the_genus(monkeypatch):
    # compose copies each summand once and edits those copies in place:
    # two edits per clearing step, one per corner cut for beta, one for
    # the shrink and one for the glue, and no edit copies a whole table.
    # Beta misses the torus's critical triangle, so every alpha is a
    # triangle: the glued cycle and the clearing stay the same.  The
    # copies are a rename of each raw summand, and from the second link
    # on, when the left keeps its ids, one draft of the left and one
    # rename of the right
    edits, copies = [], []
    for owner, name, log in ((Complex, "_edit", edits),
                             (Complex, "_draft", copies),
                             (Complex, "_renamed", copies),
                             (VectorField, "_draft", copies),
                             (VectorField, "_renamed", copies)):
        def counted(self, *args, _fn=getattr(owner, name), _log=log,
                    _name=owner.__name__ + "." + name, **kwargs):
            _log.append(_name)
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    K, f = seeded_torus(200)
    cycles, clearings = [], []
    for seed in range(201, 210):
        T, ft = seeded_torus(seed)
        left = "_renamed" if seed == 201 else "_draft"  # a raw torus first
        del edits[:], copies[:]
        K, f, V, rep = compose(K, f, T, ft)
        assert len(edits) == (2 * rep.boundary_clearing_steps
                              + ("~b" in rep.beta) + 1 + 1)
        assert sorted(copies) == sorted([
            "Complex." + left, "Complex._renamed",
            "VectorField." + left, "VectorField._renamed"])
        cycles.append(rep.glue_cycle_length)
        clearings.append(rep.boundary_clearing_steps)
    assert verify_closed_surface(K).genus == 10
    assert cycles == [3] * 9
    assert clearings == clearings[:1] * 9


# --- composed values along long chains ---------------------------------------


def test_genus_64_surface_validates():
    # 63 chained composes: the left values are re-ranked where f1(alpha)
    # passes 2^40, so the function stays exact and valid
    K, f, V = genus_surface(64)
    assert verify_closed_surface(K).genus == 64
    assert validate_function(K, f).ok and induced_field(K, f) == V


def test_a_chain_of_128_tetrahedron_composes_stays_valid():
    T = tetrahedron()
    fT = synthesize_function(T, tree_cotree_field(T))
    K, f = T, fT
    for link in range(128):
        K, f, V, rep = compose(K, f, tetrahedron(), fT)
        assert rep.perfect, link
        assert_scanned_criticals(K, f, V, rep)
    assert verify_closed_surface(K).genus == 0
    assert validate_function(K, f).ok and induced_field(K, f) == V


@pytest.mark.parametrize("seed", range(4))
def test_compose_ranks_a_left_function_past_2_to_the_40(seed):
    # f1 = 2^52 + rank: the caller's values are exact, but C = f1(alpha)
    # + 2 and the tube's f1 + C/2 are not, unless f1 is ranked first
    T = torus7()
    g = synthesize_function(T, tree_cotree_field(T, rng=random.Random(seed)))
    f1 = MorseFunction({cid: 2.0 ** 52 + v for cid, v in g.values.items()})
    assert validate_function(T, f1).ok and induced_field(T, f1) == \
        induced_field(T, g)
    M, f, V, rep = compose(T, f1, torus7(), g)
    assert rep.perfect
    assert validate_function(M, f).ok and induced_field(M, f) == V
    assert max(f.values.values()) < 2.0 ** 40


def test_compose_refuses_a_function_floats_cannot_hold():
    # f2 just below 2^53 is valid, but f2 + C crosses 2^53, where floats
    # are two apart, and ties the glued cells
    T = torus7()
    g = synthesize_function(T, tree_cotree_field(T))
    f2 = MorseFunction({cid: 2.0 ** 53 - 30 + v
                        for cid, v in g.values.items()})
    assert validate_function(T, f2).ok
    with pytest.raises(InexactFunction) as err:
        compose(T, g, torus7(), f2)
    assert 1 <= len(err.value.args) <= 5
    for cell, kind in err.value.args:
        assert kind in ("faces", "cofaces", "exclusivity")
        assert cell.startswith(("m1:", "m2:", "inner:", "tube:"))
