import random
import sys
from collections import Counter

import pytest

from dms import splitter, surgery
from dms.cellcomplex import (
    Cell,
    Complex,
    build_simplicial,
    components,
    cycle_walk,
    edge_id,
    euler_characteristic,
    triangle_id,
    verify_closed_surface,
    vertex_id,
)
from dms.errors import (
    BoundaryCriticalPresent,
    DmsError,
    InexactFunction,
    NotPerfectInput,
    NotSeparating,
    UnbalancedBoundaryCriticals,
    UnknownFixture,
    WrongCriticalCount,
)
from dms.fixtures import (
    genus_surface,
    random_valid_field,
    tetrahedron,
    torus7,
    tree_cotree_field,
)
from dms.formats import write_cwp, write_dmf, write_dvf
from dms.homology import betti_mod2
from dms.morsefield import (
    MorseFunction,
    VectorField,
    _check_function,
    critical_cells,
    induced_field,
    is_perfect,
    make_injective,
    morse_betti,
    synthesize_function,
    trace_2path,
    validate_field,
    validate_function,
)
from dms.splitter import (
    CoreRegion,
    _boundary_and_interior,
    _excavate_stray,
    _inward_violations,
    carve_core,
    cap_with_max_cone,
    cap_with_min_cone,
    classify_boundary,
    decompose,
    find_separating_circle,
    split_along_circle,
)
from dms.surgery import compose

from conftest import facet_components, frozen_surface, ordered_function


# --- select ------------------------------------------------------------------


def test_select_split_edges(genus2):
    K, f, V = genus2
    fi = make_injective(K, f)
    low, high = splitter._split_edges(fi, critical_cells(V, K), 1, 1)
    assert len(low) == 2 and len(high) == 2
    assert not set(low) & set(high)
    assert max(fi[e] for e in low) < min(fi[e] for e in high)
    # deterministic
    assert splitter._split_edges(fi, critical_cells(V, K), 1, 1) == \
        (low, high)


def test_select_wrong_count(torus, torus_function):
    with pytest.raises(WrongCriticalCount):
        decompose(torus, torus_function, 1, 1)
    with pytest.raises(WrongCriticalCount):
        decompose(torus, torus_function, 0, 0)


@pytest.mark.parametrize("g1, g2", [(-1, 3), (3, -1)])
def test_negative_genus_is_refused(genus2, g1, g2):
    # g1 + g2 matches the genus and the critical edge count, so only the
    # sign tells these splits from a valid one
    K, f, V = genus2
    with pytest.raises(WrongCriticalCount, match="negative genus"):
        decompose(K, f, g1, g2)


@pytest.mark.parametrize("g1, g2", [(1.5, 0.5), ("1", "1"), (1, None),
                                    (True, True)])
def test_non_integer_genus_is_refused(genus2, g1, g2):
    K, f, V = genus2
    with pytest.raises(WrongCriticalCount, match="must be integers"):
        decompose(K, f, g1, g2)


def test_sphere_split_names_the_sum(tetra):
    f = synthesize_function(tetra, tree_cotree_field(tetra))
    with pytest.raises(WrongCriticalCount,
                       match=r"g1 \+ g2 must be at least 1, not 0"):
        decompose(tetra, f, 0, 0)


@pytest.mark.parametrize("g", ["2", 2.0, None, True])
def test_genus_surface_refuses_a_non_integer(g):
    with pytest.raises(UnknownFixture, match="non-negative integer"):
        genus_surface(g)


# --- carve -------------------------------------------------------------------


def critical_facet(K, V):
    """V's one critical facet, which find_separating_circle hands to
    carve_core."""
    facet, = critical_cells(V, K).cells[2]
    return facet


def test_carve_core_genus2(genus2):
    K, f, V = genus2
    fi = make_injective(K, f)
    low, high = splitter._split_edges(fi, critical_cells(V, K), 1, 1)
    region = carve_core(K, V, high, critical_facet(K, V))
    assert region.critical_facet in region.facets
    assert set(high) == region.high_edges
    # complement stays connected: flood fill over non-region facets
    outside = [t for t in K.cells_of_dim(2) if t not in region.facets]
    boundary, _ = _boundary_and_interior(K, region.facets)
    adj = {t: [] for t in outside}
    for e in K.cells_of_dim(1):
        ts = [t for t in K.cofaces(e) if t in adj]
        if len(ts) == 2 and e not in boundary:
            adj[ts[0]].append(ts[1])
            adj[ts[1]].append(ts[0])
    seen = {outside[0]}
    frontier = [outside[0]]
    while frontier:
        t = frontier.pop()
        for o in adj[t]:
            if o not in seen:
                seen.add(o)
                frontier.append(o)
    assert len(seen) == len(outside)


def test_carve_paths_split_but_never_merge(genus2):
    # paths can split going out of the critical facet, never merge: two
    # paths through a common facet agree on everything before it
    K, f, V = genus2
    fi = make_injective(K, f)
    low, high = splitter._split_edges(fi, critical_cells(V, K), 1, 1)
    region = carve_core(K, V, high, critical_facet(K, V))
    paths = [trace_2path(K, V, t, region.critical_facet)
             for e in sorted(high) for t in sorted(K.cofaces(e))]
    covered = set()
    for path in paths:
        covered.update(path.steps[1::2])
    assert covered == region.facets - {region.critical_facet}
    for p in paths:
        for q in paths:
            shared = set(p.steps[1::2]) & set(q.steps[1::2])
            for t in shared:
                i = p.steps.index(t)
                j = q.steps.index(t)
                assert p.steps[:i + 1] == q.steps[:j + 1]


def test_carve_torus_single_pair(torus, torus_field, torus_function):
    # the torus decomposes trivially: both critical edges go to one side
    fi = make_injective(torus, torus_function)
    low, high = splitter._split_edges(
        fi, critical_cells(torus_field, torus), 0, 1)
    assert low == ()
    region = carve_core(torus, torus_field, high,
                        critical_facet(torus, torus_field))
    outside_cells = set(torus.cells)
    for t in region.facets:
        outside_cells -= torus.closure(t)
    chi_region = sum((-1) ** torus.dim(c)
                     for t in region.facets for c in torus.closure(t)
                     if True) if False else None
    cells = set()
    for t in region.facets:
        cells |= torus.closure(t)
    chi_region = sum(1 if torus.dim(c) % 2 == 0 else -1 for c in cells)
    # the carved core wraps both handles' worth of loops: chi = 1 - 2g
    assert chi_region == -1


# --- classify ----------------------------------------------------------------


def edge_graph_components(K, edges):
    """The edges in components, adjacent across their shared ends."""
    at = {}
    for e in edges:
        for v in K.boundary(e):
            at.setdefault(v, []).append(e)
    return components(edges, {
        e: [o for v in K.boundary(e) for o in at[v]] for e in edges})


def boundary_class(K, region):
    """The four-way classification of the region's boundary, recounted
    from its facets: (class, number of components, wedge vertices).  The
    class is Circle (one component, no wedge), SeveralComponents,
    SingleWedge or WedgesWithConnectingCircles, the last also for an
    empty boundary."""
    boundary, _ = _boundary_and_interior(K, region.facets)
    degree = Counter(v for e in boundary for v in K.boundary(e))
    wedges = tuple(sorted(v for v, d in degree.items() if d >= 4))
    n = len(edge_graph_components(K, boundary))
    if n == 1 and not wedges:
        cls = "Circle"
    elif n > 1:
        cls = "SeveralComponents"
    elif len(wedges) == 1:
        cls = "SingleWedge"
    else:
        cls = "WedgesWithConnectingCircles"
    return cls, n, wedges


def boundary_walk(K, region):
    """The repair loop's circle test: the walk around the region's
    boundary, or None."""
    return cycle_walk({e: K.boundary(e) for e in region.boundary})[0]


def test_classify_clean_carve_is_circle(genus2):
    K, f, V = genus2
    fi = make_injective(K, f)
    _, high = splitter._split_edges(fi, critical_cells(V, K), 1, 1)
    region = carve_core(K, V, high, critical_facet(K, V))
    bg = classify_boundary(K, region)
    assert not bg.wedge_vertices
    assert all(d == 2 for d in bg.degree.values())
    assert boundary_walk(K, region) is not None
    assert boundary_class(K, region)[:2] == ("Circle", 1)


def grid_complex():
    def vid(i, j):
        return 5 * i + j
    facets = []
    for i in range(4):
        for j in range(4):
            facets.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            facets.append((vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)))
    return build_simplicial(facets, closed=False)


def test_classify_synthetic_pinch():
    # two triangle blocks meeting at one vertex: a single wedge of two
    # circles
    K = grid_complex()

    def tri(a, b, c):
        return triangle_id(a, b, c)

    block1 = {tri(0, 5, 6), tri(0, 1, 6)}          # square (0,0)
    block2 = {tri(6, 11, 12), tri(6, 7, 12)}       # square (1,1)
    boundary, interior = _boundary_and_interior(K, block1 | block2)
    region = CoreRegion(facets=block1 | block2,
                        path_edges={edge_id(0, 6), edge_id(6, 12)},
                        high_edges=set(), critical_facet=min(block1),
                        boundary=boundary, interior=interior)
    bg = classify_boundary(K, region)
    assert bg.wedge_vertices == (vertex_id(6),)
    assert bg.degree[vertex_id(6)] == 4
    assert boundary_walk(K, region) is None
    assert boundary_class(K, region)[:2] == ("SingleWedge", 1)


def pinched_grid():
    """The grid and a U-shaped region pinched at the interior vertex 12:
    two sectors meet there while the region stays edge-connected the
    long way round."""
    K = grid_complex()

    def sq(i, j):
        a, b = 5 * i + j, 5 * (i + 1) + j
        c, d = 5 * i + j + 1, 5 * (i + 1) + j + 1
        return {triangle_id(a, b, d), triangle_id(a, c, d)}

    facets = set()
    for ij in ((1, 1), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (2, 2)):
        facets |= sq(*ij)
    boundary, interior = _boundary_and_interior(K, facets)
    return K, CoreRegion(facets=set(facets), path_edges=set(interior),
                         high_edges=set(), critical_facet=min(facets),
                         boundary=boundary, interior=interior)


def test_resolve_wedge_on_pinch():
    K, region = pinched_grid()
    V = VectorField([])
    m0 = critical_cells(V, K).m
    bg = classify_boundary(K, region)
    assert bg.wedge_vertices == (vertex_id(12),)
    assert bg.degree[vertex_id(12)] == 4
    assert boundary_class(K, region)[0] == "SingleWedge"
    # the repair edits K, a draft of V and V's function in place
    values = dict(synthesize_function(K, V).values)
    V = V._draft()
    splitter._resolve_wedge(K, V, region, vertex_id(12), values)
    assert validate_field(K, V).ok
    assert critical_cells(V, K).m == m0
    bg2 = classify_boundary(K, region)
    assert not bg2.wedge_vertices
    assert bg2.degree.get(vertex_id(12), 2) == 2
    assert boundary_walk(K, region) is not None


def test_a_rung_two_marked_facets_share_is_bisected_once(monkeypatch):
    # the pinch's sector cut off is square (1,1), both triangles marked
    # at 12; their shared diagonal 6-12 is the rung of each.  The rung
    # pass reads the interior as it stood before it, so the half at 12
    # that splitting the rung for the first triangle leaves in the second
    # is no rung again
    K, region = pinched_grid()
    V = VectorField([(vertex_id(6), edge_id(6, 12))])
    assert validate_field(K, V).ok
    m0 = critical_cells(V, K).m
    split = []
    bisect = splitter._bisect_edge

    def recorded(K, V, e, *args, **kwargs):
        split.append(e)
        return bisect(K, V, e, *args, **kwargs)

    monkeypatch.setattr(splitter, "_bisect_edge", recorded)
    assert splitter._sectors_at(K, region, vertex_id(12))[1] == [
        triangle_id(6, 7, 12), triangle_id(6, 11, 12)]
    values = dict(synthesize_function(K, V).values)
    V = V._draft()
    splitter._resolve_wedge(K, V, region, vertex_id(12), values)
    assert split == [edge_id(6, 12)]
    assert validate_field(K, V).ok
    assert critical_cells(V, K).m == m0
    assert not classify_boundary(K, region).wedge_vertices
    assert boundary_walk(K, region) is not None


def stray_chains(K, region, bg):
    """(edges, anchors) of each connected set of interior edges that are
    neither path nor high edges; anchors are its vertices on the
    boundary curve."""
    _, interior = _boundary_and_interior(K, region.facets)
    stray = interior - region.path_edges - region.high_edges
    return [(comp, splitter._vertices(K, comp) & set(bg.degree))
            for comp in edge_graph_components(K, stray)]


def complement_components(K, region):
    """The facets outside the region, in components adjacent across the
    edges that do not bound the region."""
    boundary, _ = _boundary_and_interior(K, region.facets)
    outside = [t for t in K.cells_of_dim(2) if t not in region.facets]
    return facet_components(K, outside, boundary)


def test_excavate_stray_on_annulus():
    # ring of squares around a hole; a radial interior edge joins the
    # inner and outer boundary circles and is matched with its outer
    # endpoint (the inward arrow that must be pushed out)
    K = grid_complex()
    hole = set()
    for i in (1, 2):
        for j in (1, 2):
            hole.add(triangle_id(5 * i + j, 5 * (i + 1) + j,
                                 5 * (i + 1) + j + 1))
            hole.add(triangle_id(5 * i + j, 5 * i + j + 1,
                                 5 * (i + 1) + j + 1))
    facets = {t for t in K.cells_of_dim(2) if t not in hole}
    diag = edge_id(0, 6)
    boundary, interior = _boundary_and_interior(K, facets)
    region = CoreRegion(facets=set(facets), path_edges=interior - {diag},
                        high_edges=set(), critical_facet=min(facets),
                        boundary=boundary, interior=interior)
    V = VectorField([(vertex_id(0), diag)])
    m0 = critical_cells(V, K).m
    bg = classify_boundary(K, region)
    assert not bg.wedge_vertices
    assert boundary_walk(K, region) is None
    assert boundary_class(K, region)[:2] == ("SeveralComponents", 2)
    # the driver never meets such a chain: it only exists here because
    # of the inward arrow at vertex 0
    assert stray_chains(K, region, bg) == [
        ({diag}, {vertex_id(0), vertex_id(6)})]
    assert _inward_violations(K, V, region, bg)

    # the excavation edits K, a draft of V and V's function in place
    values = dict(synthesize_function(K, V).values)
    V = V._draft()
    _excavate_stray(K, V, region, diag, values)
    assert validate_field(K, V).ok
    assert critical_cells(V, K).m == m0
    assert all(t not in region.facets for t in K.cofaces(diag))
    bg2 = classify_boundary(K, region)
    assert boundary_class(K, region)[1] == 1
    assert not _inward_violations(K, V, region, bg2)
    # a leftover pinch at the inner corner is legal; clear it like the
    # driver would
    while bg2.wedge_vertices:
        splitter._resolve_wedge(K, V, region, bg2.wedge_vertices[0],
                                values)
        bg2 = classify_boundary(K, region)
    assert boundary_walk(K, region) is not None
    assert critical_cells(V, K).m == m0


def test_excavation_pre_pass_splits_an_edge_joining_two_chain_vertices(
        monkeypatch):
    # the one mark the pre-pass acts on: an inward arrow at the corner
    # vertex 0 starts the stray chain 0-6, 6-7, 7-12, whose vertices 6
    # and 12 lie off the curve and are joined by the path edge 6-12
    K = grid_complex()
    facets = set(K.cells_of_dim(2))
    boundary, interior = _boundary_and_interior(K, facets)
    chain = {edge_id(0, 6), edge_id(6, 7), edge_id(7, 12)}
    region = CoreRegion(facets=set(facets), path_edges=interior - chain,
                        high_edges=set(), critical_facet=min(facets),
                        boundary=boundary, interior=interior)
    V = VectorField([(vertex_id(0), edge_id(0, 6)),
                     (vertex_id(6), edge_id(6, 7)),
                     (vertex_id(7), edge_id(7, 12)),
                     (edge_id(6, 12), triangle_id(6, 11, 12))])
    assert validate_field(K, V).ok
    m0 = critical_cells(V, K).m
    bg = classify_boundary(K, region)
    assert _inward_violations(K, V, region, bg) == [
        (vertex_id(0), edge_id(0, 6))]
    assert splitter._stray_closure(K, V, region, edge_id(0, 6)) == (
        chain, {vertex_id(6), vertex_id(7), vertex_id(12)})
    split = []
    bisect = splitter._bisect_edge

    def recorded(K, V, e, *args, **kwargs):
        split.append(e)
        return bisect(K, V, e, *args, **kwargs)

    monkeypatch.setattr(splitter, "_bisect_edge", recorded)
    # the excavation edits K, a draft of V and V's function in place
    values = dict(synthesize_function(K, V).values)
    V = V._draft()
    _excavate_stray(K, V, region, edge_id(0, 6), values)
    assert split[0] == edge_id(6, 12)
    assert validate_field(K, V).ok
    assert critical_cells(V, K).m == m0
    bg = classify_boundary(K, region)
    assert not bg.wedge_vertices
    assert boundary_walk(K, region) is not None
    assert not _inward_violations(K, V, region, bg)
    chain_vertices = {vertex_id(6), vertex_id(7), vertex_id(12)}
    assert all(chain_vertices.isdisjoint(K.boundary_cycle(t))
               for t in region.facets)


# --- the full driver ---------------------------------------------------------


def oracle_inward_violations(K, V, region, bg):
    """_inward_violations with the boundary and interior edges found by
    counting the edges of every region facet."""
    pm = V.partner_map()
    boundary, interior = _boundary_and_interior(K, region.facets)
    kept = region.path_edges | region.high_edges
    return [(x, pm[x]) for x in sorted(splitter._vertices(K, boundary))
            if x in pm and K.dim(pm[x]) == 1 and pm[x] in interior
            and pm[x] not in kept]


def test_excavation_patches_match_a_full_recompute(monkeypatch,
                                                  glued_genus2):
    # after every cut _follow follows into the region, and at every
    # classification of the repair loop (so from carve_core's count on),
    # the region's boundary and interior equal a count over every region
    # facet
    follow = splitter._follow
    classify = splitter.classify_boundary
    calls = Counter()

    def assert_recounted(K, region):
        assert (region.boundary, region.interior) == \
            _boundary_and_interior(K, region.facets)

    def checked_follow(K, region, rec):
        follow(K, region, rec)
        assert_recounted(K, region)
        calls["edge" if K.dim(rec.new_cells[0]) == 0 else "corner"] += 1

    def checked_classify(K, region):
        assert_recounted(K, region)
        calls["classify"] += 1
        return classify(K, region)

    monkeypatch.setattr(splitter, "_follow", checked_follow)
    monkeypatch.setattr(splitter, "classify_boundary", checked_classify)
    fields = [(K, f, g1, 4 - g1) for K, seed, f, g1 in golden_fields()]
    for flips, flip_seed in ((60, 1), (200, 1)):
        K = glued_genus2(flips, flip_seed)
        for seed in range(10):
            V = tree_cotree_field(K, rng=random.Random(seed))
            fields.append((K, synthesize_function(K, V), 1, 1))
    for K, f, g1, g2 in fields:
        try:
            find_separating_circle(K, f, g1, g2, dict(f.values))
        except DmsError:
            pass
    assert calls["edge"] > 30 and calls["corner"] > 50
    assert calls["classify"] > 40


def test_inward_violations_match_the_region_wide_count(monkeypatch,
                                                       glued_genus2):
    inward = splitter._inward_violations
    found = Counter()

    def checked(K, V, region, bg):
        out = inward(K, V, region, bg)
        assert out == oracle_inward_violations(K, V, region, bg)
        found[bool(out)] += 1
        return out

    monkeypatch.setattr(splitter, "_inward_violations", checked)
    # the golden fields, and the few seeded fields known to meet an
    # inward arrow in the repair loop
    fields = [(K, f, g1, 4 - g1) for K, seed, f, g1 in golden_fields()]
    K = glued_genus2(60, 1)
    for seed in range(10):
        V = tree_cotree_field(K, rng=random.Random(seed))
        fields.append((K, synthesize_function(K, V), 1, 1))
    K = frozen_surface(6)
    V = tree_cotree_field(K, rng=random.Random(9))
    fields.append((K, synthesize_function(K, V), 1, 5))
    for K, f, g1, g2 in fields:
        try:
            find_separating_circle(K, f, g1, g2, dict(f.values))
        except DmsError:
            pass
    assert found[True] >= 3 and found[False]


def test_repair_loop_meets_no_stray_arc_and_no_pocket(monkeypatch,
                                                      glued_genus2):
    # oracles for the proofs in find_separating_circle's docstring:
    # wherever no arrow points into the region, no stray chain joins two
    # points of the curve, and without wedges the complement is connected
    inward = splitter._inward_violations
    seen = Counter()

    def checked(K, V, region, bg):
        # the proof in classify_boundary's docstring: every degree is
        # even, and a wedge has at least two sectors
        assert all(d % 2 == 0 for d in bg.degree.values())
        for v in bg.wedge_vertices:
            assert len(splitter._sectors_at(K, region, v)) >= 2, v
        out = inward(K, V, region, bg)
        if not out:
            for edges, anchors in stray_chains(K, region, bg):
                assert len(anchors) <= 1, sorted(edges)
            if not bg.wedge_vertices:
                assert len(complement_components(K, region)) == 1
            seen[boundary_class(K, region)[0]] += 1
        return out

    monkeypatch.setattr(splitter, "_inward_violations", checked)
    fields = [(K, f, g1, 4 - g1) for K, seed, f, g1 in golden_fields()]
    K = glued_genus2()
    for seed in range(10):
        V = tree_cotree_field(K, rng=random.Random(seed))
        fields.append((K, synthesize_function(K, V), 1, 1))
    refused = 0
    for K, f, g1, g2 in fields:
        try:
            find_separating_circle(K, f, g1, g2, dict(f.values))
        except NotSeparating:
            refused += 1
    assert refused == 1
    assert seen["Circle"] == len(fields) - refused
    assert seen["SeveralComponents"] >= 1


def test_the_loop_branches_as_the_four_way_classification(monkeypatch,
                                                         glued_genus2):
    # at every pass with no inward violation the loop resolves a wedge,
    # or walks the boundary; the oracle's class, recounted from the
    # facets, says which: a walk exactly at "Circle", a refusal naming
    # the oracle's component count anywhere else without wedges
    inward = splitter._inward_violations
    resolve = splitter._resolve_wedge
    walk = splitter.cycle_walk
    state = []  # the oracle's (class, components, wedges) at this pass
    seen = Counter()

    def checked_inward(K, V, region, bg):
        out = inward(K, V, region, bg)
        state[:] = [] if out else [boundary_class(K, region)]
        return out

    def checked_resolve(K, V, region, v, values):
        (cls, _, wedges), = state
        assert cls != "Circle" and v == wedges[0]
        seen["resolve", cls] += 1
        return resolve(K, V, region, v, values)

    def checked_walk(ends):
        out = walk(ends)
        (cls, _, wedges), = state
        assert not wedges
        assert (out[0] is not None) == (cls == "Circle")
        seen["walk", out[0] is not None] += 1
        return out

    monkeypatch.setattr(splitter, "_inward_violations", checked_inward)
    monkeypatch.setattr(splitter, "_resolve_wedge", checked_resolve)
    monkeypatch.setattr(splitter, "cycle_walk", checked_walk)
    fields = [(K, f, g1, 4 - g1) for K, seed, f, g1 in golden_fields()]
    for flips, flip_seed in FLIPPED_GENUS2:
        K = glued_genus2(flips, flip_seed)
        for seed in range(10):
            V = tree_cotree_field(K, rng=random.Random(seed))
            fields.append((K, synthesize_function(K, V), 1, 1))
    for K, f, g1, g2 in fields:
        state[:] = []
        try:
            find_separating_circle(K, f, g1, g2, dict(f.values))
        except NotSeparating as err:
            (cls, n, wedges), = state
            assert cls != "Circle" and not wedges
            assert "bounded by %d disjoint circles" % n in str(err)
            seen["refused"] += 1
    assert seen["walk", True] == len(fields) - seen["refused"]
    assert seen["walk", False] == seen["refused"] > 0
    assert seen["resolve", "SingleWedge"] and seen["resolve",
                                                   "SeveralComponents"]


def test_low_edges_bisected_before_their_excavation_are_followed(
        depth_first_cotree_field):
    # the critical-vertex excavation, or an earlier low edge's, can
    # bisect a low critical edge before its own excavation, which then
    # reads the edge's heir; ordered functions of depth-first cotree
    # fields meet this, and only the documented refusals remain
    K = genus_surface(4)[0]
    verts = set(K.cells_of_dim(0))
    refusals = Counter()
    done = 0
    for seed in range(20):
        V = depth_first_cotree_field(K, seed)
        for first, last in ((set(), verts), (verts, set())):
            f = ordered_function(K, V, first, last)
            for g1 in (1, 2, 3):
                try:
                    res = decompose(K, f, g1, 4 - g1)
                except (NotSeparating, BoundaryCriticalPresent) as err:
                    refusals[type(err).__name__] += 1
                    continue
                assert res.report["perfect"] == {"m1": True, "m2": True}
                done += 1
    assert done + sum(refusals.values()) == 120 and done > 0


# Seeded flips of the glued genus-2 surface: (flips, seed) pairs, each
# decomposed at 1/1 under ten tree-cotree fields.  The refusals are the
# open NotSeparating gap and the critical edge some fields leave on the
# circle, which the max cone refuses; their counts may only go down.
FLIPPED_GENUS2 = [(flips, seed) for flips in (20, 60, 200)
                  for seed in range(4)]
FLIPPED_GENUS2_REFUSALS = {"NotSeparating": 22, "BoundaryCriticalPresent": 2}


def test_flipped_genus2_refusals_do_not_grow(glued_genus2):
    refusals = Counter()
    for flips, flip_seed in FLIPPED_GENUS2:
        K = glued_genus2(flips, flip_seed)
        assert verify_closed_surface(K).genus == 2
        for seed in range(10):
            V = tree_cotree_field(K, rng=random.Random(seed))
            f = synthesize_function(K, V)
            try:
                res = decompose(K, f, 1, 1)
            except DmsError as err:
                refusals[type(err).__name__] += 1
                continue
            assert res.report["perfect"] == {"m1": True, "m2": True}
    for name, count in refusals.items():
        assert count <= FLIPPED_GENUS2_REFUSALS.get(name, 0), name


@pytest.mark.parametrize("seed", (4, 8))
def test_a_critical_edge_on_the_circle_is_refused_by_the_max_cone(
        seed, glued_genus2):
    # a low critical edge across the core region leaves its heir on the
    # curve; the loop does not rule that out, and the caps refuse it
    K = glued_genus2(200, 1)
    f = synthesize_function(K, tree_cotree_field(K, rng=random.Random(seed)))
    K2, V2, circle, _ = find_separating_circle(K, f, 1, 1, dict(f.values))
    assert "e6-15~b1" in circle[1::2]
    assert "e6-15~b1" in critical_cells(V2, K2).cells[1]
    with pytest.raises(BoundaryCriticalPresent, match="^e6-15~b1$"):
        decompose(K, f, 1, 1)


def assert_independent_checks(res, g1, g2):
    """Each capped piece of a decompose result holds a valid field and
    function whose critical counts are its GF(2) Betti numbers, and is a
    closed orientable surface of the summand's genus."""
    for P, W, fn, g in ((res.m1_complex, res.m1_field, res.m1_function, g1),
                        (res.m2_complex, res.m2_field, res.m2_function, g2)):
        assert validate_field(P, W).ok
        assert validate_function(P, fn).ok
        assert induced_field(P, fn) == W
        assert critical_cells(W, P).m == betti_mod2(P).b == (1, 2 * g, 1)
        assert euler_characteristic(P) == 2 - 2 * g
        info = verify_closed_surface(P)
        assert info.orientable and info.genus == g


def test_random_roots_reach_the_critical_vertex_excavation(
        monkeypatch, glued_genus2, random_root_field):
    # a tree-cotree field rooted away from the smallest vertex can leave
    # the critical vertex on a facet of the carved core, and
    # _expel_foreign_criticals then cuts it out with _excavate
    excavate = splitter._excavate
    cut = []

    def recorded(K, V, region, marked, *args):
        v0 = critical_cells(V, K).cells[0][0]
        if all(cells == {v0} for cells in marked.values()):
            cut.append(v0)
        return excavate(K, V, region, marked, *args)

    monkeypatch.setattr(splitter, "_excavate", recorded)
    cases = [(frozen_surface(3), seed, g1, 3 - g1)
             for seed in (4, 12) for g1 in (0, 1)]
    cases += [(glued_genus2(), 1, g1, 2 - g1) for g1 in (0, 1)]
    for K, seed, g1, g2 in cases:
        del cut[:]
        f = synthesize_function(K, random_root_field(K, seed))
        res = decompose(K, f, g1, g2)
        assert len(cut) == 1
        assert_independent_checks(res, g1, g2)


@pytest.mark.parametrize("flips, flip_seed, seed", [(20, 2, 18), (200, 0, 2)])
def test_stray_closure_grows_past_the_boundary(
        monkeypatch, glued_genus2, random_root_field, flips, flip_seed,
        seed):
    # the chain of an inward arrow runs on through a vertex off the
    # boundary curve and its own stray edge, and the corridor cut along
    # it still leaves a separating circle
    closure = splitter._stray_closure
    grown = []

    def recorded(K, V, region, seed):
        z_edges, z_verts = closure(K, V, region, seed)
        grown.append(len(z_verts))
        return z_edges, z_verts

    monkeypatch.setattr(splitter, "_stray_closure", recorded)
    K = glued_genus2(flips, flip_seed)
    f = synthesize_function(K, random_root_field(K, seed))
    res = decompose(K, f, 1, 1)
    assert max(grown) >= 1
    assert_independent_checks(res, 1, 1)


def test_excavation_meets_only_what_its_removed_branches_assumed(
        monkeypatch, glued_genus2, random_root_field):
    # the guards the engine no longer has: a run search always meets a
    # marked cell, and a stray closure's seed is no vertex's push, so it
    # reaches no edge twice
    runs = splitter._runs_on_cycle
    closure = splitter._stray_closure
    seen = Counter()

    def checked_runs(cycle, marked):
        assert any(c in marked for c in cycle)
        seen["runs"] += 1
        return runs(cycle, marked)

    def checked_closure(K, V, region, seed):
        pm = V.partner_map()
        boundary, _ = _boundary_and_interior(K, region.facets)
        owner = pm.get(seed)
        assert owner is None or owner in splitter._vertices(K, boundary)
        z_edges, z_verts = closure(K, V, region, seed)
        assert z_edges == {seed} | {pm[x] for x in z_verts
                                    if pm.get(x) in z_edges}
        seen["closures"] += 1
        return z_edges, z_verts

    monkeypatch.setattr(splitter, "_runs_on_cycle", checked_runs)
    monkeypatch.setattr(splitter, "_stray_closure", checked_closure)
    cases = [(K, f, g1, 4 - g1) for K, seed, f, g1 in golden_fields()]
    for flips, flip_seed in ((0, 0), (20, 2), (200, 0)):
        K = glued_genus2(flips, flip_seed)
        for seed in range(20):
            f = synthesize_function(K, random_root_field(K, seed))
            cases.append((K, f, 1, 1))
    for K, f, g1, g2 in cases:
        try:
            decompose(K, f, g1, g2)
        except DmsError:
            pass
    assert seen["runs"] > 100 and seen["closures"] > 10


def test_decompose_refuses_a_genus_mismatch_and_a_field_that_is_not_perfect(
        genus3):
    K, f, V = genus3
    with pytest.raises(WrongCriticalCount,
                       match="surface genus 3 but g1\\+g2=2"):
        decompose(K, f, 1, 1)
    W = random_valid_field(K, 0)
    assert critical_cells(W, K).m != (1, 6, 1)
    with pytest.raises(NotPerfectInput):
        decompose(K, synthesize_function(K, W), 1, 2)


def test_find_separating_circle_composed(genus2):
    K, f, V = genus2
    K2, V2, circle, region = find_separating_circle(K, f, 1, 1, dict(f.values))
    assert validate_field(K2, V2).ok
    pm = V2.partner_map()
    _, interior = _boundary_and_interior(K2, region.facets)
    for x in circle[0::2]:
        p = pm.get(x)
        assert p is not None
        assert not (K2.dim(p) == 1 and p in interior
                    and p not in region.path_edges)
    for e in circle[1::2]:
        assert e in pm


def test_find_separating_circle_rejects_sphere(tetra):
    f = synthesize_function(tetra, tree_cotree_field(tetra))
    with pytest.raises(WrongCriticalCount):
        find_separating_circle(tetra, f, 0, 0, dict(f.values))


def test_find_separating_circle_rejects_nonorientable(rp2):
    from dms.errors import NonOrientableInput
    V = tree_cotree_field(rp2)
    f = synthesize_function(rp2, V)
    with pytest.raises(NonOrientableInput):
        find_separating_circle(rp2, f, 0, 1, dict(f.values))


def test_split_along_circle_genus2(genus2):
    K, f, V = genus2
    K2, V2, circle, region = find_separating_circle(K, f, 1, 1, dict(f.values))
    split = split_along_circle(K2, V2, circle, region.facets)
    assert euler_characteristic(split.min_complex) == -1  # 1 - 2g, g = 1
    assert euler_characteristic(split.max_complex) == -1
    # boundary-critical balance on the critical-facet side
    pm = split.max_field.partner_map()
    verts = [v for v in circle[0::2] if v not in pm]
    edges = [e for e in circle[1::2] if e not in pm]
    assert len(verts) == len(edges)
    # restricted counts on the other piece obey 1 - 2g + (n - m) with
    # n = m, i.e. chi of the piece
    counts_min = critical_cells(split.min_field, split.min_complex).m
    assert counts_min[0] - counts_min[1] + counts_min[2] \
        == euler_characteristic(split.min_complex)


def test_caps_genus2(genus2):
    K, f, V = genus2
    values = dict(f.values)
    K2, V2, circle, region = find_separating_circle(K, f, 1, 1, values)
    split = split_along_circle(K2, V2, circle, region.facets)
    P1, P2 = split.min_complex, split.max_complex
    m1K, m1V = cap_with_max_cone(P1, split.min_field, circle,
                                 {c: values[c] for c in P1.cells})
    m2K, m2V = cap_with_min_cone(P2, split.max_field, circle,
                                 {c: values[c] for c in P2.cells})
    for cx, vf in ((m1K, m1V), (m2K, m2V)):
        assert cx.is_closed_surface
        assert validate_field(cx, vf).ok
        assert is_perfect(cx, vf)
        assert critical_cells(vf, cx).m == (1, 2, 1)
    pm = m2V.partner_map()
    assert "cone:apex" not in pm        # apex is the new critical vertex
    pm1 = m1V.partner_map()
    crit2 = [t for t in m1K.cells_of_dim(2) if t not in pm1]
    assert len(crit2) == 1 and crit2[0].startswith("cone:t:")


def test_cap_max_rejects_boundary_criticals(genus2):
    K, f, V = genus2
    K2, V2, circle, region = find_separating_circle(K, f, 1, 1, dict(f.values))
    split = split_along_circle(K2, V2, circle, region.facets)
    with pytest.raises(BoundaryCriticalPresent):
        cap_with_max_cone(split.max_complex, split.max_field, circle, {})


def _genus2_split(genus2):
    K, f, V = genus2
    K2, V2, circle, region = find_separating_circle(K, f, 1, 1, dict(f.values))
    return split_along_circle(K2, V2, circle, region.facets), circle


def _rematched(P, W, a, b):
    """W with a matched to b, each first freed of its partner."""
    pm = W.partner_map()
    drop = [tuple(sorted((c, pm[c]), key=P.dim)) for c in (a, b) if c in pm]
    return W.replace(drop=drop, add=[tuple(sorted((a, b), key=P.dim))])


def test_cap_min_rejects_a_circle_vertex_matched_into_the_piece(genus2):
    split, circle = _genus2_split(genus2)
    P = split.max_complex
    v = circle[0]
    e = min(c for c in P.cofaces(v) if P.dim(c) == 1 and c not in circle)
    W = _rematched(P, split.max_field, v, e)
    with pytest.raises(UnbalancedBoundaryCriticals,
                       match="circle vertex %s paired into the piece via %s"
                       % (v, e)):
        cap_with_min_cone(P, W, circle, {})


def test_cap_min_rejects_a_circle_edge_matched_with_a_facet(genus2):
    split, circle = _genus2_split(genus2)
    P = split.max_complex
    e = circle[1]
    t, = P.cofaces(e)
    W = _rematched(P, split.max_field, e, t)
    with pytest.raises(UnbalancedBoundaryCriticals,
                       match="circle edge %s paired with %s" % (e, t)):
        cap_with_min_cone(P, W, circle, {})


def test_split_refuses_a_cut_through_the_critical_vertex(genus2):
    K, f, V = genus2
    v0 = critical_cells(V, K).cells[0][0]
    t = min(c for c in K.star(v0) if K.dim(c) == 2)
    with pytest.raises(NotSeparating, match="critical vertex lies on the cut"):
        split_along_circle(K, V, K.boundary_cycle(t), {t})


def test_split_refuses_a_circle_that_separates_nothing():
    # the circle through the torus's edges {i, i + 1} separates nothing
    K = torus7()
    edges = {"e%d-%d" % tuple(sorted((i, (i + 1) % 7))) for i in range(7)}
    circle, _ = cycle_walk({e: K.boundary(e) for e in edges})
    assert len(facet_components(K, K.cells_of_dim(2), edges)) == 1
    V = tree_cotree_field(K)
    # the facets {i, i + 1, i + 3} line one bank of the circle, one on
    # each of its edges; they are bounded by more edges than the
    # circle's, and no set of facets by the circle's edges alone
    bank = {"t%d-%d-%d" % tuple(sorted((i, (i + 1) % 7, (i + 3) % 7)))
            for i in range(7)}
    assert all(len(K.boundary(t) & edges) == 1 for t in bank)
    with pytest.raises(NotSeparating, match="bounds them off the circle"):
        split_along_circle(K, V, circle, bank)
    for facets in (set(), set(K.cells_of_dim(2))):
        with pytest.raises(NotSeparating,
                           match="is on the circle but does not bound them"):
            split_along_circle(K, V, circle, facets)


def test_split_refuses_facets_that_are_no_side_of_the_circle(genus2):
    K, f, V = genus2
    K2, V2, circle, region = find_separating_circle(K, f, 1, 1, dict(f.values))
    edges = set(circle[1::2])
    inner = min(t for e in edges for t in K2.cofaces(e) if t in region.facets)
    outer = min(t for e in edges for t in K2.cofaces(e)
                if t not in region.facets)
    others = set(K2.cells_of_dim(2)) - region.facets
    for facets in (region.facets - {inner}, region.facets | {outer},
                   others - {outer}, others | {inner}):
        with pytest.raises(NotSeparating, match="no side of the circle"):
            split_along_circle(K2, V2, circle, facets)


def test_either_side_of_the_circle_gives_the_same_pieces(
        assert_same_complex):
    splits = 0
    for K, seed, f, g1 in golden_fields():
        try:
            K2, V2, circle, region = find_separating_circle(
                K, f, g1, 4 - g1, dict(f.values))
        except NotSeparating:
            assert seed == 7
            continue
        others = set(K2.cells_of_dim(2)) - region.facets
        a = split_along_circle(K2, V2, circle, region.facets)
        b = split_along_circle(K2, V2, circle, others)
        assert_same_complex(a.min_complex, b.min_complex)
        assert_same_complex(a.max_complex, b.max_complex)
        assert (a.min_field, a.max_field) == (b.min_field, b.max_field)
        assert a.critical_vertex == b.critical_vertex \
            == critical_cells(V2, K2).cells[0][0]
        splits += 1
    assert splits == 8


def test_split_refuses_a_field_with_no_critical_vertex():
    # the root's criticality moved down the tree path to an end x of a
    # critical edge e, then x paired with e: no vertex is left critical
    K = torus7()
    V = tree_cotree_field(K)
    pm = V.partner_map()
    e = critical_cells(V, K).cells[1][0]
    x = max(K.boundary(e))
    drop, add, v = [], [(x, e)], x
    while v in pm:
        s = pm[v]
        (w,) = K.boundary(s) - {v}
        drop.append((v, s))
        add.append((w, s))
        v = w
    assert drop  # x is no root
    W = V.replace(drop=drop, add=add)
    assert critical_cells(W, K).m == (0, 1, 1)
    t = K.cells_of_dim(2)[0]
    with pytest.raises(WrongCriticalCount,
                       match="the field leaves no vertex critical"):
        split_along_circle(K, W, K.boundary_cycle(t), {t})


def test_decompose_composed_tori(genus2):
    K, f, V = genus2
    res = decompose(K, f, 1, 1)
    assert res.report["chi"] == {"m1": 0, "m2": 0}
    assert res.report["morseCounts"] == {"m1": (1, 2, 1), "m2": (1, 2, 1)}
    assert res.report["perfect"] == {"m1": True, "m2": True}
    for cx, fn in ((res.m1_complex, res.m1_function),
                   (res.m2_complex, res.m2_function)):
        assert validate_function(cx, fn).ok
        assert verify_closed_surface(cx).genus == 1


def test_a_decompose_piece_decomposes_again():
    # the genus-3 piece holds the first cap's `cone:` cells, so the second
    # decompose names its cones `cone2:` instead of matching a cell twice
    K, f, _ = genus_surface(4)
    first = decompose(K, f, 1, 3)
    piece = first.m2_complex
    res = decompose(piece, first.m2_function, 1, 2)
    assert res.report["perfect"] == {"m1": True, "m2": True}
    for cx, vf, fn in ((res.m1_complex, res.m1_field, res.m1_function),
                       (res.m2_complex, res.m2_field, res.m2_function)):
        assert validate_field(cx, vf).ok and validate_function(cx, fn).ok
        assert induced_field(cx, fn) == vf
        assert critical_cells(vf, cx).m == betti_mod2(cx).b
    cones = {cid.partition(":")[0] for P in (res.m1_complex, res.m2_complex)
             for cid in P.cells if cid.startswith("cone")}
    assert cones == {"cone", "cone2"}
    assert not any(cid.startswith("cone2:") for cid in piece.cells)


def test_decompose_genus3(genus3):
    K, f, V = genus3
    res = decompose(K, f, 1, 2)
    assert res.report["chi"] == {"m1": 0, "m2": -2}
    assert res.report["perfect"] == {"m1": True, "m2": True}


def test_decompose_reports_the_betti_numbers_of_its_pieces(genus3):
    K, f, V = genus3
    res = decompose(K, f, 1, 2)
    assert res.report["betti"] == {"m1": betti_mod2(res.m1_complex).b,
                                   "m2": betti_mod2(res.m2_complex).b}
    assert res.report["betti"] == {"m1": (1, 2, 1), "m2": (1, 4, 1)}


def test_betti_numbers_read_off_the_classification_are_the_homology(
        glued_genus2):
    # (1, 2 - chi, 1) for each capped piece against a GF(2) ranking, on
    # every golden field and on flipped glued genus-2 surfaces
    cases = [(K, f, g1, 4 - g1) for K, seed, f, g1 in golden_fields()]
    for flips, flip_seed in ((0, 0), (60, 1), (200, 1)):
        K = glued_genus2(flips, flip_seed)
        for seed in range(4):
            V = tree_cotree_field(K, rng=random.Random(seed))
            cases.append((K, synthesize_function(K, V), 1, 1))
    done = 0
    for K, f, g1, g2 in cases:
        assert betti_mod2(K).b == (1, 2 * (g1 + g2), 1)
        try:
            res = decompose(K, f, g1, g2)
        except DmsError:
            continue
        pieces = {"m1": res.m1_complex, "m2": res.m2_complex}
        assert res.report["betti"] == {
            k: betti_mod2(P).b for k, P in pieces.items()}
        assert res.report["betti"] == {"m1": (1, 2 * g1, 1),
                                       "m2": (1, 2 * g2, 1)}
        assert res.report["perfect"] == {"m1": True, "m2": True}
        done += 1
    assert done >= 15


def test_decompose_of_a_loaded_surface_ranks_nothing(spy, genus2):
    # the input's Betti numbers come from its genus and the pieces' from
    # their Euler characteristics, so no Morse complex is ranked
    from dms.formats import parse_cwp, parse_dmf, write_cwp, write_dmf
    K, f, _ = genus2
    cases = [(K, f, 1, 1)]
    cases += [(K, f, g1, 4 - g1) for K, seed, f, g1 in golden_fields()
              if seed != 7]
    ranked = spy(morse_betti)
    for K, f, g1, g2 in cases:
        L = parse_cwp(write_cwp(K))
        res = decompose(L, parse_dmf(write_dmf(f), L), g1, g2)
        assert res.report["perfect"] == {"m1": True, "m2": True}
    assert ranked == []


@pytest.mark.parametrize("seed", range(10))
def test_decompose_direct_genus2_random_fields(seed, glued_genus2):
    K = glued_genus2()
    V = tree_cotree_field(K, rng=random.Random(seed))
    f = synthesize_function(K, V)
    res = decompose(K, f, 1, 1)
    assert res.report["perfect"] == {"m1": True, "m2": True}
    assert res.report["chi"] == {"m1": 0, "m2": 0}


def test_decompose_is_deterministic(genus2):
    from dms.formats import write_cwp, write_dmf, write_dvf
    K, f, V = genus2
    a = decompose(K, f, 1, 1)
    b = decompose(K, f, 1, 1)
    assert write_cwp(a.m1_complex) == write_cwp(b.m1_complex)
    assert write_cwp(a.m2_complex) == write_cwp(b.m2_complex)
    assert write_dvf(a.m1_field) == write_dvf(b.m1_field)
    assert write_dmf(a.m2_function) == write_dmf(b.m2_function)
    assert a.circle == b.circle


def test_stage_invariants_through_driver(genus2):
    # every repair preserves validity and counts; spot-check by re-running
    # the driver and validating its outputs
    K, f, V = genus2
    m0 = critical_cells(V, K).m
    K2, V2, circle, region = find_separating_circle(K, f, 1, 1, dict(f.values))
    assert validate_field(K2, V2).ok
    assert critical_cells(V2, K2).m == m0


def golden_fields():
    """frozen_surface(4) and the (seed, function, g1) of test_golden.py."""
    K = frozen_surface(4)
    for seed in range(9):
        V = tree_cotree_field(K, rng=random.Random(seed))
        yield K, seed, synthesize_function(K, V), 1 + seed % 3


def level_function(K, V):
    """A Morse function inducing the gradient V with many tied values:
    each cell's value is the length of the longest chain of face
    relations below it, a matched pair counting as one node."""
    f = synthesize_function(K, V)
    pm = V.partner_map()
    level = {}
    # faces come before their cofaces, and the lower cell of a pair first
    for cid in sorted(K.cells, key=lambda c: (f[c], K.dim(c))):
        if cid in level:
            continue
        node = (cid, pm[cid]) if cid in pm else (cid,)
        below = [level[s] for c in node for s in K.boundary(c)
                 if s not in node]
        for c in node:
            level[c] = float(1 + max(below, default=-1))
    return MorseFunction(level)


def test_split_edges_on_f_keep_the_injective_order():
    # find_separating_circle orders the critical edges on f itself; the
    # order must be the one make_injective(K, f) gives them, also when
    # many critical edges share a value
    cases = [(K, f, g1, 4 - g1) for K, seed, f, g1 in golden_fields()]
    K = genus_surface(4)[0]
    for seed in range(4):
        V = tree_cotree_field(K, rng=random.Random(seed))
        f = level_function(K, V)
        assert induced_field(K, f) == V
        cases += [(K, f, g1, 4 - g1) for g1 in range(5)]
    tied = 0
    for K, f, g1, g2 in cases:
        crit = critical_cells(induced_field(K, f), K)
        assert splitter._split_edges(f, crit, g1, g2) == \
            splitter._split_edges(make_injective(K, f), crit, g1, g2)
        edges = crit.cells[1]
        tied += len(edges) - len({f[e] for e in edges})
    assert tied >= 20


def test_find_separating_circle_validates_once(spy):
    # induced_field checks the function in its one face loop, and the
    # critical cells are scanned on entry only
    validations = spy(_check_function)
    scans = spy(critical_cells)
    for K, seed, f, g1 in golden_fields():
        del validations[:], scans[:]
        try:
            find_separating_circle(K, f, g1, 4 - g1, dict(f.values))
        except NotSeparating:
            assert seed == 7
        assert validations == [(K, f)]
        assert len(scans) == 1


def test_decompose_checks_each_piece_once(spy):
    # each piece carries f, so nothing is synthesized; its function is
    # checked once, on the cells the cuts and its cap touched, and a
    # valid function induces a gradient, so no validate_field runs and no
    # Morse complex is ranked
    validations = spy(validate_field)
    syntheses = spy(synthesize_function)
    checks = spy(_check_function)
    ranked = spy(morse_betti)
    done = 0
    for K, seed, f, g1 in golden_fields():
        del validations[:], syntheses[:], checks[:], ranked[:]
        try:
            res = decompose(K, f, g1, 4 - g1)
        except NotSeparating:
            assert seed == 7
            continue
        pieces = [(res.m1_complex, res.m1_function),
                  (res.m2_complex, res.m2_function)]
        assert validations == [] and syntheses == [] and ranked == []
        assert len(checks) == 3 and checks[0] == (K, f)
        for (P, g), args in zip(pieces, checks[1:]):
            assert args[0] is P and args[1] is g
            assert set(args[2]) < set(P.cells)
        done += 1
    assert done == 8


def test_decompose_lists_the_critical_cells_once(spy):
    # the entry check lists the critical cells, separation is handed
    # them, and the carve, the split and the piece counts follow or read
    # them; a surface that carries compose's record is not scanned at all
    K, f, _ = genus_surface(3)
    scans = spy(critical_cells)
    assert decompose(K, f, 1, 2).report["perfect"] == {"m1": True,
                                                       "m2": True}
    assert scans == []
    for K, seed, f, g1 in golden_fields():
        del scans[:]
        try:
            decompose(K, f, g1, 4 - g1)
        except NotSeparating:
            assert seed == 7
        assert len(scans) == 1 and scans[0][1] is K


def test_piece_counts_are_the_critical_cells_of_each_piece(glued_genus2):
    # the report's counts, read off the followed critical cells, the cut
    # cells, the circle and the cone, against a scan of each whole piece
    cases = [(K, f, g1, 4 - g1) for K, seed, f, g1 in golden_fields()]
    for flips, flip_seed in FLIPPED_GENUS2:
        K = glued_genus2(flips, flip_seed)
        for seed in range(10):
            V = tree_cotree_field(K, rng=random.Random(seed))
            cases.append((K, synthesize_function(K, V), 1, 1))
    assert len(cases) == 129
    done = 0
    for K, f, g1, g2 in cases:
        try:
            res = decompose(K, f, g1, g2)
        except DmsError:
            continue
        assert res.report["morseCounts"] == {
            "m1": critical_cells(res.m1_field, res.m1_complex).m,
            "m2": critical_cells(res.m2_field, res.m2_complex).m}
        done += 1
    assert done >= 100


def piece_texts(res):
    """The six texts of a decompose: each piece's complex, field and
    function."""
    return tuple(text for K, V, f in (
        (res.m1_complex, res.m1_field, res.m1_function),
        (res.m2_complex, res.m2_field, res.m2_function))
        for text in (write_cwp(K), write_dvf(V, K), write_dmf(f)))


def test_decompose_of_a_composed_surface_reads_its_record(spy):
    # genus_surface(4) is compose's own (K, f): the record compose keeps
    # on K stands for the whole-complex check on entry, so only the
    # pieces are checked, on the cells they touched; a copy of f is
    # checked in full and decomposes to the same texts
    K, f, _ = genus_surface(4)
    copy = MorseFunction(dict(f.values))
    checks = spy(_check_function)
    for g1 in (1, 2, 3):
        del checks[:]
        res = decompose(K, f, g1, 4 - g1)
        assert [len(args) for args in checks] == [3, 3]
        del checks[:]
        again = decompose(K, copy, g1, 4 - g1)
        assert checks[0][0] is K and checks[0][1] is copy
        assert [len(args) for args in checks] == [2, 3, 3]
        assert piece_texts(res) == piece_texts(again)


def test_decompose_drops_values_off_the_complex():
    # a value for an id that is no cell of K is dropped: the pieces hold
    # the values of their own cells alone, as without that value
    K, f, _ = genus_surface(3)
    extra = MorseFunction({**f.values, "zz:off": -1000.0})
    for g1 in (1, 2):
        res = decompose(K, extra, g1, 3 - g1)
        assert res.m1_function.values.keys() == res.m1_complex.cells.keys()
        assert res.m2_function.values.keys() == res.m2_complex.cells.keys()
        assert piece_texts(res) == piece_texts(decompose(K, f, g1, 3 - g1))


def test_decompose_checks_the_cone_values(monkeypatch):
    # the cone's ids are among the cells each piece's function is checked
    # on: a min cone whose apex sits above every radial is refused
    def apex_on_top(values, pm, circle, apex, cone):
        give(values, pm, circle, apex, cone)
        values[apex] = max(values.values()) + 1.0

    give = splitter._min_cone_values
    monkeypatch.setattr(splitter, "_min_cone_values", apex_on_top)
    K, f, _ = genus_surface(2)
    with pytest.raises(InexactFunction) as err:
        decompose(K, f, 1, 1)
    assert ("cone:apex", "cofaces") in err.value.args


def test_edge_rule_raises_the_facet_when_no_value_fits(tetra):
    # e = e0-1 is paired with the triangle c = t0-1-2, and its far end
    # q = v1 with the edge e1-2 of c: f(e1-2) < f(c) <= f(q) < f(e), so no
    # value fits between q and c for the new vertex and the half at q
    f = MorseFunction({
        "v0": 0.0, "e0-2": 0.4, "v2": 0.5, "e0-3": 0.6, "v3": 0.7,
        "e1-2": 1.0, "t0-1-2": 2.0, "v1": 3.0, "e0-1": 4.0,
        "t0-1-3": 4.5, "e1-3": 5.0, "t0-2-3": 5.5, "e2-3": 6.0,
        "t1-2-3": 7.0})
    V = induced_field(tetra, f)
    assert ("e0-1", "t0-1-2") in V.pairs() and ("v1", "e1-2") in V.pairs()
    K, W, values = tetra._draft(), V._draft(), dict(f.values)
    rec = surgery._bisect_edge(K, W, "e0-1", "v0", values)
    w, heir, other = rec.new_cells
    assert K.boundary(heir) == {"v0", w} and ("e0-1", "t0-1-2") not in \
        W.pairs()
    g = MorseFunction(values)
    assert validate_function(K, g).ok and induced_field(K, g) == W
    # c rose above q and stayed below the heir, its partner
    assert f["v1"] < values[w] == values[other] < values["t0-1-2"] \
        < values[heir] == f["e0-1"]
    assert set(values) == set(K.cells)


def _carried_cap(genus2, cap, side):
    """The genus-2 split's `side` piece, capped by `cap` with f's values:
    the piece, its field, the capped piece, its field and the values."""
    K, f, V = genus2
    values = dict(f.values)
    K2, V2, circle, region = find_separating_circle(K, f, 1, 1, values)
    split = split_along_circle(K2, V2, circle, region.facets)
    P, W = getattr(split, side + "_complex"), getattr(split, side + "_field")
    pv = {cid: values[cid] for cid in P.cells}
    C, CW = cap(P, W, circle, pv)
    g = MorseFunction(pv)
    assert validate_function(C, g).ok and induced_field(C, g) == CW
    return P, W, C, pv, circle


def test_min_cone_values_sit_just_below_or_above_their_circle_cells(genus2):
    P, W, C, pv, circle = _carried_cap(genus2, cap_with_min_cone, "max")
    pm = W.partner_map()
    kinds = Counter()
    for x in circle:
        cx = "cone:%s:%s" % ("r" if P.dim(x) == 0 else "t", x)
        # below a circle cell critical in the piece, which it pairs with,
        # above one paired along the circle
        assert (pv[cx] < pv[x]) == (x not in pm)
        assert abs(pv[cx] - pv[x]) <= 0.25
        kinds[P.dim(x), x in pm] += 1
    assert pv["cone:apex"] == min(pv[c] for c in P.cells) - 1
    assert set(kinds) == {(0, False), (0, True), (1, False), (1, True)}


def test_max_cone_values_are_a_staircase_down_the_fan(genus2):
    P, W, C, pv, circle = _carried_cap(genus2, cap_with_max_cone, "min")
    top = max(pv[c] for c in P.cells)
    verts, edges = circle[0::2], circle[1::2]
    k = len(verts)
    assert pv["cone:apex"] == pv["cone:r:" + verts[0]] == top + 1
    for i in range(1, k):
        assert pv["cone:r:" + verts[i]] == pv["cone:t:" + edges[i]] \
            == top + 1 + k - i
    assert pv["cone:t:" + edges[0]] == top + 1 + k


def test_carried_functions_whose_vertices_sit_late(monkeypatch):
    # synthesized functions never give a cut no room; with the vertices
    # as late as the field allows, a chord end can lie above the cut
    # 2-cell, whose heir then rises, and the pieces still check out
    patch = surgery._patch_values
    raised = []

    def counted(values, s, face, coface, middle, heir, other):
        m = max(values[x] for x in (*middle.boundary, *other.boundary)
                if x != middle.id)
        raised.append(m >= values[coface if coface is not None else s])
        patch(values, s, face, coface, middle, heir, other)

    monkeypatch.setattr(surgery, "_patch_values", counted)
    done = 0
    for g in range(2, 7):
        K = genus_surface(g)[0]
        for seed in range(12):
            V = tree_cotree_field(K, rng=random.Random(seed))
            f = ordered_function(K, V, set(K.cells_of_dim(2)),
                                 set(K.cells_of_dim(0)))
            g1 = 1 + seed % (g - 1)
            try:
                res = decompose(K, f, g1, g - g1)
            except NotSeparating:
                continue
            for P, W, h in ((res.m1_complex, res.m1_field, res.m1_function),
                            (res.m2_complex, res.m2_field,
                             res.m2_function)):
                assert validate_function(P, h).ok
                assert induced_field(P, h) == W
            done += 1
    assert done >= 30 and any(raised)


def test_decompose_synthesizes_nothing(monkeypatch):
    cases = list(golden_fields())

    def refuse(K, V):
        raise AssertionError("synthesize_function called")

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("dms") \
                and hasattr(mod, "synthesize_function"):
            monkeypatch.setattr(mod, "synthesize_function", refuse)
    done = 0
    for K, seed, f, g1 in cases:
        try:
            res = decompose(K, f, g1, 4 - g1)
        except NotSeparating:
            continue
        assert res.report["perfect"] == {"m1": True, "m2": True}
        done += 1
    assert done == 8


def test_values_past_2_to_the_40_are_ranked_densely_on_entry(genus2):
    # a synthesized function's values are dense ranks already, so the
    # shifted copy ranks back to it: every output is the same
    K, _, V = genus2
    f = synthesize_function(K, V)
    big = MorseFunction({cid: 2.0 ** 45 + 2 * v for cid, v in f.values.items()})
    a, b = decompose(K, f, 1, 1), decompose(K, big, 1, 1)
    for P, W, g, Q, X, h in (
            (a.m1_complex, a.m1_field, a.m1_function,
             b.m1_complex, b.m1_field, b.m1_function),
            (a.m2_complex, a.m2_field, a.m2_function,
             b.m2_complex, b.m2_field, b.m2_function)):
        assert write_cwp(P) == write_cwp(Q) and write_dvf(W) == write_dvf(X)
        assert g.values == h.values
    assert a.circle == b.circle


def test_values_a_float_step_apart_raise_inexact_function(genus2):
    # adjacent floats leave no room for a midpoint or a cone value: the
    # check names the cells instead of returning an invalid function
    K, f, V = genus2
    tight = MorseFunction({cid: 1.0 + v * 2.0 ** -52
                           for cid, v in f.values.items()})
    assert induced_field(K, tight) == V
    with pytest.raises(InexactFunction) as err:
        decompose(K, tight, 1, 1)
    assert 1 <= len(err.value.args) <= 5
    for cell, kind in err.value.args:
        assert kind in ("faces", "cofaces", "exclusivity")


def test_compose_of_the_pieces_is_the_surface():
    # compose after decompose, each piece with the function it carries:
    # the paper's round trip gives back a perfect surface of genus g
    done = 0
    for g in range(2, 7):
        K = genus_surface(g)[0]
        for seed in range(4):
            f = synthesize_function(K, tree_cotree_field(
                K, rng=random.Random(seed)))
            g1 = 1 + seed % (g - 1)
            try:
                res = decompose(K, f, g1, g - g1)
            except NotSeparating:
                continue
            M, h, W, rep = compose(res.m1_complex, res.m1_function,
                                   res.m2_complex, res.m2_function)
            assert rep.perfect and rep.counts == (1, 2 * g, 1)
            assert verify_closed_surface(M).genus == g
            assert validate_function(M, h).ok and induced_field(M, h) == W
            done += 1
    assert done >= 15


def test_pieces_match_a_full_rebuild(monkeypatch, assert_same_complex):
    # each piece of decompose's split against a Complex built from scratch
    # on the same cells, listed in the parent's order
    split = splitter.split_along_circle
    pieces = []

    def checked(K, V, circle, facets):
        out = split(K, V, circle, facets)
        for P in (out.min_complex, out.max_complex):
            R = Complex([c for cid, c in K.cells.items() if cid in P.cells])
            assert_same_complex(P, R)
            pieces.append(P)
        return out

    monkeypatch.setattr(splitter, "split_along_circle", checked)
    for K, seed, f, g1 in golden_fields():
        try:
            decompose(K, f, g1, 4 - g1)
        except NotSeparating:
            assert seed == 7
    assert len(pieces) == 16


def test_decompose_builds_no_complex_from_scratch(monkeypatch, genus2):
    K, f, _ = genus2

    def refuse(self, cells):
        raise AssertionError("decompose built a complex from scratch")

    monkeypatch.setattr(Complex, "__init__", refuse)
    res = decompose(K, f, 1, 1)
    assert res.report["perfect"] == {"m1": True, "m2": True}


# --- drafts: what the public surgeries copy and what they leave alone -------


def held(*objs):
    """A copy of every table and derived fact that an edit could change
    on the complexes and fields `objs`, the field of a compose record
    included."""
    out = []
    for x in objs:
        if isinstance(x, Complex):
            flags = {k: v for k, v in vars(x).items()
                     if k in ("is_pseudomanifold", "_surface_info")}
            out.append((list(x.cells.items()), list(x._cofaces.items()),
                        list(x._cycles.items()), x.top_dim, flags,
                        x._betti, x._composed))
            if x._composed is not None:
                out.extend(held(x._composed[1]))
        else:
            pm = x._partner
            out.append((list(x.pair_list),
                        None if pm is None else list(pm.items())))
    return out


def test_a_held_parent_is_unchanged_by_every_public_surgery():
    # a compose result carries every derived fact and the record; each
    # public surgery edits a draft and leaves what it was handed as it was
    M, f, V = genus_surface(2)
    assert M.is_closed_surface and M.is_pseudomanifold
    assert M._betti is not None and M._composed[1] is V
    V.partner_map()
    T, ft, _ = genus_surface(1)
    values = dict(f.values)
    C, CV, circle, region = find_separating_circle(M, f, 1, 1, values)
    split = split_along_circle(C, CV, circle, region.facets)
    pieces = (split.min_complex, split.min_field, split.max_complex,
              split.max_field)
    # the caches a surgery may fill are filled first, so that what is
    # compared is what an edit could change
    for x in (T, *pieces[::2]):
        x.is_closed_surface
    assert is_perfect(T, induced_field(T, ft))
    for x in pieces[1::2]:
        x.partner_map()

    def piece_values(P):
        return {cid: values[cid] for cid in P.cells}

    surgeries = [
        ((M,), lambda: M.replace_cells(add=[Cell("x", 0, frozenset())])),
        ((M, V), lambda: find_separating_circle(M, f, 1, 1, dict(f.values))),
        (pieces, lambda: cap_with_max_cone(
            split.min_complex, split.min_field, split.circle,
            piece_values(split.min_complex))),
        (pieces, lambda: cap_with_min_cone(
            split.max_complex, split.max_field, split.circle,
            piece_values(split.max_complex))),
        ((M, V, T), lambda: compose(M, f, T, ft)),
        ((M, V), lambda: decompose(M, f, 1, 1)),
        ((V,), lambda: V.replace(drop=[V.pairs()[0]])),
        # a surgery's own output, whose field holds its pairs in a list
        ((CV,), lambda: CV.replace(drop=[CV.pairs()[0]])),
    ]
    for parents, surgery in surgeries:
        before = held(*parents)
        out = surgery()
        assert held(*parents) == before, surgery
        assert out is not None


def test_drafts_are_taken_per_call_not_per_step(monkeypatch):
    # compose renames a raw first summand and drafts nothing, and from
    # the second link of a chain on drafts the first summand's complex
    # and field once; decompose drafts its surface and field once on
    # entry, and each cap drafts its piece and field once, however many
    # bisections the repairs make in between
    drafts, splits = [], []
    for owner in (Complex, VectorField):
        def counted(self, _fn=owner._draft, _name=owner.__name__):
            drafts.append(_name)
            return _fn(self)
        monkeypatch.setattr(owner, "_draft", counted)
    split = Complex._split_cell

    def counted_split(self, *args):
        splits.append(args[0])
        return split(self, *args)

    monkeypatch.setattr(Complex, "_split_cell", counted_split)
    K, f, _ = genus_surface(1)
    for seed in range(4):
        T = genus_surface(1)[0]
        ft = synthesize_function(T, tree_cotree_field(
            T, rng=random.Random(seed)))
        del drafts[:], splits[:]
        K, f, _, rep = compose(K, f, T, ft)
        assert sorted(drafts) == ([] if seed == 0
                                  else ["Complex", "VectorField"])
        assert len(splits) >= 2 * rep.boundary_clearing_steps > 0
    made = []
    for K, seed, f, g1 in golden_fields():
        del drafts[:], splits[:]
        try:
            decompose(K, f, g1, 4 - g1)
        except NotSeparating:
            assert seed == 7
            continue
        assert sorted(drafts) == ["Complex"] * 3 + ["VectorField"] * 3
        made.append(len(splits))
    assert len(made) == 8 and max(made) > 6
