import itertools

import pytest

from dms.cellcomplex import (
    Cell,
    Complex,
    build_poset,
    build_simplicial,
    components,
    cycle_walk,
    edge_id,
    euler_characteristic,
    local_neighborhood,
    triangle_id,
    verify_closed_surface,
    vertex_id,
)
from dms.errors import (
    BadCellBoundary,
    BadDimensionDrop,
    BoundaryNotCycle,
    DegenerateFacet,
    DuplicateFacet,
    MissingFace,
    NonPseudomanifold,
    NotClosedSurface,
    UnknownCell,
)

TORUS_FACETS = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] \
    + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]


def test_tetrahedron_counts(tetra):
    assert tetra.counts() == (4, 6, 4)
    assert tetra.is_pseudomanifold
    assert tetra.is_closed_surface


def test_torus_counts_by_brute_enumeration():
    # independent count from the raw facet list
    verts = {v for f in TORUS_FACETS for v in f}
    edges = {frozenset(p) for f in TORUS_FACETS
             for p in itertools.combinations(f, 2)}
    K = build_simplicial(TORUS_FACETS)
    assert (len(verts), len(edges), len(TORUS_FACETS)) == (7, 21, 14)
    assert K.counts() == (7, 21, 14)


def test_degenerate_and_duplicate_facets():
    with pytest.raises(DegenerateFacet):
        build_simplicial([(0, 0, 1)])
    with pytest.raises(DegenerateFacet):
        build_simplicial([(0, 1, -2)])
    with pytest.raises(DuplicateFacet):
        build_simplicial([(0, 1, 2), (2, 1, 0)])


def test_single_triangle_closed_mode_fails():
    with pytest.raises(NonPseudomanifold):
        build_simplicial([(0, 1, 2)])
    K = build_simplicial([(0, 1, 2)], closed=False)
    assert K.counts() == (3, 3, 1)


def test_pillow_from_records(pillow_sphere):
    assert euler_characteristic(pillow_sphere) == 2
    assert pillow_sphere.is_pseudomanifold
    assert pillow_sphere.is_closed_surface


def test_quad_with_missing_edge():
    records = [
        ("p0", 0, []), ("p1", 0, []), ("p2", 0, []), ("p3", 0, []),
        ("q0", 1, ["p0", "p1"]), ("q1", 1, ["p1", "p2"]),
        ("q2", 1, ["p2", "p3"]),
        ("sq", 2, ["q0", "q1", "q2"]),
    ]
    with pytest.raises(BoundaryNotCycle):
        build_poset(records)
    with pytest.raises(MissingFace):
        build_poset([("e", 1, ["a", "b"])])


def test_records_round_trip(tetra, torus):
    for K in (tetra, torus):
        assert build_poset(K.records()) == K


def test_euler_characteristic(tetra, torus, genus2):
    assert euler_characteristic(tetra) == 2
    assert euler_characteristic(torus) == 0
    assert euler_characteristic(genus2[0]) == -2


def test_local_neighborhood_tetra(tetra):
    star, link = local_neighborhood(tetra, "v0")
    assert sum(1 for c in link.values() if c.dim == 0) == 3
    assert sum(1 for c in link.values() if c.dim == 1) == 3
    # the three link edges form a single cycle
    deg = {}
    for c in link.values():
        if c.dim == 1:
            for v in c.boundary:
                deg[v] = deg.get(v, 0) + 1
    assert set(deg.values()) == {2}
    assert "v0" not in link
    assert "v0" in star


def test_link_in_single_closed_triangle():
    # the link of a vertex of a 2-simplex is the opposite edge
    K = build_simplicial([(0, 1, 2)], closed=False)
    star, link = local_neighborhood(K, vertex_id(0))
    assert set(link) == {vertex_id(1), vertex_id(2), edge_id(1, 2)}
    assert set(star) == set(K.cells)


def test_torus_vertex_links_are_hexagons(torus):
    for i in range(7):
        _, link = local_neighborhood(torus, vertex_id(i))
        vs = [c for c in link.values() if c.dim == 0]
        es = [c for c in link.values() if c.dim == 1]
        assert len(vs) == 6 and len(es) == 6


def test_unknown_cell(tetra):
    with pytest.raises(UnknownCell):
        local_neighborhood(tetra, "nope")


def test_verify_closed_surface(tetra, torus, rp2):
    assert verify_closed_surface(tetra) == \
        verify_closed_surface(tetra).__class__(genus=0, orientable=True)
    assert verify_closed_surface(torus).genus == 1
    assert verify_closed_surface(torus).orientable
    info = verify_closed_surface(rp2)
    assert not info.orientable


def test_verify_rejects_open_complex():
    K = build_simplicial([(0, 1, 2)], closed=False)
    with pytest.raises(NotClosedSurface):
        verify_closed_surface(K)


def test_grading_invariants(tetra, torus, genus2):
    for K in (tetra, torus, genus2[0]):
        for cell in K.cells.values():
            for fid in cell.boundary:
                assert K.cells[fid].dim == cell.dim - 1
            assert K.closure(cell.id) <= set(K.cells)
        if K.is_closed_surface:
            for e in K.cells_of_dim(1):
                assert len(K.cofaces(e)) == 2
            info = verify_closed_surface(K)
            assert euler_characteristic(K) == 2 - 2 * info.genus


# --- graph primitives --------------------------------------------------------


def test_components_start_at_smallest_node():
    nbrs = {"a": ["c"], "b": [], "c": ["a", "d"], "d": ["c"], "e": []}
    assert components(["e", "d", "c", "b", "a"], nbrs) == [
        frozenset({"a", "c", "d"}), frozenset({"b"}), frozenset({"e"})]
    assert components([], {}) == []


def test_cycle_walk_orders_and_rejects():
    square = {"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d"),
              "ad": ("a", "d")}
    assert cycle_walk(square) == (
        ("a", "ab", "b", "bc", "c", "cd", "d", "ad"), None)
    walk, why = cycle_walk({"ab": ("a", "b"), "bc": ("b", "c")})
    assert walk is None and "'a' lies on 1 items" in why
    two = {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c"),
           "xy": ("x", "y"), "yz": ("y", "z"), "xz": ("x", "z")}
    walk, why = cycle_walk(two)
    assert walk is None and "more than one cycle" in why
    assert cycle_walk({})[0] is None


def test_link_cycle_is_the_rotation(tetra):
    assert tetra.link_cycle("v0") == (
        "e0-1", "t0-1-2", "e0-2", "t0-2-3", "e0-3", "t0-1-3")
    with pytest.raises(UnknownCell):
        tetra.link_cycle("e0-1")
    K = build_simplicial([(0, 1, 2)], closed=False)
    assert K.link_cycle(vertex_id(0)) is None


def test_pinched_vertex_is_not_a_surface():
    # two tetrahedron boundaries sharing the single vertex 0
    facets = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
              (0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)]
    K = build_simplicial(facets)
    assert K.is_pseudomanifold and K.is_connected()
    assert K.link_cycle(vertex_id(0)) is None
    assert K.link_cycle(vertex_id(1)) is not None
    assert not K.is_closed_surface
    with pytest.raises(NotClosedSurface):
        verify_closed_surface(K)


def test_two_triangle_boundary_is_not_a_cycle():
    records = [("v%d" % i, 0, []) for i in range(6)]
    edges = [("a", "v0", "v1"), ("b", "v1", "v2"), ("c", "v0", "v2"),
             ("x", "v3", "v4"), ("y", "v4", "v5"), ("z", "v3", "v5")]
    records += [(e, 1, [p, q]) for e, p, q in edges]
    records.append(("hex", 2, [e for e, _, _ in edges]))
    with pytest.raises(BoundaryNotCycle):
        build_poset(records)


TETRA_TRIANGLES = ["t0-1-2", "t0-1-3", "t0-2-3", "t1-2-3"]


@pytest.mark.parametrize("edit", [
    # every 2-cell dropped: the top dimension falls to 1
    dict(remove=TETRA_TRIANGLES),
    # one triangle dropped: no longer a pseudomanifold
    dict(remove=["t0-1-2"]),
    # a cell dropped and put back, and an unknown id ignored
    dict(remove=["t0-1-2", "nothing"],
         add=[Cell("t0-1-2", 2, frozenset({"e0-1", "e0-2", "e1-2"}))]),
    # a solid ball: the top dimension rises to 3
    dict(add=[Cell("ball", 3, frozenset(TETRA_TRIANGLES))]),
    # an edge replaced under its own id, with a new tag
    dict(add=[Cell("e0-1", 1, frozenset({"v0", "v1"}), "bisection")]),
])
def test_edit_matches_a_full_rebuild(tetra, edit, rebuild,
                                     assert_same_complex):
    assert_same_complex(tetra.replace_cells(**edit), rebuild(tetra, **edit))


@pytest.mark.parametrize("edit, error", [
    # a surviving triangle still lists the dropped edge
    (dict(remove=["e0-1"]), MissingFace),
    # the edges of a new 2-cell form a path, not one cycle
    (dict(add=[Cell("t", 2, frozenset({"e0-1", "e1-2", "e2-3"}))]),
     BoundaryNotCycle),
    # a new edge with three endpoints
    (dict(add=[Cell("e", 1, frozenset({"v0", "v1", "v2"}))]),
     BadCellBoundary),
    # an edge moved onto v0-v2: triangle t0-1-2 gets two sides there
    (dict(add=[Cell("e0-1", 1, frozenset({"v0", "v2"}))]),
     BoundaryNotCycle),
    # a vertex that edges still list turned into an edge
    (dict(add=[Cell("v3", 1, frozenset({"v0", "v1"}))]), BadDimensionDrop),
    (dict(remove=["v0", "v1", "v2", "v3", "e0-1", "e0-2", "e0-3", "e1-2",
                  "e1-3", "e2-3"] + TETRA_TRIANGLES), MissingFace),
])
def test_edit_raises_what_a_full_rebuild_raises(tetra, edit, error, rebuild):
    with pytest.raises(error):
        rebuild(tetra, **edit)
    with pytest.raises(error):
        tetra.replace_cells(**edit)


def prefix_rebuild(K, prefix):
    """K.prefixed(prefix) done the slow way: every cell renamed and the
    complex built from scratch."""
    return Complex(Cell(prefix + c.id, c.dim,
                        frozenset(prefix + f for f in c.boundary), c.tag)
                   for c in K.cells.values())


def test_prefixed_matches_a_full_rebuild(tetra, torus, pillow_sphere,
                                         genus2, assert_same_complex):
    for K in (tetra, torus, pillow_sphere, genus2[0]):
        P = K.prefixed("m1:")
        assert_same_complex(P, prefix_rebuild(K, "m1:"))
        assert [c.tag for c in P.cells.values()] == \
            [c.tag for c in K.cells.values()]
        # one string object per new id, shared by every table
        name = {cid: cid for cid in P.cells}
        for cid, cell in P.cells.items():
            assert cell.id is cid
            assert all(f is name[f] for f in cell.boundary)
            assert all(t is name[t] for t in P.cofaces(cid))
        for t in P.cells_of_dim(2):
            assert all(x is name[x] for x in P.boundary_cycle(t))


def test_disjoint_union_matches_a_full_rebuild(tetra, torus,
                                               assert_same_complex):
    A, B = tetra.prefixed("a:"), torus.prefixed("b:")
    U = A.disjoint_union(B)
    assert_same_complex(U, Complex([*A.cells.values(), *B.cells.values()]))
    assert not U.is_closed_surface and U.is_pseudomanifold
    with pytest.raises(DuplicateFacet, match="a:e0-1"):
        A.disjoint_union(tetra.prefixed("a:"))
