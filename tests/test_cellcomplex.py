import itertools
import random

import pytest

from dms.cellcomplex import (
    Cell,
    Complex,
    SurfaceInfo,
    _surface_scan,
    build_poset,
    build_simplicial,
    components,
    cycle_walk,
    euler_characteristic,
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
from dms.fixtures import genus_surface
from dms.splitter import find_separating_circle

from conftest import facet_components

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


def test_torus_vertex_links_are_hexagons(torus):
    # the rotation around each vertex holds six edges and six triangles
    for i in range(7):
        ring = torus.link_cycle(vertex_id(i))
        assert len(set(ring[0::2])) == 6 and len(set(ring[1::2])) == 6


def test_unknown_cell(tetra):
    with pytest.raises(UnknownCell):
        tetra.cell("nope")


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


def test_components_matches_the_sorted_start_search():
    # random graphs: the components part the nodes, in the order of their
    # smallest nodes, each closed under neighbours and reached from that
    # node, however the nodes are given
    rng = random.Random(5)
    for trial in range(200):
        nodes = ["n%d" % i for i in range(rng.randrange(1, 12))]
        rng.shuffle(nodes)
        nbrs = {x: [] for x in nodes}
        for _ in range(rng.randrange(2 * len(nodes))):
            a, b = rng.choice(nodes), rng.choice(nodes)
            nbrs[a].append(b)
            nbrs[b].append(a)
        comps = components(nodes, nbrs)
        for given in (set(nodes), nbrs, nodes + nodes[:2]):
            assert components(given, nbrs) == comps
        assert sorted(x for c in comps for x in c) == sorted(nodes)
        assert [min(c) for c in comps] == sorted(min(c) for c in comps)
        for comp in comps:
            reached, frontier = {min(comp)}, [min(comp)]
            while frontier:
                for nxt in nbrs[frontier.pop()]:
                    assert nxt in comp
                    if nxt not in reached:
                        reached.add(nxt)
                        frontier.append(nxt)
            assert reached == comp


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
    assert K.is_pseudomanifold and is_connected(K)
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


# vertex ids that sort below, between and above the edge ids b to e
WALK_VERTICES = ("a0", "a1", "c5", "d5", "y", "z")


@pytest.mark.parametrize("n_edges", [3, 4])
def test_short_walks_are_cycle_walks(n_edges):
    """Every multigraph of three or four edges on six vertices, as the
    boundary of one 2-cell: construction stores cycle_walk's walk of the
    edges, or raises with cycle_walk's reason.  Each edge list is tried
    under every assignment to the edge ids, so each edge comes first,
    second, ... in the boundary's iteration order."""
    edges = "bcde"[:n_edges]
    vertices = [Cell(v, 0, frozenset()) for v in WALK_VERTICES]
    for pairs in itertools.product(itertools.combinations(WALK_VERTICES, 2),
                                   repeat=n_edges):
        ends = {e: frozenset(pair) for e, pair in zip(edges, pairs)}
        walk, why = cycle_walk(ends)
        cells = vertices + [Cell(e, 1, p) for e, p in ends.items()]
        cells.append(Cell("q", 2, frozenset(edges)))
        try:
            K = Complex(cells)
        except BoundaryNotCycle as err:
            assert (walk, str(err)) == (None, "2-cell 'q': %s" % why), pairs
        else:
            assert K.boundary_cycle("q") == walk, pairs


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
    # an edge replaced under its own id
    dict(add=[Cell("e0-1", 1, frozenset({"v0", "v1"}))]),
    # a 2-cell replaced under its own id, keeping two faces, losing one
    # and gaining two: a quadrilateral v0 v1 v2 v3
    dict(add=[Cell("t0-1-2", 2,
                   frozenset({"e0-1", "e1-2", "e2-3", "e0-3"}))]),
    # an edge replaced with one end moved, from v1 to a new vertex x, and
    # both its triangles replaced by quadrilaterals through x
    dict(add=[Cell("x", 0, frozenset()),
              Cell("e0-1", 1, frozenset({"v0", "x"})),
              Cell("f", 1, frozenset({"x", "v1"})),
              Cell("t0-1-2", 2, frozenset({"e0-1", "f", "e1-2", "e0-2"})),
              Cell("t0-1-3", 2, frozenset({"e0-1", "f", "e1-3", "e0-3"}))]),
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
                        frozenset(prefix + f for f in c.boundary))
                   for c in K.cells.values())


def test_prefixed_matches_a_full_rebuild(tetra, torus, pillow_sphere,
                                         genus2, assert_same_complex):
    for K in (tetra, torus, pillow_sphere, genus2[0]):
        P = K.prefixed("m1:")
        assert_same_complex(P, prefix_rebuild(K, "m1:"))
        # one string object per new id, shared by every table
        name = {cid: cid for cid in P.cells}
        for cid, cell in P.cells.items():
            assert cell.id is cid
            assert all(f is name[f] for f in cell.boundary)
            assert all(t is name[t] for t in P.cofaces(cid))
        for t in P.cells_of_dim(2):
            assert all(x is name[x] for x in P.boundary_cycle(t))


def test_cell_is_an_immutable_record():
    a = Cell("e0-1", 1, frozenset({"v0", "v1"}))
    assert repr(a) == "Cell('e0-1', dim=1)"
    assert (a.id, a.dim, a.boundary) == ("e0-1", 1, frozenset({"v0", "v1"}))
    same = Cell(id="e0-1", dim=1, boundary=frozenset({"v1", "v0"}))
    assert a == same and hash(a) == hash(same) and len({a, same}) == 1
    for other in (Cell("e0-2", 1, a.boundary), Cell("e0-1", 2, a.boundary),
                  Cell("e0-1", 1, frozenset({"v0", "v2"}))):
        assert a != other and len({a, other}) == 2
    with pytest.raises(AttributeError):
        a.dim = 2
    with pytest.raises(AttributeError):
        a.tag = "cone"


def separating_sides(K, f, g):
    """The subdivided surface and the two sides of the circle that
    decompose finds on the genus-g surface K under f at an even split,
    each side the closure of its facets."""
    K2, _, circle, _ = find_separating_circle(K, f, g // 2, g - g // 2,
                                              dict(f.values))
    sides = facet_components(K2, K2.cells_of_dim(2), set(circle[1::2]))
    assert len(sides) == 2
    return K2, [frozenset().union(*(K2.closure(t) for t in side))
                for side in sides]


@pytest.mark.parametrize("genus", [2, 4])
def test_subcomplex_matches_a_full_rebuild(genus, assert_same_complex):
    K, f, _ = genus_surface(genus)
    rng = random.Random(genus)
    facets = K.cells_of_dim(2)
    some = rng.sample(facets, len(facets) // 3)
    id_sets = [
        set(K.cells),
        set().union(*(K.closure(t) for t in some)),
        set().union(*map(K.closure, K.star(K.cells_of_dim(0)[0]))),
        {cid for cid, c in K.cells.items() if c.dim < 2},
        set(K.cells_of_dim(0)),
    ]
    cases = [(K, ids) for ids in id_sets]
    K2, sides = separating_sides(K, f, genus)
    cases += [(K2, ids) for ids in sides]
    assert sides[0] & sides[1] and sides[0] | sides[1] == K2.cells.keys()
    for L, ids in cases:
        P = L.subcomplex(ids)
        assert_same_complex(
            P, Complex([c for cid, c in L.cells.items() if cid in ids]))
    for P in (K2.subcomplex(ids) for ids in sides):
        assert P.is_pseudomanifold is False
        assert euler_characteristic(P) % 2 == 1


def test_subcomplex_refuses_a_set_not_closed_under_faces(tetra):
    every = set(tetra.cells)
    with pytest.raises(MissingFace,
                       match="cell 't0-1-2' lists missing face 'e0-1'"):
        tetra.subcomplex(every - {"v0", "e0-1"})
    with pytest.raises(MissingFace, match="missing face 'v3'"):
        tetra.subcomplex(every - {"v3"})
    with pytest.raises(MissingFace, match="empty complex"):
        tetra.subcomplex(())
    with pytest.raises(UnknownCell):
        tetra.subcomplex(every | {"nothing"})


# --- subdivisions and the closed-surface check ------------------------------


def chord_cells(d_ends=("p0", "p2"), half1=("q0", "q1"),
                half2=("q2", "q3")):
    """A chord d across the pillow's square sqA and the two halves."""
    return [Cell("d", 1, frozenset(d_ends)),
            Cell("h1", 2, frozenset(half1) | {"d"}),
            Cell("h2", 2, frozenset(half2) | {"d"})]


def split_cell(K, old, new_cells, halves):
    """K._split_cell(old, new_cells, halves) on a draft of K."""
    K = K._draft()
    K._split_cell(old, new_cells, halves)
    return K


def test_split_cell_subdivides(pillow_sphere, assert_same_complex):
    K = split_cell(pillow_sphere, "sqA", chord_cells(), ("h1", "h2"))
    assert_same_complex(K, Complex(K.cells.values()))
    assert K.boundary_cycle("h1") == ("p0", "d", "p2", "q1", "p1", "q0")
    E = split_cell(pillow_sphere, "q0", [
        Cell("w", 0, frozenset()), Cell("q0a", 1, frozenset({"p0", "w"})),
        Cell("q0b", 1, frozenset({"p1", "w"}))], ("q0a", "q0b"))
    assert_same_complex(E, Complex(E.cells.values()))
    assert E.cofaces("q0a") == ("sqA", "sqB")


@pytest.mark.parametrize("cells, halves, why", [
    # the halves share q2 besides the chord
    (chord_cells(half1=("q0", "q1", "q2")), ("h1", "h2"), "share"),
    # the chord ends at a vertex off the square: no face of sqA
    (chord_cells(d_ends=("p0", "x")), ("h1", "h2"), "outside its closure"),
    # q1 is in neither half
    (chord_cells(half1=("q0",)), ("h1", "h2"), r"leave out \['q1'\]"),
    # the middle cell is an existing edge
    ([Cell("q0", 1, frozenset({"p0", "p2"})),
      Cell("h1", 2, frozenset({"q0", "q1"})),
      Cell("h2", 2, frozenset({"q2", "q3", "q0"}))], ("h1", "h2"),
     "already exists"),
    # no middle cell at all
    (chord_cells()[1:], ("h1", "h2"), "two halves and a middle cell"),
    # the middle cell has the halves' dimension
    ([Cell("d", 2, frozenset({"q0", "q1", "q2", "q3"}))]
     + chord_cells()[1:], ("h1", "h2"), "dimensions"),
], ids=["second-shared-face", "middle-outside-closure", "missing-face",
        "existing-middle", "no-middle", "middle-dimension"])
def test_split_cell_rejects_non_subdivisions(pillow_sphere, cells, halves,
                                             why):
    with pytest.raises(BadCellBoundary, match=why):
        split_cell(pillow_sphere, "sqA", cells, halves)


def test_split_cell_carries_computed_flags(pillow_sphere):
    K = build_poset(pillow_sphere.records())
    # nothing computed on the parent: nothing carried
    S = split_cell(K, "sqA", chord_cells(), ("h1", "h2"))
    assert "is_pseudomanifold" not in vars(S)
    assert "_surface_info" not in vars(S)
    assert K.is_closed_surface
    S = split_cell(K, "sqA", chord_cells(), ("h1", "h2"))
    assert vars(S)["is_pseudomanifold"] is True
    assert vars(S)["_surface_info"] == SurfaceInfo(genus=0, orientable=True)
    # a defect names a cell, so only the pseudomanifold flag carries
    open_disk = build_simplicial([(0, 1, 2), (0, 2, 3)], closed=False)
    assert not open_disk.is_closed_surface
    S = split_cell(open_disk, "e0-1", [
        Cell("w", 0, frozenset()), Cell("a", 1, frozenset({"v0", "w"})),
        Cell("b", 1, frozenset({"v1", "w"}))], ("a", "b"))
    assert vars(S)["is_pseudomanifold"] is False
    assert "_surface_info" not in vars(S)
    assert S._surface_info == "edge a has 1 cofaces"


def orientation_ok(K):
    """Propagate coherent 2-cell orientations; False on conflict."""
    direction = {}  # 2-cell id -> dict edge -> (from_vertex, to_vertex)
    for tid in K.cells_of_dim(2):
        walk = K.boundary_cycle(tid)
        m = len(walk) // 2
        direction[tid] = {
            walk[2 * i + 1]: (walk[2 * i], walk[(2 * i + 2) % (2 * m)])
            for i in range(m)}
    sign = {}
    for start in K.cells_of_dim(2):
        if start in sign:
            continue
        sign[start] = 1
        frontier = [start]
        while frontier:
            t = frontier.pop()
            for eid in K.cells[t].boundary:
                for other in K.cofaces(eid):
                    if other == t:
                        continue
                    # coherent: shared edge traversed in opposite senses
                    same = direction[t][eid] == direction[other][eid]
                    want = -sign[t] if same else sign[t]
                    if other not in sign:
                        sign[other] = want
                        frontier.append(other)
                    elif sign[other] != want:
                        return False
    return True


def is_connected(K):
    """One component in the graph of the face relation."""
    return len(components(K.cells, {
        cid: (*cell.boundary, *K.cofaces(cid))
        for cid, cell in K.cells.items()})) == 1


def verify_oracle(K):
    """verify_closed_surface as it read before it became one pass, kept
    as the reference for its results and errors: a connectivity search,
    an edge scan, a link_cycle walk per vertex and an orientation
    search, each over the whole complex."""
    if K.top_dim != 2:
        raise NotClosedSurface("top dimension is %d" % K.top_dim)
    if not is_connected(K):
        raise NotClosedSurface("complex is not connected")
    for eid in K.cells_of_dim(1):
        if len(K.cofaces(eid)) != 2:
            raise NotClosedSurface("edge %s has %d cofaces"
                                   % (eid, len(K.cofaces(eid))))
    for vid in K.cells_of_dim(0):
        if K.link_cycle(vid) is None:
            raise NotClosedSurface("vertex %s link is not a single cycle"
                                   % vid)
    if not orientation_ok(K):
        return SurfaceInfo(genus=None, orientable=False)
    chi = euler_characteristic(K)
    if chi % 2 != 0 or chi > 2:
        raise NotClosedSurface("impossible Euler characteristic %d" % chi)
    return SurfaceInfo(genus=(2 - chi) // 2, orientable=True)


def pinched_cylinder():
    """A sphere with its two poles 0 and 13 identified: a hexagonal
    cylinder of two rings capped by cones over one apex, so the complex
    stays connected without the apex and only its link fails."""
    a = [1 + i for i in range(6)]
    b = [7 + i for i in range(6)]
    facets = []
    for i in range(6):
        j = (i + 1) % 6
        facets += [(0, a[i], a[j]), (a[i], a[j], b[i]), (a[j], b[i], b[j]),
                   (0, b[i], b[j])]
    return build_simplicial(facets)


def reversed_poset(K):
    # the same complex with its cells listed in reverse id order
    return build_poset(sorted(K.records(), reverse=True))


def klein_bottle():
    """A 4 x 4 grid with its sides identified, one pair with a twist."""
    def v(i, j):
        if i == 4:
            i, j = 0, -j
        return 4 * i + j % 4
    facets = []
    for i in range(4):
        for j in range(4):
            facets += [(v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                       (v(i, j), v(i, j + 1), v(i + 1, j + 1))]
    return build_simplicial(facets)


TETRA = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


NOT_SURFACES = {
    "pinched vertex": lambda: build_simplicial(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
         (0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)]),
    "disconnected": lambda: build_simplicial(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
         (4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7)]),
    "open edge": lambda: build_simplicial(
        [(0, 1, 2), (0, 2, 3), (0, 3, 1)], closed=False),
    "open edge, reversed": lambda: reversed_poset(build_simplicial(
        [(0, 1, 2), (0, 2, 3), (0, 3, 1)], closed=False)),
    "two pinches, reversed": lambda: reversed_poset(build_simplicial(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
         (0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6),
         (6, 7, 8), (6, 7, 9), (6, 8, 9), (7, 8, 9)])),
    "bad vertex link": pinched_cylinder,
    "bad vertex link, reversed": lambda: reversed_poset(pinched_cylinder()),
    "graph": lambda: build_poset([("a", 0, []), ("b", 0, []),
                                  ("ab", 1, ["a", "b"])]),
    "edge with three cofaces": lambda: build_simplicial(
        TETRA + [(0, 1, 4)], closed=False),
    "dangling edge": lambda: build_poset(
        build_simplicial(TETRA).records()
        + [("v4", 0, []), ("e0-4", 1, ["v0", "v4"])]),
    "dangling edge, reversed": lambda: reversed_poset(build_poset(
        build_simplicial(TETRA).records()
        + [("v4", 0, []), ("e0-4", 1, ["v0", "v4"])])),
    "three pages, reversed": lambda: reversed_poset(build_simplicial(
        TETRA + [(0, 1, 4), (0, 4, 5), (1, 4, 5), (0, 1, 5)],
        closed=False)),
}


@pytest.mark.parametrize("kind", sorted(NOT_SURFACES))
def test_verify_raises_what_the_oracle_raises(kind):
    with pytest.raises(NotClosedSurface) as want:
        verify_oracle(NOT_SURFACES[kind]())
    K = NOT_SURFACES[kind]()
    for _ in range(2):
        with pytest.raises(NotClosedSurface) as got:
            verify_closed_surface(K)
        assert str(got.value) == str(want.value)
    assert not K.is_closed_surface


def test_verify_accepts_what_the_oracle_accepts(tetra, torus, rp2,
                                               pillow_sphere, genus2,
                                               glued_genus2):
    surfaces = [tetra, torus, rp2, pillow_sphere, genus2[0], klein_bottle(),
                reversed_poset(klein_bottle()), reversed_poset(rp2)]
    surfaces += [genus_surface(g)[0] for g in (3, 5, 8)]
    surfaces += [glued_genus2(flips, seed)
                 for flips, seed in ((0, 0), (20, 1), (200, 1))]
    orientable = []
    for K in surfaces:
        K = Complex(K.cells.values())  # nothing derived yet
        want = verify_oracle(K)
        assert verify_closed_surface(K) == want
        assert verify_closed_surface(K) == want
        assert K.is_closed_surface
        orientable.append(want.orientable)
    assert orientable.count(False) == 4


def test_verify_derives_its_answer_once(spy, torus, rp2):
    calls = spy(_surface_scan)
    for K in (torus, rp2):
        K = Complex(K.cells.values())
        assert verify_closed_surface(K) == verify_closed_surface(K)
    assert len(calls) == 2
