import heapq
import random
import sys
from itertools import chain, combinations
from pathlib import Path

import pytest

from dms import surgery
from dms.cellcomplex import (
    Complex,
    build_poset,
    build_simplicial,
    components,
    euler_characteristic,
)
from dms.fixtures import (
    genus_surface,
    pillow,
    projective_plane6,
    tetrahedron,
    torus7,
    tree_cotree_field,
)
from dms.formats import parse_cwp
from dms.morsefield import (
    MorseFunction,
    VectorField,
    critical_cells,
    synthesize_function,
)


@pytest.fixture(scope="session")
def tetra():
    return tetrahedron()


@pytest.fixture(scope="session")
def torus():
    return torus7()


@pytest.fixture(scope="session")
def rp2():
    return projective_plane6()


@pytest.fixture(scope="session")
def pillow_sphere():
    return pillow()


@pytest.fixture(scope="session")
def grid_torus():
    return _grid_torus


@pytest.fixture(scope="session")
def genus2():
    return genus_surface(2)


@pytest.fixture(scope="session")
def genus3():
    return genus_surface(3)


def _grid_torus(n):
    """An n x n torus of squares, n >= 3: vertex p<i>-<j>, edges a<i>-<j>
    to p<i+1>-<j> and b<i>-<j> to p<i>-<j+1>, square s<i>-<j> on both,
    indices mod n.  No vertex lies on a triangle."""
    def p(i, j):
        return "p%d-%d" % (i % n, j % n)

    records = []
    for i in range(n):
        for j in range(n):
            records += [
                (p(i, j), 0, []),
                ("a%d-%d" % (i, j), 1, [p(i, j), p(i + 1, j)]),
                ("b%d-%d" % (i, j), 1, [p(i, j), p(i, j + 1)]),
                ("s%d-%d" % (i, j), 2, [
                    "a%d-%d" % (i, j), "b%d-%d" % ((i + 1) % n, j),
                    "a%d-%d" % (i, (j + 1) % n), "b%d-%d" % (i, j)]),
            ]
    return build_poset(records)


def _torus_facets(shift):
    """The 7-vertex torus on the vertices shift .. shift + 6."""
    out = []
    for i in range(7):
        out.append(tuple(sorted((i % 7 + shift, (i + 1) % 7 + shift,
                                 (i + 3) % 7 + shift))))
        out.append(tuple(sorted((i % 7 + shift, (i + 2) % 7 + shift,
                                 (i + 3) % 7 + shift))))
    return out


def _glued_genus2_facets():
    """Two 7-vertex tori, each without one triangle, with the vertices
    of the two missing triangles identified: a genus-2 surface on 11
    vertices that compose did not build."""
    A = [t for t in _torus_facets(0) if t != (0, 1, 3)]
    ident = {10: 0, 11: 1, 13: 3}
    B = [tuple(sorted(ident.get(v, v) for v in t))
         for t in _torus_facets(10) if t != (10, 11, 13)]
    return A + B


def _flip_edges(facets, flips, seed):
    """The triangles after `flips` seeded tries of a bistellar edge flip:
    an edge ab on triangles abc and abd becomes cd, unless cd is an edge
    already.  A flip keeps the surface a simplicial complex of the same
    genus."""
    rng = random.Random(seed)
    tris = sorted(tuple(sorted(t)) for t in facets)
    for _ in range(flips):
        at = {}
        for t in tris:
            for e in combinations(t, 2):
                at.setdefault(e, []).append(t)
        a, b = rng.choice(sorted(at))
        t1, t2 = at[a, b]
        (c,) = set(t1) - {a, b}
        (d,) = set(t2) - {a, b}
        if (min(c, d), max(c, d)) in at:
            continue
        tris = sorted(set(tris) - {t1, t2}
                      | {tuple(sorted((a, c, d))), tuple(sorted((b, c, d)))})
    return tris


DATA = Path(__file__).parent / "data"


def frozen_surface(g):
    """A fresh copy of genus_surface(g)'s complex as compose built it
    while its beta could share an edge at the critical vertex with the
    critical triangle, read from data/genus<g>.cwp (g = 2..6).  The
    splitter's sweeps, goldens and known refusals were recorded on these
    surfaces, so they keep testing what they found whatever compose now
    builds."""
    return parse_cwp((DATA / ("genus%d.cwp" % g)).read_text(
        encoding="utf-8"))


@pytest.fixture(scope="session")
def glued_genus2():
    """glued_genus2(flips=0, seed=0): the glued genus-2 surface after
    `flips` seeded edge-flip tries."""
    def build(flips=0, seed=0):
        return build_simplicial(_flip_edges(_glued_genus2_facets(), flips,
                                            seed))
    return build


def _random_root_field(K, seed):
    """A tree-cotree field on the closed surface K grown from a root
    vertex and a root facet drawn at random, neighbours taken in a
    shuffled order.  It is perfect and valid like tree_cotree_field(K,
    rng), whose roots are always the smallest vertex and facet."""
    rng = random.Random(seed)
    root = rng.choice(sorted(K.cells_of_dim(0)))
    pairs, tree, seen, frontier = [], set(), {root}, [root]
    while frontier:
        cur = frontier.pop(0)
        edges = sorted(e for e in K.cofaces(cur) if K.dim(e) == 1)
        rng.shuffle(edges)
        for e in edges:
            (other,) = K.boundary(e) - {cur}
            if other not in seen:
                seen.add(other)
                tree.add(e)
                pairs.append((other, e))
                frontier.append(other)
    root = rng.choice(sorted(K.cells_of_dim(2)))
    seen, frontier = {root}, [root]
    while frontier:
        cur = frontier.pop(0)
        edges = sorted(K.boundary(cur) - tree)
        rng.shuffle(edges)
        for e in edges:
            (other,) = set(K.cofaces(e)) - {cur}
            if other not in seen:
                seen.add(other)
                pairs.append((e, other))
                frontier.append(other)
    return VectorField(pairs)


@pytest.fixture(scope="session")
def random_root_field():
    """random_root_field(K, seed): a seeded tree-cotree field on K whose
    root vertex and root facet are drawn at random."""
    return _random_root_field


def _depth_first_cotree_field(K, seed):
    """tree_cotree_field(K)'s spanning tree of the 1-skeleton, with a
    seeded depth-first spanning tree of the dual graph on the other
    edges, grown from a root facet drawn at random, neighbours taken in
    a shuffled order.  The root facet stays critical.  Unlike a
    breadth-first dual tree, which crosses every edge of its root that
    the primal tree leaves, it may leave critical edges on that facet."""
    rng = random.Random(seed)
    pairs = [p for p in tree_cotree_field(K).pairs() if K.dim(p[0]) == 0]
    tree = {e for _, e in pairs}

    def shuffled(t):
        edges = sorted(K.boundary(t) - tree)
        rng.shuffle(edges)
        return iter(edges)

    root = rng.choice(sorted(K.cells_of_dim(2)))
    seen, stack = {root}, [(root, shuffled(root))]
    while stack:
        cur, edges = stack[-1]
        for e in edges:
            (other,) = set(K.cofaces(e)) - {cur}
            if other not in seen:
                seen.add(other)
                pairs.append((e, other))
                stack.append((other, shuffled(other)))
                break
        else:
            stack.pop()
    return VectorField(pairs)


@pytest.fixture(scope="session")
def depth_first_cotree_field():
    """depth_first_cotree_field(K, seed): a field on K whose dual tree
    is a seeded depth-first one."""
    return _depth_first_cotree_field


# the random_valid_field seeds on the tetrahedron, torus7 and
# frozen_surface(2) ("genus2") on which the corner cut between two
# critical polygons keeps cutting while the piece left critical keeps
# part of their shared boundary, until the step budget runs out
INSEPARABLE_SEEDS = {("tetrahedron", 37), ("torus7", 38), ("genus2", 6),
                     ("genus2", 17), ("genus2", 21), ("genus2", 25)}


@pytest.fixture(scope="session")
def torus_field(torus):
    return tree_cotree_field(torus)


@pytest.fixture(scope="session")
def torus_function(torus, torus_field):
    return synthesize_function(torus, torus_field)


def _sphere3():
    """The boundary of the 4-simplex: a 3-sphere, cells `c<vertices>`."""
    records = []
    for k in range(4):
        for s in combinations(range(5), k + 1):
            sid = "c" + "-".join(map(str, s))
            bnd = ["c" + "-".join(map(str, f))
                   for f in combinations(s, k)] if k else []
            records.append((sid, k, bnd))
    return build_poset(records)


def _collapse_field(K, alpha):
    """The field of a greedy sequence of free-face collapses of K with
    the top cell alpha removed, smallest free face first."""
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


@pytest.fixture(scope="session")
def sphere3():
    return _sphere3


@pytest.fixture(scope="session")
def collapse_field():
    return _collapse_field


class ComposeSides:
    """Where compose(M1, f1, M2, f2) puts each cell of its result, read
    from the prefixes it names that link with (surgery._link_names(M1)):
    `m1:`, `m2:`, `inner:m2:` and `tube:` on a first link, stamps and
    M1's own ids along a chain."""

    def __init__(self, M1):
        self.names = surgery._link_names(M1)

    def left(self, cid):
        """The id in the result of M1's cell cid."""
        return self.names.left + cid

    def right(self, cid):
        """The id in the result of M2's cell cid, if it is glued."""
        return self.names.right + cid

    def side(self, cid):
        """"tube" for a tube cell, "right" for a cell glued from M2 (one
        of its own or a collar cell), "left" for the rest."""
        names = self.names
        if cid.startswith(names.tube):
            return "tube"
        if cid.startswith((names.right, names.inner)):
            return "right"
        return "left"

    def right_source(self, cid):
        """The cell of M2 that the glued cell cid is, or that it is the
        collar cell of."""
        for prefix in (self.names.right, self.names.inner):
            if cid.startswith(prefix):
                return cid[len(prefix):]
        raise ValueError("%r is not glued from the second summand" % cid)

    def tube_base(self, cid):
        """The cell of the result that the tube cell cid lies over."""
        return cid[len(self.names.tube):cid.rindex(":")]


def _rebuild(K, remove=(), add=()):
    """K.replace_cells(remove, add) done the slow way: a Complex built
    from scratch on the new cell list, in the order the edit keeps."""
    remove = set(remove)
    cells = {cid: c for cid, c in K.cells.items() if cid not in remove}
    for cell in add:
        cells[cell.id] = cell
    return Complex(cells.values())


def _assert_same_complex(K, R):
    """K and R agree in cells and their order, top dimension, cell
    counts and Euler characteristic, every coface list, every closure,
    every 2-cell walk and both flags, and K's tables keep no dropped
    cell.  K's counts are the ones it kept, so they are also tallied
    here from its cells."""
    assert K == R and list(K.cells) == list(R.cells)
    assert K._cofaces.keys() == K.cells.keys()
    for cid in R.cells:
        assert K.closure(cid) == R.closure(cid), cid
    assert K._cycles.keys() == set(K.cells_of_dim(2))
    assert K.top_dim == R.top_dim
    assert K.counts() == R.counts() == tuple(
        len(R.cells_of_dim(p)) for p in range(R.top_dim + 1))
    assert euler_characteristic(K) == euler_characteristic(R) == sum(
        (-1) ** c.dim for c in R.cells.values())
    for cid in R.cells:
        assert K.cofaces(cid) == R.cofaces(cid), cid
    for t in R.cells_of_dim(2):
        assert K.boundary_cycle(t) == R.boundary_cycle(t), t
    assert K.is_pseudomanifold == R.is_pseudomanifold
    assert K.is_closed_surface == R.is_closed_surface


@pytest.fixture(scope="session")
def rebuild():
    return _rebuild


@pytest.fixture(scope="session")
def assert_same_complex():
    return _assert_same_complex


@pytest.fixture
def spy(monkeypatch):
    """spy(fn) records the calls to fn through every dms module that
    binds it and returns the list of their argument tuples."""
    def install(fn):
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

    return install


def critical_ids(V, K):
    """The critical cells of V on K, of every dimension, in id order."""
    return sorted(c for cs in critical_cells(V, K).cells.values()
                  for c in cs)


def drafted(cut, K, V, *args):
    """cut(K2, V2, *args, values), an in-place cut of dms.surgery, on
    drafts K2 and V2 of K and V, patching the values of the function
    synthesized for V: returns K2, V2 and what the cut returns."""
    K, V = K._draft(), V._draft()
    return K, V, cut(K, V, *args, dict(synthesize_function(K, V).values))


def separated(K, V):
    """drafted for surgery._separate_critical_cells, handed V's critical
    cells as critical_cells lists them: K2, V2 and the step records."""
    return drafted(surgery._separate_critical_cells, K, V,
                   chain(*critical_cells(V, K).cells.values()))


@pytest.fixture
def each_separation_step(monkeypatch):
    """each_separation_step(check) runs check(index, K, V) on the index
    surgery._separate_critical_cells carries, once it is built and after
    every step, with the complex and field it then describes."""
    made = []  # the complex and field being separated

    def install(check):
        init = surgery._CriticalIndex.__init__
        update = surgery._CriticalIndex.update
        separate = surgery._separate_critical_cells

        def checked_init(self, K, critical):
            init(self, K, critical)
            assert made[-1][0] is K
            check(self, *made[-1])

        def checked_update(self, K, rec):
            update(self, K, rec)
            assert made[-1][0] is K
            check(self, *made[-1])

        # the loop edits the complex and field it is handed in place
        def recorded(K, V, *args, **kwargs):
            made.append((K, V))
            return separate(K, V, *args, **kwargs)

        monkeypatch.setattr(surgery._CriticalIndex, "__init__", checked_init)
        monkeypatch.setattr(surgery._CriticalIndex, "update", checked_update)
        monkeypatch.setattr(surgery, "_separate_critical_cells", recorded)

    return install


def ordered_function(K, V, first, last):
    """A Morse function inducing V on K: the ranks of a topological order
    of the face relation with V's pairs reversed, the cells of `first`
    taken as early and those of `last` as late as the order allows."""
    pm = V.partner_map()
    after = {c: [] for c in K.cells}
    need = dict.fromkeys(K.cells, 0)
    for c in K.cells:
        for x in K.boundary(c):
            a, b = (c, x) if pm.get(x) == c else (x, c)
            after[a].append(b)
            need[b] += 1

    def key(c):
        return (c not in first) + (c in last), c

    ready = [key(c) for c in K.cells if not need[c]]
    heapq.heapify(ready)
    values = {}
    while ready:
        _, c = heapq.heappop(ready)
        values[c] = float(len(values))
        for b in after[c]:
            need[b] -= 1
            if not need[b]:
                heapq.heappush(ready, key(b))
    return MorseFunction(values)


def facet_components(K, facets, cut_edges):
    """The facets in components, adjacent across their own edges not in
    cut_edges: a whole-set search, the tests' oracle for the sides of a
    cut."""
    adj = {t: [] for t in facets}
    for t in adj:
        for e in K.boundary(t):
            if e not in cut_edges:
                adj[t].extend(o for o in K.cofaces(e) if o != t and o in adj)
    return components(adj, adj)
