"""Canonical test surfaces and the tree-cotree field generator.

tree_cotree_field is the independent source of perfect gradient fields:
a breadth-first spanning tree of the 1-skeleton matches vertices toward
a root vertex, a breadth-first spanning tree of the dual graph on the
remaining edges matches edges toward a root facet, and the 2g leftover
edges are critical.  Both searches start from the smallest id, so the
output is reproducible.
"""

import random
from collections import deque

from .cellcomplex import build_poset, build_simplicial
from .errors import Disconnected, NotClosedSurface, UnknownFixture
from .morsefield import VectorField, synthesize_function


def tetrahedron():
    """Boundary of the 3-simplex: the minimal sphere."""
    return build_simplicial([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def torus7():
    """The 7-vertex torus (complete graph K7 embedded)."""
    facets = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    facets += [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    return build_simplicial(facets)


def projective_plane6():
    """The 6-vertex projective plane (antipodal icosahedron quotient)."""
    facets = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
              (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)]
    return build_simplicial(facets)


def pillow():
    """Sphere made of two square 2-cells glued along one 4-cycle."""
    records = [
        ("p0", 0, []), ("p1", 0, []), ("p2", 0, []), ("p3", 0, []),
        ("q0", 1, ["p0", "p1"]), ("q1", 1, ["p1", "p2"]),
        ("q2", 1, ["p2", "p3"]), ("q3", 1, ["p3", "p0"]),
        ("sqA", 2, ["q0", "q1", "q2", "q3"]),
        ("sqB", 2, ["q0", "q1", "q2", "q3"]),
    ]
    return build_poset(records)


def tree_cotree_field(K, rng=None):
    """Perfect gradient field on a connected closed surface.

    With rng given, neighbor orders are shuffled for randomized variants
    (still valid and perfect, just a different spanning pair of trees).
    """
    if K.top_dim != 2:
        raise NotClosedSurface("tree-cotree needs a 2-complex")
    verts = K.cells_of_dim(0)
    facets = K.cells_of_dim(2)

    def shuffled(items):
        if rng is not None:
            rng.shuffle(items)
        return items

    def search(root, links):
        """Breadth-first from root: the nodes reached, and (link, node)
        for each other one, reached by that link; links(node) yields the
        (link, neighbour) pairs to try, in order."""
        seen, frontier, tree = {root}, deque([root]), []
        while frontier:
            for link, node in links(frontier.popleft()):
                if node not in seen:
                    seen.add(node)
                    tree.append((link, node))
                    frontier.append(node)
        return seen, tree

    # a vertex's cofaces are edges, and an edge has two distinct ends
    seen, tree = search(verts[0], lambda v: (
        (e, *(K.boundary(e) - {v})) for e in shuffled(sorted(K.cofaces(v)))))
    if len(seen) != len(verts):
        raise Disconnected("1-skeleton is not connected")
    tree_edges = {e for e, _ in tree}

    def dual_links(t):
        for e in shuffled(sorted(K.boundary(t))):
            if e not in tree_edges:
                other = [x for x in K.cofaces(e) if x != t]
                if len(other) == 1:
                    yield e, other[0]

    seen, cotree = search(facets[0], dual_links)
    if len(seen) != len(facets):
        raise Disconnected("dual graph is not connected")
    return VectorField([(v, e) for e, v in tree] + cotree)


def random_valid_field(K, seed):
    """Random valid acyclic matching: a randomized tree-cotree field with
    a random subset of its pairs dropped (subsets stay valid)."""
    rng = random.Random(seed)
    V = tree_cotree_field(K, rng=rng)
    keep = [p for p in V.pairs() if rng.random() < 0.8]
    return VectorField(keep)


def genus_surface(g):
    """(complex, function, field) for the closed oriented genus-g surface.

    g = 0 is the tetrahedron, g = 1 the 7-vertex torus; higher genus is
    built by repeated composition with a torus.
    """
    from .surgery import compose  # deferred: fixtures are imported early

    # a bool is an int to isinstance, but no genus
    if not isinstance(g, int) or isinstance(g, bool) or g < 0:
        raise UnknownFixture("genus must be a non-negative integer, not %r"
                             % (g,))
    base = tetrahedron() if g == 0 else torus7()
    V = tree_cotree_field(base)
    f = synthesize_function(base, V)
    if g <= 1:
        return base, f, V
    K, fk = base, f
    for _ in range(g - 1):
        T = torus7()
        ft = synthesize_function(T, tree_cotree_field(T))
        K, fk, V, _ = compose(K, fk, T, ft)
    return K, fk, V


def fixture_complex(kind):
    if kind == "sphere":
        return tetrahedron()
    if kind == "torus7":
        return torus7()
    if kind == "pillow":
        return pillow()
    if kind == "rp2":
        return projective_plane6()
    if kind.startswith("genus"):
        return genus_surface(fixture_genus(kind))[0]
    raise UnknownFixture("unknown fixture kind %r" % kind)


def fixture_genus(kind):
    """The g of a fixture kind `genus<g>`; UnknownFixture when the rest
    of the kind is not ASCII decimal digits alone."""
    g = kind[len("genus"):]
    if not (g.isascii() and g.isdigit()):
        raise UnknownFixture("bad genus in fixture kind %r" % kind)
    return int(g)
