"""Decomposition of a perfect gradient field on a closed oriented surface.

Pipeline: pick the critical edges for each summand by function value,
reverse-trace the 2-paths from the critical facet to the chosen high
edges (the carved core region), repair the region boundary until it is
a single circle whose cells are matched along the circle or away from
the region, split, and cap both pieces with cones.  The input function
rides along: every cut patches its values and every cap gives its cone
values, so the pieces keep it, and nothing is synthesized.

The single repair primitive is corridor excavation: a marked sliver of
the region (a pinch corner at a wedge vertex, or the neighborhood of an
interior chain that the boundary points into) is cut off by bisections
so that every new boundary cell is matched with a cell outside the
region.  Critical-cell counts never change.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .cellcomplex import Complex, Cell, components, cycle_walk, \
    euler_characteristic, new_cell, verify_closed_surface
from .errors import (
    BoundaryCriticalPresent,
    InconsistentField,
    NoFlankingCells,
    NonOrientableInput,
    NotPerfectInput,
    NotSeparating,
    PathEscapes,
    StartIsCritical,
    UnbalancedBoundaryCriticals,
    WrongCriticalCount,
)
from .morsefield import (
    MorseFunction,
    VectorField,
    _check_carried,
    _critical_among,
    _dense_ranks,
    trace_2path,
)
from .surgery import _around, _bisect_edge, _checked_summand, _cut_corner, \
    _separate_critical_cells


@dataclass
class CoreRegion:
    """The carved region R: its facets, path and high edges, critical
    facet, and its edges with one region coface (`boundary`) and two
    (`interior`), counted once by carve_core and kept by _follow.
    `low_edges` lists the low critical edges, which
    _expel_foreign_criticals cuts out of R, in the order of their ids on
    entry; _follow renames them, as it renames the high edges."""
    facets: set
    path_edges: set
    high_edges: set
    critical_facet: str
    boundary: set
    interior: set
    low_edges: list = field(default_factory=list)
    made: set = field(default_factory=set)  # cells the bisections made


@dataclass(frozen=True)
class BoundaryGraph:
    """The vertices of the region's boundary edges with their degrees,
    and the wedge vertices among them, degree >= 4, in id order."""
    degree: dict
    wedge_vertices: tuple


@dataclass
class SplitResult:
    circle: tuple             # alternating v, e, v, e, ... cycle
    min_complex: Complex
    min_field: VectorField
    max_complex: Complex
    max_field: VectorField
    critical_vertex: str      # V's critical vertex, on the min side


@dataclass
class DecomposeResult:
    """The two capped pieces of decompose, each with its perfect field
    and the function it carries: the input's values (or their dense
    ranks) on every cell no cut or cap touched, patched values on the
    cells the cuts made and a cut raised, and cone values.  m1 holds the
    critical vertex and g1 handles, m2 the critical facet and g2."""
    m1_complex: Complex
    m1_field: VectorField
    m1_function: MorseFunction
    m2_complex: Complex
    m2_field: VectorField
    m2_function: MorseFunction
    circle: tuple
    report: dict


# --- region bookkeeping ------------------------------------------------------


def _boundary_and_interior(K, facets):
    count = Counter(e for t in facets for e in K.boundary(t))
    boundary = {e for e, n in count.items() if n == 1}
    interior = {e for e, n in count.items() if n == 2}
    return boundary, interior


def _follow(K, region, rec):
    """Follow one cut into the region in place, the one rule that
    changes its sets.  The cut cell's heir, the half inheriting its
    role, takes its place among the path, high and low edges and as the
    critical facet, and the new cells join `made`.  An edge split puts
    both halves where the edge was, on the boundary or inside.  The
    splitter cuts a 2-cell only as _excavate's corner cut of a region
    facet, with new cells (chord, rest, corner): the rest replaces the
    facet in R and the corner leaves R.  So the chord joins the
    boundary, and each other edge of the corner loses a region coface:
    an interior edge moves to the boundary, a boundary edge leaves R."""
    (old, heir), = rec.replacements.items()
    region.made.update(rec.new_cells)
    for cells in (region.path_edges, region.high_edges):
        if old in cells:
            cells.remove(old)
            cells.add(heir)
    if old in region.low_edges:
        region.low_edges[region.low_edges.index(old)] = heir
    if region.critical_facet == old:
        region.critical_facet = heir
    if K.dim(rec.new_cells[0]) == 0:  # an edge split at a new vertex
        for side in (region.boundary, region.interior):
            if old in side:
                side.remove(old)
                side.update(rec.new_cells[1:])
        return
    chord, rest, corner = rec.new_cells
    region.facets.remove(old)
    region.facets.add(rest)
    # each edge of the corner flips: the chord and interior ones join
    region.interior -= K.boundary(corner)
    region.boundary ^= K.boundary(corner)


def _stray(region, e):
    """Whether e is a stray edge: interior, but no path or high edge."""
    return e in region.interior and e not in region.path_edges \
        and e not in region.high_edges


def _vertices(K, edges):
    """The endpoints of the given edges."""
    return {v for e in edges for v in K.boundary(e)}


# --- spec operations ---------------------------------------------------------


def _check_genera(g1, g2):
    # a bool is an int to isinstance, but no genus
    if not all(isinstance(g, int) and not isinstance(g, bool)
               for g in (g1, g2)):
        raise WrongCriticalCount(
            "genera must be integers, not %r and %r" % (g1, g2))
    if g1 < 0 or g2 < 0:
        raise WrongCriticalCount("negative genus g1=%d, g2=%d" % (g1, g2))
    if g1 + g2 < 1:
        raise WrongCriticalCount(
            "g1 + g2 must be at least 1, not %d" % (g1 + g2))


def _split_edges(f, crit, g1, g2):
    """The critical edges of crit, the critical cells of the field f
    induces, split by value for checked genera: the lowest 2*g1 belong to
    the summand with the critical vertex, the highest 2*g2 to the one
    with the critical facet.

    The order is that of make_injective(K, f), which sorts the cells by
    (f, tie rank, id).  Only the lower cell of an equal-valued pair has
    a tie rank other than 0, so the unmatched critical edges all have
    rank 0, and sorting them by (f, id) on f itself orders them the same
    way without sorting the whole complex.
    """
    edges = list(crit.cells.get(1, ()))
    if len(edges) != 2 * (g1 + g2):
        raise WrongCriticalCount(
            "%d critical edges, need %d" % (len(edges), 2 * (g1 + g2)))
    edges.sort(key=lambda e: (f[e], e))
    return tuple(edges[:2 * g1]), tuple(edges[len(edges) - 2 * g2:])


def carve_core(K, V, high_edges, crit2):
    """Union of the reverse-traced 2-paths from both cofaces of every
    high edge to crit2, V's one critical facet, which the caller knows,
    plus crit2 and the high edges themselves."""
    facets = {crit2}
    path_edges = set()
    for e in sorted(high_edges):
        cofaces = sorted(K.cofaces(e))
        if len(cofaces) != 2:
            raise PathEscapes("high edge %s has %d cofaces" % (e, len(cofaces)))
        for t in cofaces:
            if t == crit2:
                raise PathEscapes(
                    "high edge %s touches the critical facet" % e)
            try:
                path = trace_2path(K, V, t, crit2)
            except (InconsistentField, StartIsCritical) as err:
                raise PathEscapes(str(err))
            facets.update(path.steps[1::2])
            path_edges.update(path.steps[0::2])
    boundary, interior = _boundary_and_interior(K, facets)
    return CoreRegion(facets=facets, path_edges=path_edges,
                      high_edges=set(high_edges), critical_facet=crit2,
                      boundary=boundary, interior=interior)


def classify_boundary(K, region):
    """The degrees of the vertices on the region's boundary edges
    (region.boundary, as _follow keeps it), and its wedge vertices.

    Around a vertex's link cycle, region and other facets switch exactly
    at the region's boundary edges, the edges with one region coface.  A
    cycle switches an even number of times, so every degree d is even,
    and the d switches cut the ring into runs that alternate between
    region sectors and other facets: a wedge (d >= 4) has >= 2 sectors.
    """
    degree = {}
    for e in region.boundary:
        for v in K.boundary(e):
            degree[v] = degree.get(v, 0) + 1
    wedges = tuple(sorted(v for v, d in degree.items() if d >= 4))
    return BoundaryGraph(degree=degree, wedge_vertices=wedges)


# --- the excavation engine ---------------------------------------------------


def _runs_on_cycle(cycle, marked):
    """Maximal contiguous runs of marked cells on a cyclic walk; both
    callers pass a cycle that holds a marked cell."""
    n = len(cycle)
    flags = [cell in marked for cell in cycle]
    if all(flags):
        raise NoFlankingCells("entire cycle marked")
    runs = []
    start = flags.index(False)
    run = []
    for k in range(n):
        j = (start + k) % n
        if flags[j]:
            run.append(j)
        elif run:
            runs.append(run)
            run = []
    if run:
        runs.append(run)
    return runs


def _excavate(K, V, region, marked, values):
    """Cut the marked sliver of every listed facet out of the region.

    marked maps facet id -> cells of its boundary cycle to expel.  Cuts
    land on existing boundary vertices or on fresh midpoints of the
    crossed interior edges, so every new boundary cell ends up matched
    with a cell outside the region.  K, V and the region are edited in
    place, in three passes over the marked facets in id order: a
    pre-pass gives each unmarked edge with both ends marked a midpoint,
    the rungs split the interior edges with one marked end, and the
    corners are cut off, each by edge bisections and one corner cut.
    _follow keeps the region's edges through every cut, but the rung
    pass reads the interior as it stood before it.  `values`, a
    function's values, is patched along by every cut
    (surgery._patch_values).
    """
    marked = {t: set(cs) for t, cs in marked.items()}

    # Pre-pass: an unmarked edge of a marked facet with both ends marked
    # gains a midpoint first.  A one-vertex mark (a wedge, the critical
    # vertex) has none.  A stray chain has one where a marked facet holds
    # two chain vertices off the curve joined by an edge off the chain, a
    # path or critical edge; no known field does this, and nothing proves
    # that none can.  One pass finds them all: bisections of distinct
    # edges commute, and a midpoint is never marked, so no bisection
    # makes another such edge.
    for t in sorted(marked):
        mk = marked[t]
        for e in K.boundary_cycle(t)[1::2]:
            if e not in mk and K.boundary(e) <= mk:
                _follow(K, region, _bisect_edge(K, V, e, None, values))

    # rungs: unmarked interior edges flanking a marked cell; bisect each
    # once, anchored away from the marked endpoint.  Each facet's cycle is
    # read after the earlier splits, so it lists no rung split before.
    # The pass reads the interior as it stood before it: the live set
    # lists the halves of a rung split earlier in the pass, and the half
    # at the marked end would qualify as a rung again.
    interior = set(region.interior)
    rung_mid = {}
    for t in sorted(marked):
        cycle = K.boundary_cycle(t)
        mk = marked[t]
        for i in range(1, len(cycle), 2):
            e = cycle[i]
            if e in mk or e not in interior:
                continue
            ends = sorted(K.boundary(e))
            marked_ends = [x for x in ends if x in mk]
            if len(marked_ends) != 1:
                continue
            partner = V.partner_map().get(e)
            if partner == marked_ends[0]:
                raise InconsistentField(
                    "rung %s is matched with its expelled endpoint" % e)
            rec = _bisect_edge(K, V, e, [x for x in ends if x not in mk][0],
                               values)
            _follow(K, region, rec)
            rung_mid[e] = rec.new_cells  # w, e1 and e2, the expelled half
    # fold the expelled halves into the marked sets of their facets; the
    # rungs split only edges, so every marked facet is still a cell
    for e, (w, e1, e2) in rung_mid.items():
        for t in marked:
            if e2 in K.cells[t].boundary:
                marked[t].add(e2)

    # cut the corners facet by facet.  Each marked facet is worked as one
    # piece p: a joining-edge split keeps p's id, and a corner cut
    # replaces p with the half the region keeps.
    for orig in sorted(marked):
        p = orig
        for _ in range(4 * len(K.cells) + 20):
            cyc = list(K.boundary_cycle(p))
            if marked[orig].isdisjoint(cyc):
                break
            run = _runs_on_cycle(cyc, marked[orig])[0]
            n = len(cyc)
            corner = {cyc[i] for i in run}
            before = (run[0] - 1) % n
            after = (run[-1] + 1) % n
            boundary_vertices = _vertices(K, region.boundary)

            def cut_point(idx, step):
                # step +1 walks forward, -1 backward from the run; the
                # cycle's length is even, so this returns vertex positions
                cell = cyc[idx]
                if idx % 2 == 0:
                    nxt_edge = cyc[(idx + step) % n]
                    if cell not in boundary_vertices \
                            or nxt_edge in region.interior:
                        return idx
                    # anchor on the curve: expel the flank edge as well
                    marked[orig].update((cell, nxt_edge))
                    corner.update((cell, nxt_edge))
                    return (idx + 2 * step) % n
                # an edge: boundary flanks are expelled, cut past them
                if cell in region.boundary:
                    marked[orig].add(cell)
                    corner.add(cell)
                    return (idx + step) % n
                raise NoFlankingCells(
                    "unexpected interior flank %r at %r" % (cell, p))

            ia = cut_point(before, -1)
            ib = cut_point(after, +1)
            if cyc[ia] in marked[orig] or cyc[ib] in marked[orig]:
                # extension landed on marked cells; redo run detection
                continue
            u, w = cyc[ia], cyc[ib]
            if u == w:
                raise NoFlankingCells("corner swallows polygon %r" % p)
            joining = [cyc[i] for i in range(1, n, 2)
                       if K.boundary(cyc[i]) == frozenset({u, w})]
            if joining:
                g = joining[0]
                rec = _bisect_edge(K, V, g, None, values)
                _follow(K, region, rec)
                if g in marked[orig]:
                    marked[orig].update(rec.new_cells)
                continue
            # a critical p passes its criticality to the kept rest
            rec = _cut_corner(K, V, p, u, w, corner, values)
            _follow(K, region, rec)
            p = rec.new_cells[1]
        else:
            raise NoFlankingCells("corner cutting did not converge")


def _stray_closure(K, V, region, seed):
    """Grow the seed edge along the vertex arrows leaving it, so the
    excavated corridor carries its own matching out.

    No edge is reached twice: each vertex is visited once and pushes
    only its own partner edge, and the seed is no vertex's push, as it
    is critical or matched with a vertex on the boundary curve."""
    pm = V.partner_map()
    bverts = _vertices(K, region.boundary)
    z_edges = set()
    z_verts = set()
    frontier = [seed]
    while frontier:
        e = frontier.pop()
        z_edges.add(e)
        for x in K.boundary(e):
            if x in bverts or x in z_verts:
                continue
            z_verts.add(x)
            p = pm.get(x)
            if _stray(region, p):
                frontier.append(p)
    return z_edges, z_verts


def _excavate_stray(K, V, region, seed, values):
    """Excavate the stray closure of `seed`, an edge with a region coface
    (the callers check it), so some region facet is always marked; the
    cuts patch `values` along."""
    z_edges, z_verts = _stray_closure(K, V, region, seed)
    marked = {}
    zcells = z_edges | z_verts
    for t in sorted(region.facets):
        hit = zcells & set(K.boundary_cycle(t))
        if hit:
            marked[t] = hit
    _excavate(K, V, region, marked, values)


def _sectors_at(K, region, v):
    """Maximal fans of region facets in the rotation around v, a vertex
    on the region's boundary (see classify_boundary)."""
    ring = K.link_cycle(v)[1::2]
    return [[ring[i] for i in run]
            for run in _runs_on_cycle(ring, region.facets)]


def _resolve_wedge(K, V, region, v, values):
    """Reroute the boundary around a wedge vertex (Case 1): shave the
    corner at v off every region sector except one, so exactly one
    strand still passes through v; a wedge has at least two sectors (see
    classify_boundary).  K, V, the region and `values` (patched along)
    are edited in place."""
    sectors = _sectors_at(K, region, v)
    keep = min(range(len(sectors)), key=lambda i: min(sectors[i]))
    marked = {}
    for i, sec in enumerate(sectors):
        if i == keep:
            continue
        for t in sec:
            marked.setdefault(t, set()).add(v)
    _excavate(K, V, region, marked, values)


# --- driver ------------------------------------------------------------------


def _inward_violations(K, V, region, bg):
    """Boundary vertices matched with a stray edge of the region (_stray),
    each with that edge."""
    pm = V.partner_map()
    return [(x, pm[x]) for x in sorted(bg.degree)
            if _stray(region, pm.get(x))]


def _expel_foreign_criticals(K, V, region, v0, low_edges, values):
    """Excavate the critical vertex v0 and the low critical edges, which
    belong to the other summand, out of the region, in place, `values`
    (patched along) included.  An excavation can bisect a low edge, so
    each is read off region.low_edges, which _follow renames."""
    region.low_edges = sorted(low_edges)
    marked = {t: {v0} for t in sorted(region.facets)
              if v0 in K.boundary_cycle(t)}
    if marked:
        _excavate(K, V, region, marked, values)
    for i in range(len(region.low_edges)):
        e = region.low_edges[i]
        if any(t in region.facets for t in K.cofaces(e)):
            _excavate_stray(K, V, region, e, values)


def find_separating_circle(K, f, g1, g2, values):
    """Drive the boundary repairs until the carved region is bounded by a
    single circle with no arrows pointing into it; returns the final
    (complex, field, circle walk, region), drafts of K and of the field
    that separation (surgery._separate_critical_cells) and every repair
    after it edit in place.  The field f induces and its critical cells
    come from compose's entry check, surgery._checked_summand (a record,
    or f checked in full), the one listing of them: separation is handed
    them, and the cuts' records carry them to their heirs.
    `values` holds f or a function inducing the same field, and every
    cut patches it in place (surgery._patch_values); the region's `made`
    lists every cell a cut made.  carve_core counts the region's edges
    once, and _follow keeps them through every cut.

    Each pass of the loop reads the boundary's degrees and wedges
    (classify_boundary) and makes one repair: it excavates the first
    inward violation, else resolves the first wedge.  With neither, every
    degree is 2, and the walk around region.boundary is the circle test:
    it returns the circle, or the boundary is k >= 2 disjoint circles,
    and NotSeparating is raised.  The loop needs only these two repairs,
    for these reasons.  Past `_expel_foreign_criticals` the region
    R only loses facets or splits them, so it never grows.  Each facet
    of R but the critical one stays matched with a path edge or with a
    chord cut on R's boundary.  High edges are critical, and
    `_expel_foreign_criticals` cut the other critical edges out of R's
    interior.  So an interior edge of R that is neither a path nor a
    high edge, a stray edge, is matched with one of its endpoints.

    * No stray chain joins two points of the boundary curve.  With no
      inward violation, the endpoint matched with a stray edge is off
      the curve.  A connected set of E stray edges has at most E + 1
      vertices and E of them are off the curve, so it meets the curve
      at most once.
    * The complement of R is connected once there are no violations and
      no wedges.  Then a vertex x in the closure of a complement
      component C has only facets of C around it, or one sector of R
      and one of C.  If x is not v0, the one critical vertex, its
      partner edge is no interior edge of R: a path edge is matched
      with a facet, a high edge is critical and a stray edge would be a
      violation.  So it lies in the closure of C, and the matched-edge
      chain from x stays there until it ends at v0.  Two components
      would both hold v0 in their closures, which makes v0 a wedge.

    Of the circle the loop guarantees the vertices: none is v0, cut out
    of R before the loop, and none is matched into R, by the exit above.
    A critical edge can still lie on it, the heir of a low critical edge
    across R between two points of its boundary.  The caps are the
    circle's one check, and decompose's max cone refuses that edge.
    """
    _check_genera(g1, g2)
    info = verify_closed_surface(K)
    if not info.orientable:
        raise NonOrientableInput("decompose needs an orientable surface")
    if info.genus != g1 + g2:
        raise WrongCriticalCount(
            "surface genus %s but g1+g2=%d" % (info.genus, g1 + g2))
    V, crit = _checked_summand(K, f)
    # a closed orientable surface of genus g has mod-2 Betti numbers
    # (1, 2g, 1)
    if crit.m != (1, 2 * info.genus, 1):
        raise NotPerfectInput(crit.m)
    low, high = _split_edges(f, crit, g1, g2)
    crit2 = crit.cells[2][0]

    K, V = K._draft(), V._draft()
    recs = _separate_critical_cells(K, V, chain(*crit.cells.values()), values)
    for rec in recs:
        (old, heir), = rec.replacements.items()
        low, high, (crit2,) = [[heir if c == old else c for c in cells]
                               for cells in (low, high, (crit2,))]
    region = carve_core(K, V, high, crit2)
    region.made.update(c for rec in recs for c in rec.new_cells)
    # no bisection splits or renames a vertex, so v0 outlives separation
    _expel_foreign_criticals(K, V, region, crit.cells[0][0], low, values)

    # the budget is fixed here, since every repair adds cells
    for _ in range(40 + 4 * len(K.cells)):
        bg = classify_boundary(K, region)
        viols = _inward_violations(K, V, region, bg)
        if viols:
            _excavate_stray(K, V, region, viols[0][1], values)
            continue
        if bg.wedge_vertices:
            _resolve_wedge(K, V, region, bg.wedge_vertices[0], values)
            continue
        circle, _ = cycle_walk({e: K.boundary(e) for e in region.boundary})
        if circle is not None:
            break
        # Every boundary vertex has degree 2, so R is bounded by k
        # disjoint circles; k >= 2, since R holds the critical facet but
        # no facet at v0 and the boundary is no single circle.  R's
        # complement is connected (see above), so no circle of R's
        # boundary separates.  Every such case tried so far decomposes
        # under some other split of the critical edges (ROADMAP item 1).
        at = {v: [] for v in bg.degree}
        for e in region.boundary:
            a, b = K.boundary(e)
            at[a].append(b)
            at[b].append(a)
        raise NotSeparating(
            "core region is bounded by %d disjoint circles with no "
            "connecting structure" % len(components(at, at)))
    else:
        raise InconsistentField("boundary repair did not converge")

    return K, V, circle, region


def split_along_circle(K, V, circle, facets):
    """Cut the surface along the circle into two sides, `facets` (a set)
    and the other facets, each the cells of its facets' walks cut out of
    K by `subcomplex`, with V's sorted pairs filtered to it.

    The one check is a certificate, in time proportional to `facets`:
    the edges with one coface among them are the circle's, or
    NotSeparating names the smallest edge that breaks it.  Then every
    edge off the circle has both cofaces on one side, and an embedded
    two-sided circle on a connected closed surface leaves at most two
    sides, so `facets` is one whole side and the other facets the other.
    The min side holds V's critical vertex (the smallest, should there
    be more), read off the sides' vertices: NotSeparating when it lies
    on the circle, WrongCriticalCount when V leaves none."""
    boundary, _ = _boundary_and_interior(K, facets)
    if boundary != set(circle[1::2]):
        e = min(boundary.symmetric_difference(circle[1::2]))
        raise NotSeparating(
            "the facets are no side of the circle: edge %s %s" % (
                e, "bounds them off the circle" if e in boundary
                else "is on the circle but does not bound them"))
    pm = V.partner_map()
    sides, crit = [], []
    for side in (facets, [t for t, c in K.cells.items()
                          if c.dim == 2 and t not in facets]):
        ids = set(side)
        for t in side:
            cycle = K.boundary_cycle(t)
            ids.update(cycle)
            crit.extend(v for v in cycle[0::2] if v not in pm)
        sides.append(ids)
    if not crit:
        raise WrongCriticalCount("the field leaves no vertex critical")
    v0 = min(crit)
    if v0 in sides[0] and v0 in sides[1]:
        raise NotSeparating("critical vertex lies on the cut")
    pieces = []
    for ids in (sides if v0 in sides[0] else sides[::-1]):
        pairs = tuple([p for p in V.pair_list if p[0] in ids and p[1] in ids])
        pieces += [K.subcomplex(ids), VectorField._of_sorted(pairs)]
    return SplitResult(tuple(circle), *pieces, v0)


def _cone_cells(piece, circle):
    """The cone over the circle that caps `piece`: its apex, the cone
    map from each circle cell to its cone coface (a radial edge per
    vertex, a triangle per edge) and the cone's cells, the apex, then
    the radials and the triangles in the circle's order.

    The cone is named `<name>:apex`, `<name>:r:<v>` and `<name>:t:<e>`,
    with `cone` as its name when no id of the piece starts with `cone:`,
    so a surface decomposed for the first time keeps its texts, and
    otherwise the first `cone2`, `cone3`, ... that no id of the piece
    starts with, followed by `:`.  So no cone id is an id of the piece:
    a decompose piece decomposes again."""
    heads = {cid.partition(":")[0] for cid in piece.cells
             if cid.startswith("cone") and ":" in cid}
    name, k = "cone", 1
    while name in heads:
        k += 1
        name = "cone%d" % k
    apex = name + ":apex"
    verts = circle[0::2]
    cone = {v: "%s:r:%s" % (name, v) for v in verts}
    cells = [new_cell(Cell, (apex, 0, frozenset()))]
    cells += [new_cell(Cell, (cone[v], 1, frozenset((v, apex))))
              for v in verts]
    for i, e in enumerate(circle[1::2]):
        cone[e] = "%s:t:%s" % (name, e)
        cells.append(new_cell(Cell, (cone[e], 2, frozenset(
            (e, cone[verts[i]], cone[verts[(i + 1) % len(verts)]])))))
    return apex, cone, cells


def cap_with_min_cone(piece, V, circle, values):
    """Cone over the circle with a critical apex: every boundary-critical
    cell is paired with its cone coface, and every pair along the circle
    gets the corresponding pair of cone cofaces.  So each radial and
    each triangle is paired exactly once, whatever the matching: the
    radial of a vertex v with v when v is critical, else with the
    triangle of v's partner edge; the triangle of an edge e with e when
    e is critical, else with the radial of e's partner, an end of e and
    so a circle vertex.

    With cap_with_max_cone, the circle's only check: a circle vertex
    matched off the circle, or a circle edge matched with a facet of the
    piece, raises UnbalancedBoundaryCriticals naming both cells.

    `values` holds a Morse function on the piece inducing V, and gains
    the cone's values (_min_cone_values)."""
    edges = circle[1::2]
    pm = V.partner_map()
    apex, cone, cells = _cone_cells(piece, circle)
    new_pairs = []
    for v in circle[0::2]:
        p = pm.get(v)
        if p is None:
            new_pairs.append((v, cone[v]))
        elif p in edges:
            new_pairs.append((cone[v], cone[p]))
        else:
            raise UnbalancedBoundaryCriticals(
                "circle vertex %s paired into the piece via %s" % (v, p))
    for e in edges:
        p = pm.get(e)
        if p is None:
            new_pairs.append((e, cone[e]))
        elif piece.dim(p) != 0:
            raise UnbalancedBoundaryCriticals(
                "circle edge %s paired with %s" % (e, p))
    _min_cone_values(values, pm, circle, apex, cone)
    return piece.replace_cells(add=cells), V.replace(add=new_pairs)


def _min_cone_values(values, pm, circle, apex, cone):
    """Give the min cone values in place: the apex 1 below the piece's
    least value, and the cone cell of each circle cell x f(x) - eps when
    x is critical in the piece (unmatched in pm), f(x) + eps when it is
    paired along the circle, as the cap pairs them.  eps is a quarter of
    the least positive gap |f(e) - f(v)| over the circle's edges e and
    their ends v, and at most 1/4.

    This is a Morse function on the capped piece inducing its field.
    Every circle cell is critical or paired along the circle (the cap
    checks it), and f induces V on the piece.  So for an end v of a
    circle edge e, f(v) < f(e) unless v and e are paired, and the gap is
    then at least 4 eps:
    - a critical circle vertex v lies below its piece cofaces and above
      its radial r_v, its one exceptional coface, which is paired with
      it; r_v lies above the apex and below both its triangles, f(e) -
      eps > f(v) - eps;
    - a circle vertex v paired with its circle edge e keeps that pair
      and lies below r_v.  r_v = f(v) + eps >= f(e) + eps = t_e pairs
      with t_e, and lies below the triangle of its other edge e', at f(e')
      - eps or above, with f(e') - f(v) >= 4 eps;
    - a critical circle edge e lies above its ends and below its piece
      facet, and t_e = f(e) - eps is its one exceptional coface, above
      the radials of its ends (at most f(v) + eps, f(e) - f(v) >= 4 eps);
    - a circle edge e paired with its end v keeps that pair and lies
      below t_e = f(e) + eps, which lies above the radial of its other
      end v' (f(v') < f(e)) and level with r_v, its partner;
    - the apex lies below every radial, at f(v) - 1/4 or above.
    """
    verts, edges = circle[0::2], circle[1::2]
    gaps = [abs(values[e] - values[v])
            for i, e in enumerate(edges)
            for v in (verts[i], verts[(i + 1) % len(verts)])]
    eps = min([g for g in gaps if g > 0] + [1.0]) / 4.0
    values[apex] = min(values.values()) - 1.0
    for x in circle:
        values[cone[x]] = values[x] + (eps if x in pm else -eps)


def cap_with_max_cone(piece, V, circle, values):
    """Cone over the circle carrying one new critical triangle: the fan
    pairing matches the apex with the first radial and each later radial
    with the triangle of the circle edge it starts.

    With cap_with_min_cone, the circle's only check: a circle cell not
    matched within the piece raises BoundaryCriticalPresent naming it,
    the first vertex, else the first edge, in the circle's order.
    decompose runs it first, on the min piece.

    `values` holds a Morse function on the piece inducing V, and gains
    the cone's values (_max_cone_values)."""
    verts = circle[0::2]
    edges = circle[1::2]
    pm = V.partner_map()
    for c in verts + edges:
        if c not in pm:
            raise BoundaryCriticalPresent(c)
    apex, cone, cells = _cone_cells(piece, circle)
    new_pairs = [(apex, cone[verts[0]])]
    new_pairs += [(cone[v], cone[e]) for v, e in zip(verts[1:], edges[1:])]
    # the triangle between r_0 and r_1 stays critical
    _max_cone_values(values, circle, apex, cone)
    return piece.replace_cells(add=cells), V.replace(add=new_pairs)


def _max_cone_values(values, circle, apex, cone):
    """Give the max cone values in place, above the piece's greatest
    value M, as a staircase down the fan pairing: the apex and the first
    radial r_0 get M + 1, the radial r_i of the i-th circle vertex and
    the triangle t_i of the circle edge it starts M + 1 + k - i (0 < i <
    k, k the circle's length), and the critical triangle t_0 M + 1 + k.

    This is a Morse function on the capped piece inducing its field.
    Every circle cell lies below its cone coface, above M, so it keeps
    its relations in the piece.  The apex is level with r_0, its partner,
    and below every other radial.  r_i lies above its circle vertex and
    the apex, level with t_i, its partner, and below t_{i-1}, one step
    up (t_0 for r_1, at the top), and r_0 lies below t_0 and t_{k-1}
    (M + 2).  t_i lies above its circle edge and r_{i+1}, one step down
    (r_0 for t_{k-1}, at M + 1), and the critical t_0 lies above all its
    faces.  The steps are integers added to one value, exact in floats
    while M stays below 2^52.
    """
    verts, edges = circle[0::2], circle[1::2]
    k = len(verts)
    low = max(values.values()) + 1.0
    values[apex] = values[cone[verts[0]]] = low
    for i in range(1, k):
        values[cone[verts[i]]] = values[cone[edges[i]]] = low + (k - i)
    values[cone[edges[0]]] = low + k


def _entry_values(f):
    """A copy of f's values for the cuts and caps to patch: f's own, or
    their dense ranks once one passes 2^40 in size, which keep every
    comparison and equality of f (as compose ranks its first summand),
    so the midpoints of the cuts stay exact."""
    values = dict(f.values)
    if values and max(map(abs, values.values())) > 2.0 ** 40:
        values = _dense_ranks(values)
    return values


def decompose(K, f, g1, g2):
    """Full pipeline: find the separating circle, split, and cap both
    sides, carrying f through every cut and cap: each piece's function
    is f on every cell that no cut or cap touched.

    f is copied, and ranked densely when a value passes 2^40 in size
    (_entry_values, by compose's rule _dense_ranks).  Every edge
    bisection and corner cut patches the copy in place
    (surgery._patch_values), the split keeps each side's values, and
    each cap gives its cone values (_max_cone_values, _min_cone_values);
    each rule proves its values valid and inducing the field the cut or
    cap makes.  Nothing is synthesized.

    Each piece's function is then checked on the cells the cuts and the
    cap touched alone, by the check compose makes of its result
    (morsefield._check_carried): the cells a cut made that lie on the
    piece, with their faces and cofaces (surgery._around), the circle's
    cells and the cone, the ids the cap gave values to.  That check is
    sound because:
    - f is valid and induces V on K (find_separating_circle checks it
      on every cell, or reads it off the record compose keeps on a K it
      returned with this very f);
    - any other cell of a piece is a cell of K, with its value, its
      faces and their values from f; a cell whose value a cut raises is
      a coface of a cell the cut made;
    - its cofaces in the piece are its cofaces in K: a cell of one side
      with a coface on the other lies on the circle; a piece only drops
      cofaces, which makes no cell exceptional;
    so its verdict and the pairs it is the higher cell of are those in K.
    Floats can round a midpoint onto an end; the check then raises
    InexactFunction naming the cells, so decompose never returns a
    function it found invalid.

    The report's Betti numbers are read off the classification of
    closed surfaces; nothing is ranked.  K is checked to be a closed
    orientable surface of genus g, so its mod-2 Betti numbers are
    (1, 2g, 1).  The circle is an embedded two-sided cycle that splits K
    into two connected sides (split_along_circle's certificate), each a
    union of facets bounded by the whole circle, and orientable, as part
    of K.  The cone over the circle closes it into a closed orientable
    connected surface, whose Betti numbers are then (1, 2 - chi, 1),
    with chi its Euler characteristic, which the report holds anyway.

    The report's critical counts are sought, by compose's rule
    _critical_among, among the ids the check reads and V2's critical
    cells: the critical vertex, which no cut renames, and the low and
    high edges and critical facet, followed from the entry check through
    every cut.  A cut moves criticality only to its heir, so these are
    all of them; a cell of a piece off the circle keeps its partner,
    which lies on its side, and the caps pair circle cells and add the
    cone.  So the counts are those of each whole piece.
    """
    values = _entry_values(f)
    K2, V2, circle, region = find_separating_circle(K, f, g1, g2, values)
    split = split_along_circle(K2, V2, circle, region.facets)
    cut = _around(K2, region.made)
    crit = [split.critical_vertex, *region.low_edges, *region.high_edges,
            region.critical_facet]
    pieces, counts, chi = [], {}, {}
    for name, cap, P, W in (
            ("m1", cap_with_max_cone, split.min_complex, split.min_field),
            ("m2", cap_with_min_cone, split.max_complex, split.max_field)):
        pv = {cid: values[cid] for cid in P.cells}
        C, W = cap(P, W, circle, pv)
        ids = {cid for cid in cut if cid in P.cells}
        ids.update(circle)
        ids.update(pv.keys() - P.cells.keys())  # the cone
        g = MorseFunction(pv)
        _check_carried(C, W, g, ids)
        counts[name] = _critical_among(C, W, chain(ids, crit)).m
        chi[name] = euler_characteristic(C)
        pieces += [C, W, g]
    betti = {k: (1, 2 - c, 1) for k, c in chi.items()}
    report = {
        "circleLength": len(circle) // 2,
        "chi": chi,
        # a cone over a k-cycle adds 1 - k + k to chi
        "chiPieces": {"min": chi["m1"] - 1, "max": chi["m2"] - 1},
        "betti": betti,
        "morseCounts": counts,
        "perfect": {k: counts[k] == betti[k] for k in counts},
    }
    return DecomposeResult(*pieces, tuple(circle), report)
