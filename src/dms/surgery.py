"""Subdivision surgeries and the connected-sum composition.

Bisection splits a single cell into two (a midpoint on an edge, or a
chord across a 2-cell) and repairs the gradient field so the matching
stays valid, acyclic and critical-cell counts are unchanged.  Derived
cells are suffixed `~b0` (the new vertex / chord), `~b1` (the half that
inherits the old cell's pairing or criticality) and `~b2`.

The composition removes the critical top cell of the first summand and a
non-critical top cell at the critical vertex of the second, joins the
two along a product tube, and carries both fields and both functions
across per the piecewise rules.  Tube cells are `tube:<id>:top` and
`tube:<id>:prism`; the shrunken inner copy uses `shrunk:<id>` and the
collar correspondents `inner:<id>`.
"""

from dataclasses import dataclass
from itertools import count

from .cellcomplex import (
    Cell,
    Complex,
    euler_characteristic,
)
from .errors import (
    BadCellBoundary,
    BadChord,
    DimensionMismatch,
    Disconnected,
    InconsistentField,
    InseparableCriticals,
    NoEligibleBeta,
    NonPseudomanifold,
    NotA2Cell,
    NotAnEdge,
    NotPerfectInput,
    NotTopCell,
    UnclearableBoundary,
    VertexNotOnCell,
)
from .homology import BettiVector
from .morsefield import (
    MorseFunction,
    VectorField,
    _betti,
    _check_function,
    _read_only_function,
    critical_cells,
    induced_field,
    synthesize_function,
    validate_field,
)


@dataclass(frozen=True)
class BisectionRecord:
    new_cells: tuple
    replacements: dict  # old id -> the half inheriting its role


@dataclass(frozen=True)
class TubeRegion:
    base_cells: tuple          # cells of the removed cell's boundary
    top: dict                  # base id -> top copy id
    prism: dict                # base id -> prism id
    new_cells: tuple           # Cell objects, tops then prisms


@dataclass(frozen=True)
class InnerCopy:
    complex: Complex
    beta_prime: str
    correspondence: dict       # J-cell -> its collar correspondent


# --- bisections ------------------------------------------------------------


def bisect_edge(K, V, e, anchor=None):
    """Split edge e at a new vertex; incident 2-cells gain a side.

    Pairing repair: a vertex paired with e keeps the half containing it;
    a 2-cell paired with e keeps the half containing `anchor` (default:
    the smaller endpoint); a critical e passes criticality to that half.
    The new vertex is always paired with the other half.
    """
    cell = K.cell(e)
    if cell.dim != 1:
        raise NotAnEdge(e)
    a, b = sorted(cell.boundary)
    pm = V.partner_map()
    partner = pm.get(e)
    if partner is not None and K.dim(partner) == 0:
        inherit_end = partner
    elif anchor is not None:
        if anchor not in (a, b):
            raise VertexNotOnCell("%r is not an endpoint of %r" % (anchor, e))
        inherit_end = anchor
    else:
        inherit_end = a
    other_end, = cell.boundary - {inherit_end}
    w, e1, e2 = e + "~b0", e + "~b1", e + "~b2"
    K2 = K.split_cell(e, [
        Cell(w, 0, frozenset()),
        Cell(e1, 1, frozenset({inherit_end, w})),
        Cell(e2, 1, frozenset({other_end, w})),
    ], (e1, e2))

    drop = []
    add = [(w, e2)]
    if partner is None:
        pass  # e1 inherits criticality by staying unmatched
    elif K.dim(partner) == 0:
        drop = [(partner, e)]
        add.append((partner, e1))
    else:
        drop = [(e, partner)]
        add.append((e1, partner))
    V2 = V.replace(drop=drop, add=add)
    rec = BisectionRecord(new_cells=(w, e1, e2),
                          replacements={e: e1})
    return K2, V2, rec


def bisect_2cell(K, V, c, u, w):
    """Split 2-cell c along a new chord between boundary vertices u, w.

    The piece whose boundary runs from u to w in the stored cycle
    direction is `c~b1`; it inherits c's pairing (or criticality) unless
    the paired edge lies on the other side.  The chord is paired with
    the non-inheriting piece.
    """
    cell = K.cell(c)
    if cell.dim != 2:
        raise NotA2Cell(c)
    cycle = K.boundary_cycle(c)
    verts = list(cycle[0::2])
    edges = list(cycle[1::2])
    if u == w or u not in verts or w not in verts:
        raise BadChord("chord endpoints %r, %r must be distinct boundary "
                       "vertices of %r" % (u, w, c))
    for eid in edges:
        if K.boundary(eid) == {u, w}:
            raise BadChord("chord %r-%r parallel to boundary edge %r"
                           % (u, w, eid))
    arc1 = frozenset(_inheriting_arc(K, c, u, w)[1::2])

    d = c + "~b0"
    c1 = c + "~b1"
    c2 = c + "~b2"
    K2 = K.split_cell(c, [
        Cell(d, 1, frozenset({u, w})),
        Cell(c1, 2, arc1 | {d}),
        Cell(c2, 2, (cell.boundary - arc1) | {d}),
    ], (c1, c2))

    pm = V.partner_map()
    partner = pm.get(c)
    drop, add = [], []
    inheritor = c1
    if partner is None:
        add.append((d, c2))
    elif K.dim(partner) == 1:
        drop.append((partner, c))
        if partner in arc1:
            add.extend([(partner, c1), (d, c2)])
        else:
            inheritor = c2
            add.extend([(partner, c2), (d, c1)])
    else:
        drop.append((c, partner))
        add.extend([(c1, partner), (d, c2)])
    V2 = V.replace(drop=drop, add=add)
    rec = BisectionRecord(new_cells=(d, c1, c2),
                          replacements={c: inheritor})
    return K2, V2, rec


def _inheriting_arc(K, c, u, w):
    """The walk [u, e, v, e', ...] around 2-cell c from vertex u up to,
    not including, vertex w: bisect_2cell(K, V, c, u, w) gives its edges
    to c~b1, and the rest of the boundary to c~b2."""
    cycle = K.boundary_cycle(c)
    i, j = cycle.index(u), cycle.index(w)
    return cycle[i:j] if i < j else cycle[i:] + cycle[:j]


# --- separating critical cells ---------------------------------------------


class _Cover:
    """A set of cells for each critical cell (its star, or its closure),
    and for each cell the critical cells whose set holds it, kept with
    the cells that two or more of them hold."""

    def __init__(self):
        self.of = {}    # critical cell -> its set
        self.held = {}  # cell -> the critical cells whose set holds it
        self.crowded = set()

    def add(self, c, cells):
        """The set of c gains `cells`, none of which it holds yet."""
        self.of.setdefault(c, set()).update(cells)
        for x in cells:
            hs = self.held.setdefault(x, set())
            hs.add(c)
            if len(hs) >= 2:
                self.crowded.add(x)

    def drop(self, c, cells):
        """The set of c loses `cells`, which may be that set itself; c
        goes when its set is empty."""
        cells = list(cells)
        mine = self.of[c]
        mine.difference_update(cells)
        if not mine:
            del self.of[c]
        for x in cells:
            hs = self.held[x]
            hs.discard(c)
            if len(hs) < 2:
                self.crowded.discard(x)
                if not hs:
                    del self.held[x]

    def crowded_cells(self):
        """The cells held by two or more critical cells, in id order,
        each with the sorted critical cells holding it."""
        return sorted((x, sorted(self.held[x])) for x in self.crowded)


class _CriticalIndex:
    """The critical cells of V on K with the star and the closure of
    each, carried across the bisections of separate_critical_cells
    instead of rescanned after every step.

    A bisection of a cell s into the new cells N of its record (update)
    moves criticality only from s to its heir in rec.replacements.  A
    critical cell in the closure of s keeps its star but for s, and
    gains the cells of N whose closure holds it.  A critical cell in the
    star of s keeps its closure but for s, and gains all of N: the
    cofaces of s list both halves in its place, and the middle cell lies
    on them.  Every other star and closure stays as it was.
    """

    def __init__(self, K, V):
        self.stars, self.closures = _Cover(), _Cover()
        for c in V.critical(K):
            self.stars.add(c, K.star(c))
            self.closures.add(c, K.closure(c))

    def update(self, K, rec):
        """Follow one bisection into the complex K it made and its
        record."""
        (s, heir), = rec.replacements.items()
        stars, closures = self.stars, self.closures
        if s in stars.of:
            stars.drop(s, stars.of[s])
            closures.drop(s, closures.of[s])
            stars.add(heir, K.star(heir))
            closures.add(heir, K.closure(heir))
        faces = {c for c, cells in stars.of.items() if s in cells}
        for c in faces:
            stars.drop(c, (s,))
        if faces:
            for n in rec.new_cells:
                for c in faces.intersection(K.closure(n)):
                    stars.add(c, (n,))
        for c in [c for c, cells in closures.of.items() if s in cells]:
            closures.drop(c, (s,))
            closures.add(c, rec.new_cells)

    def witnesses(self):
        """Cells whose closure holds >= 2 critical cells, in id order,
        each with the sorted critical cells it holds; a cell holds c
        exactly when it lies in the star of c."""
        return self.stars.crowded_cells()

    def touching(self):
        """Pairs of critical cells whose closures intersect (e.g. two
        critical edges with a common vertex), in sorted order, each with
        the sorted cells the two closures share."""
        shared = {}
        for x, cs in self.closures.crowded_cells():
            for i, c1 in enumerate(cs):
                for c2 in cs[i + 1:]:
                    shared.setdefault((c1, c2), []).append(x)
        return [(c1, c2, xs) for (c1, c2), xs in sorted(shared.items())]


def _separating_chord(K, V, c, span_a, span_b, vertex_crits):
    """Chord-split polygon c so span_a and span_b land in different
    pieces; manufactures midpoints by bisecting gap edges if needed.
    Returns K, V and the record of the one bisection made."""
    cycle = list(K.boundary_cycle(c))
    pos = {cell: i for i, cell in enumerate(cycle)}
    ia = pos[span_a]
    ib = pos[span_b]
    n = len(cycle)

    def gap_positions(start, stop):
        out = []
        i = (start + 1) % n
        while i != stop:
            out.append(i)
            i = (i + 1) % n
        return out

    def candidates(gap):
        cand = [cycle[i] for i in gap
                if i % 2 == 0 and cycle[i] not in vertex_crits]
        if cand:
            return cand
        if not any(i % 2 == 1 for i in gap):
            # empty gap: the spans meet in a vertex, cut through it
            verts_a = {span_a} | set(K.boundary(span_a)) \
                if K.dim(span_a) == 1 else {span_a}
            verts_b = {span_b} | set(K.boundary(span_b)) \
                if K.dim(span_b) == 1 else {span_b}
            return sorted((verts_a & verts_b) - {span_a, span_b})
        return []

    gap1 = gap_positions(ia, ib)
    gap2 = gap_positions(ib, ia)
    cycle_edges = [cycle[i] for i in range(1, n, 2)]
    for u in candidates(gap1):
        for w in candidates(gap2):
            if u == w:
                continue
            if any(K.boundary(g) == frozenset({u, w}) for g in cycle_edges):
                continue
            return bisect_2cell(K, V, c, u, w)
    gap_edges = [cycle[i] for i in gap1 + gap2 if i % 2 == 1]
    if not gap_edges:
        raise InconsistentField(
            "cannot separate %r and %r inside %r" % (span_a, span_b, c))
    return bisect_edge(K, V, gap_edges[0])  # cycle changed; caller retries


def separate_critical_cells(K, V):
    """Subdivide until no cell's closure contains two critical cells.

    Each step either bisects a critical edge away from a critical vertex
    on it, or chord-splits a polygon whose closure holds two critical
    cells; it parts the smallest witness by (dim, id), a cell whose
    closure holds two critical cells, or else the smallest pair of
    critical cells whose closures meet.  The loop is a worklist: one
    scan finds the critical cells on entry, and a _CriticalIndex carries
    them, their stars and their closures from step to step.

    The corner cut between two critical polygons whose boundaries meet
    need not make progress: it may keep cutting a corner off while the
    piece that stays critical keeps part of the shared boundary.  So the
    steps are capped at a budget fixed from the input's size (every step
    adds cells), and past it InseparableCriticals names the two critical
    cells the next step would part.  The records returned are those of
    the steps that bisect a critical or witness edge.
    """
    records = []
    index = _CriticalIndex(K, V)
    budget = 100 + 10 * len(K.cells)
    for steps in count():
        witnesses = index.witnesses()
        if witnesses:
            wid, hits = min(witnesses, key=lambda w: (K.dim(w[0]), w[0]))
            parting = hits[:2]
        else:
            touching = index.touching()
            if not touching:
                return K, V, records
            c1, c2, shared = touching[0]
            parting = [c1, c2]
        if steps == budget:
            raise InseparableCriticals(*parting)
        if witnesses:
            on_edge = K.dim(wid) == 1
            if on_edge and wid in hits:
                # critical edge containing a critical vertex
                vcrit = [h for h in hits if h != wid][0]
                other = [x for x in K.boundary(wid) if x != vcrit][0]
                K, V, rec = bisect_edge(K, V, wid, anchor=other)
            elif on_edge:
                # an edge between two critical vertices
                K, V, rec = bisect_edge(K, V, wid)
            else:
                span_a, span_b = hits[0], hits[1]
                if wid in hits:
                    # the inheriting piece of a critical polygon is the
                    # one whose boundary arc holds span_b, so isolate the
                    # other critical
                    span_a = [h for h in hits if h != wid][0]
                    cycle = list(K.boundary_cycle(wid))
                    others = [cell for cell in cycle
                              if cell != span_a
                              and cell not in index.closures.of[span_a]]
                    span_b = others[len(others) // 2]
                K, V, rec = _separating_chord(
                    K, V, wid, span_a, span_b,
                    {h for h in hits if K.dim(h) == 0})
        else:
            x = shared[0]
            edges = [c for c in (c1, c2) if K.dim(c) == 1]
            on_edge = bool(edges)
            if edges:
                e = edges[0]
                other_crit = c2 if e == c1 else c1
                far = sorted(y for y in K.boundary(e)
                             if y not in index.closures.of[other_crit])
                anchor = far[0] if far else sorted(K.boundary(e) - {x})[0]
                K, V, rec = bisect_edge(K, V, e, anchor=anchor)
            else:
                # two critical polygons meeting in a vertex: cut the
                # corner of the first one off, keeping criticality away
                # from it
                cycle = list(K.boundary_cycle(c1))
                others = [cell for cell in cycle if cell != x]
                span_b = others[len(others) // 2]
                K, V, rec = _separating_chord(
                    K, V, c1, x, span_b,
                    {h for h in index.stars.of if K.dim(h) == 0})
        if on_edge:
            records.append(rec)
        index.update(K, rec)


# --- prisms and inner copies -------------------------------------------------


def tube_top_id(cid):
    return "tube:%s:top" % cid


def tube_prism_id(cid):
    return "tube:%s:prism" % cid


def build_prism_over_boundary(K, alpha):
    """Product tube over the boundary sphere of a top cell: one top copy
    and one prism per boundary cell."""
    cell = K.cell(alpha)
    if cell.dim != K.top_dim:
        raise NotTopCell(alpha)
    base = sorted(K.closure(alpha) - {alpha})
    top = {cid: tube_top_id(cid) for cid in base}
    prism = {cid: tube_prism_id(cid) for cid in base}
    cells = []
    for cid in base:
        c = K.cell(cid)
        cells.append(Cell(top[cid], c.dim,
                          frozenset(top[f] for f in c.boundary)))
    for cid in base:
        c = K.cell(cid)
        bnd = {cid, top[cid]} | {prism[f] for f in c.boundary}
        cells.append(Cell(prism[cid], c.dim + 1, frozenset(bnd)))
    return TubeRegion(base_cells=tuple(base), top=top, prism=prism,
                      new_cells=tuple(cells))


def shrunk_id(cid):
    return "shrunk:%s" % cid


def inner_id(cid):
    return "inner:%s" % cid


def shrink_closed_star(K, beta, v):
    """Replace the closure J of a simplicial top cell by a shrunken copy
    sharing the vertex v plus a product collar over the link of v.

    Every J-cell containing v is split into its shrunken copy and a
    collar prism; the prism is the cell's correspondent, and J-cells not
    containing v correspond to themselves.  The face relation is
    preserved by the correspondence.  The shrink subdivides the closed
    cell, so it hands on the flags as split_cell does.
    """
    bcell = K.cell(beta)
    if bcell.dim != K.top_dim:
        raise NotTopCell(beta)
    if v not in K.closure(beta) or K.dim(v) != 0:
        raise VertexNotOnCell("%r is not a vertex of %r" % (v, beta))
    J = K.closure(beta)
    for cid in J:
        if K.cells[cid].dim >= 1 and len(K.boundary(cid)) != K.dim(cid) + 1:
            raise BadCellBoundary(
                "shrink needs a simplicial cell; %r has %d facets"
                % (cid, len(K.boundary(cid))))
    link = sorted(x for x in J if v not in K.closure(x))
    cone = sorted(x for x in J if v in K.closure(x) and x != v)

    def opposite(rho):
        faces = [x for x in K.closure(rho)
                 if K.dim(x) == K.dim(rho) - 1 and v not in K.closure(x)]
        if len(faces) != 1:
            raise BadCellBoundary("no unique face of %r opposite %r" % (rho, v))
        return faces[0]

    cone_of = {opposite(rho): rho for rho in cone}

    def shrunk_ref(x):
        return v if x == v else shrunk_id(x)

    new_cells = []
    for sid in link:
        c = K.cell(sid)
        new_cells.append(Cell(shrunk_id(sid), c.dim,
                              frozenset(shrunk_id(f) for f in c.boundary)))
    for rho in cone:
        c = K.cell(rho)
        new_cells.append(Cell(shrunk_id(rho), c.dim,
                              frozenset(shrunk_ref(f) for f in c.boundary)))
    for sid in link:
        c = K.cell(sid)
        bnd = {sid, shrunk_id(sid)} | {inner_id(cone_of[f]) for f in c.boundary}
        new_cells.append(Cell(inner_id(cone_of[sid]), c.dim + 1,
                              frozenset(bnd)))
    # a coface of a cone cell holds v, so inside J it is a cone cell
    # too: the cofaces left to patch are those outside J
    K2 = K._subdivide({rho: (shrunk_id(rho), inner_id(rho)) for rho in cone},
                      new_cells)
    correspondence = {rho: inner_id(rho) for rho in cone}
    for sid in link:
        correspondence[sid] = sid
    return InnerCopy(complex=K2, beta_prime=shrunk_id(beta),
                     correspondence=correspondence)


# --- composing two perfect functions ---------------------------------------


@dataclass
class ComposeReport:
    chi: int
    counts: tuple
    perfect: bool
    function_valid: bool
    constant: float
    # always False: one formula serves every input range; kept because
    # perfbench/tracer.py reads it
    rescaled: bool
    resynthesized_left: bool
    alpha: str
    beta: str
    boundary_clearing_steps: int
    glue_cycle_length: int


def _prefixed(K, V, prefix):
    """K and V with every id renamed to prefix + id, and the renaming.
    The field reuses the complex's new id strings; a common prefix keeps
    the sorted order of ids, so V's pairs are not sorted again."""
    Kp = K.prefixed(prefix)
    name = dict(zip(K.cells, Kp.cells))  # prefixed keeps the cell order
    return Kp, V._renamed(name), name


def _renamed_function(f, name, prefix):
    """f with every id x renamed to name[x], or to prefix + x for the
    ids that `name` does not know."""
    return MorseFunction({name[cid] if cid in name else prefix + cid: val
                          for cid, val in f.values.items()})


def _checked_summand(K, f):
    """The gradient field f induces on K and its critical cells: taken
    from the record compose keeps on a complex it returned when f is the
    very function it returned with it, and otherwise checked in full."""
    record = K._composed
    if record is not None and record[0] is f:
        return record[1], record[2]
    V = induced_field(K, f)
    return V, critical_cells(V, K)


def _boundary_offenders(K, V, alpha):
    """Cells of alpha's boundary that spoil the tube function formula:
    the critical ones of dimension >= 1, and the higher cell of every
    pair lying inside the boundary.  On a polygon these are its edges
    that are critical or paired with one of their endpoints."""
    pm = V.partner_map()
    bnd = K.closure(alpha) - {alpha}
    out = []
    for cid in sorted(bnd):
        partner = pm.get(cid)
        if partner is None:
            if K.dim(cid) >= 1:
                out.append(cid)
        elif partner in bnd and K.dim(partner) < K.dim(cid):
            out.append(cid)
    return out


def _clear_top_cell_boundary(K, V, alpha):
    """Push critical edges and internal vertex-edge pairs off a critical
    2-cell's boundary: bisect the offender, then cut the corner triangle
    away so the critical polygon keeps its side count."""
    steps = 0
    while True:
        offenders = _boundary_offenders(K, V, alpha)
        if not offenders:
            return K, V, alpha, steps
        e = offenders[0]
        x, y = sorted(K.boundary(e))
        K, V, rec = bisect_edge(K, V, e)
        # choose argument order so the inheriting piece avoids the midpoint
        if rec.new_cells[0] in _inheriting_arc(K, alpha, x, y):
            x, y = y, x
        K, V, rec2 = bisect_2cell(K, V, alpha, x, y)
        alpha = rec2.replacements[alpha]
        steps += 1


def compose(M1, f1, M2, f2):
    """Connected sum carrying both perfect structures.

    Removes the critical top cell alpha of the first input and a
    non-critical top cell beta at the critical vertex of the second,
    inserts the product tube over the boundary of alpha, shrinks the
    closed star of beta, and glues; the combined field pairs every glued
    boundary cell into its own prism.  On a surface, the cells of
    alpha's boundary that are critical or paired inside it are first
    cleared off by bisections and f1 is resynthesized from the
    subdivided field; in other dimensions they raise UnclearableBoundary.
    The combined function is f1 on the first side (the base), f1 + C/2
    on the tube and f2 + C on the glued cells of the second summand,
    with C = max(2, f1(alpha) + 2, 2 (f1(alpha) + 1 - m2)) and m2 the
    least f2 value on the glued cells.  It is valid for any input ranges:
    - every face relation that crosses a part goes upward, base < tube
      < glued: a base cell sigma lies only on its own prism, and
      C/2 > 0; a tube top over sigma lies on glued cells c, and
      C/2 > max f1 on alpha's boundary - m2 >= f1(sigma) - f2(c), as
      alpha is critical, so each of its faces is below it;
    - the only equal values are the (top, prism) pairs, which V pairs;
    - every other relation lies inside one part, f1's on the first
      summand or f2's through the shrink's correspondence, and adding a
      constant keeps it; no pair of V1 lies inside alpha's boundary, so
      its copies on the tube rise strictly too.
    The term f1(alpha) + 2 is the paper's C, kept when it suffices.
    `rescaled` in the report is always False.

    The result's mod-2 Betti numbers are cached from Mayer-Vietoris
    instead of being ranked.  Both inputs are closed pseudomanifolds,
    checked perfect with one critical vertex, so connected.  In a
    closed pseudomanifold the top cells sum to a mod-2 cycle, so the
    sphere S bounding alpha also bounds the rest of that cycle, and
    A = M1 - alpha has the Betti numbers of M1 less e_n; so does
    B = M2 - beta'.  In the sequence of M = A u B along S, the map
    H(S) -> H(A) + H(B) then kills the top class of S and embeds its
    point class, so b(M) = b(M1) + b(M2) - e_0 - e_n (for n = 1 this
    is a circle's, as it must be).  The glue changes the critical counts
    by the same -e_0 - e_n, dropping alpha and the critical vertex of
    the second summand, and `perfect` compares the counts with b(M).
    A connected sum of closed pseudomanifolds is one, so the result
    takes is_pseudomanifold over without a scan of its cells.

    The returned f has read-only values.  When it is valid and induces
    the returned V, M keeps the record (f, V, critical cells of V), and
    a later compose handed this very M and this very f (the same
    objects, as a chain passes them on) reads V and the critical cells
    off it instead of checking f on every cell.  Another complex, a
    copy of f or a function compose did not return is checked in full.
    The record is sound because:
    - no edit mutates a Complex: each returns a new one, and the library
      already caches _betti, is_pseudomanifold and _surface_info on one;
    - f's values are a mappingproxy over a dict that nothing else holds,
      so they cannot change after the check;
    - f is valid and induces V on all of M: the touched cells are
      checked, and every other cell keeps its faces, its cofaces and the
      order of their values from a function valid on the first summand
      (the comment at the touched cells below).
    """
    if M1.top_dim != M2.top_dim:
        raise DimensionMismatch((M1.top_dim, M2.top_dim))
    n = M1.top_dim
    for K in (M1, M2):
        if not K.is_pseudomanifold:
            raise NonPseudomanifold("compose input is not a closed "
                                    "pseudomanifold")
    V1, crit1 = _checked_summand(M1, f1)
    V2, crit2 = _checked_summand(M2, f2)
    for K, V, crit in ((M1, V1, crit1), (M2, V2, crit2)):
        if crit.m != _betti(K, V).b:
            raise NotPerfectInput(crit.m)
        if crit.m[0] > 1:  # a perfect field has b_0 critical vertices
            raise Disconnected("summand is not connected: critical "
                               "vertices %s" % ", ".join(crit.cells[0]))
    if n != 2:
        offenders = _boundary_offenders(M1, V1, crit1.cells[n][0])
        if offenders:
            raise UnclearableBoundary(*offenders)
    K1, V1, name1 = _prefixed(M1, V1, "m1:")
    K2, V2, name2 = _prefixed(M2, V2, "m2:")
    # a common prefix keeps the sorted order of ids
    alpha = "m1:" + crit1.cells[n][0]
    v2 = "m2:" + crit2.cells[0][0]

    clearing = 0
    if n == 2:
        K1, V1, alpha, clearing = _clear_top_cell_boundary(K1, V1, alpha)
    # a function is renamed only when no resynthesis replaces it
    resynth = clearing > 0
    f1w = (synthesize_function(K1, V1) if resynth
           else _renamed_function(f1, name1, "m1:"))

    K2, V2, beta, beta_steps = _choose_beta(K2, V2, v2)
    f2w = (synthesize_function(K2, V2) if beta_steps
           else _renamed_function(f2, name2, "m2:"))
    ic = shrink_closed_star(K2, beta, v2)
    K2 = ic.complex
    pairs2 = [(ic.correspondence.get(a, a), ic.correspondence.get(b, b))
              for a, b in V2.pairs()]

    # glue interface: boundary of the shrunken cell vs the tube top
    bprime = ic.beta_prime
    tube = build_prism_over_boundary(K1, alpha)
    if n == 2:
        # the new cells are glued away, so they stay unmatched
        K2 = _split_smallest_edges(K2, bprime,
                                   len(K1.cell(alpha).boundary))
        glue = _surface_glue_map(K1, K2, alpha, bprime, tube.top)
    else:
        glue = _simplex_glue_map(K1, K2, bprime, tube.top)

    # one edit of the first summand: alpha goes, and the second summand
    # comes in without the shrunken cell and its boundary, the cells on
    # that boundary re-glued onto the tube top, then the tube
    dropped = K2.closure(bprime)
    glued = []
    for cid, c in K2.cells.items():
        if cid in dropped:
            continue
        if not c.boundary.isdisjoint(glue):
            c = Cell(cid, c.dim,
                     frozenset([glue.get(f, f) for f in c.boundary]))
        glued.append(c)
    M = K1.replace_cells(remove=[alpha], add=[*glued, *tube.new_cells])

    pairs = list(V1.pairs())
    pairs.extend((tube.top[cid], tube.prism[cid]) for cid in tube.base_cells)
    pairs.extend(pairs2)
    V = VectorField._of_sorted(tuple(sorted(pairs)))

    # Only these cells can break the Morse condition or pair differently
    # than V: the tube and the second summand are new, and alpha's
    # boundary lost alpha and gained the prisms.  Every other cell keeps
    # its faces and cofaces, and its values and theirs are f1w's, which
    # is valid and induces V1 on K1.
    touched = [c.id for c in (*glued, *tube.new_cells)]
    touched.extend(tube.base_cells)
    preimage = {corr: orig for orig, corr in ic.correspondence.items()}
    f1v, f2v = f1w.values, f2w.values
    glued_f2 = {c.id: f2v[preimage.get(c.id, c.id)] for c in glued}
    a = f1v[alpha]
    C = max(2.0, a + 2.0, 2.0 * (a + 1.0 - min(glued_f2.values())))
    # a synthesized f1w holds exactly K1's cells, in table order; an
    # input's may hold other ids, which the result drops
    values = dict(f1v) if resynth else {cid: f1v[cid] for cid in K1.cells}
    del values[alpha]
    for cid in tube.base_cells:
        values[tube.top[cid]] = values[tube.prism[cid]] = f1v[cid] + C / 2.0
    for cid, val in glued_f2.items():
        values[cid] = val + C
    f = _read_only_function(values)
    freport, fpairs = _check_function(M, f, touched)
    touched = set(touched)
    # a valid function inducing V makes V a gradient field
    induces_V = freport.ok and sorted(fpairs) == [
        p for p in V.pairs() if p[1] in touched]

    counts = critical_cells(V, M)
    chi = euler_characteristic(M)
    chi_sphere = 2 if n % 2 == 0 else 0
    # a matching pairs cells of adjacent dimensions, so the alternating
    # sum of the inputs' critical counts is the sum of their chi
    chi_inputs = sum((-1) ** p * (m1 + m2) for p, (m1, m2)
                     in enumerate(zip(crit1.m, crit2.m)))
    if chi != chi_inputs - chi_sphere:
        raise InconsistentField("Euler characteristic drifted in compose")
    if not induces_V:
        vreport = validate_field(M, V)
        if not vreport.ok:
            raise InconsistentField(vreport.issues[:3])
        if freport.ok:
            raise InconsistentField(
                "composed function induces a different field")
    M._betti = BettiVector(tuple(
        b1 + b2 - (p == 0) - (p == n)
        for p, (b1, b2) in enumerate(zip(M1._betti.b, M2._betti.b))))
    M.is_pseudomanifold = True
    if induces_V:
        M._composed = (f, V, counts)
    report = ComposeReport(
        chi=chi, counts=counts.m, perfect=counts.m == M._betti.b,
        function_valid=freport.ok, constant=C, rescaled=False,
        resynthesized_left=resynth, alpha=alpha, beta=beta,
        boundary_clearing_steps=clearing,
        glue_cycle_length=len(glue) // 2 if n == 2 else len(glue),
    )
    return M, f, V, report


def _choose_beta(K2, V2, v2):
    """Non-critical simplicial top cell with the critical vertex on its
    boundary.  When only critical or polygonal cells touch the vertex
    (surfaces only), one chord bisection cuts an eligible triangle off a
    polygon's corner at the vertex.

    Returns (K2, V2, beta, steps)."""
    n = K2.top_dim

    def candidates():
        pm = V2.partner_map()
        tops = sorted(t for t in K2.star(v2) if K2.cells[t].dim == n)
        good = [t for t in tops
                if len(K2.boundary(t)) == n + 1 and t in pm]
        return tops, good

    tops, good = candidates()
    if good:
        return K2, V2, good[0], 0
    if not tops:
        raise NoEligibleBeta("no top cell at %r" % v2)
    if n != 2:
        raise NoEligibleBeta(
            "no non-critical simplicial top cell at %r" % v2)
    steps = 0
    for t in tops:
        cycle = list(K2.boundary_cycle(t))
        if len(cycle) <= 6:
            continue  # a triangle here must be critical; skip
        verts = cycle[0::2]
        i = verts.index(v2)
        prev_v = verts[(i - 1) % len(verts)]
        next_v = verts[(i + 1) % len(verts)]
        if prev_v == next_v:
            continue
        K2, V2, rec = bisect_2cell(K2, V2, t, next_v, prev_v)
        steps += 1
        _, good = candidates()
        if good:
            return K2, V2, good[0], steps
    raise NoEligibleBeta("could not cut an eligible cell at %r" % v2)


def _split_smallest_edges(K, t, k):
    """K with the smallest edge of 2-cell t split, from its smaller
    endpoint, until t has k edges: the cells that as many bisect_edge
    calls under an empty field would make, in one `_subdivide` edit
    that hands on the flags as split_cell does."""
    cells = K.cells
    ends = {e: cells[e].boundary for e in cells[t].boundary}
    made = {}    # the new cells by id, in the order the splits make them
    origin = {}  # each new edge -> the edge of K it lies in
    while len(ends) < k:
        e = min(ends)
        a, b = sorted(ends.pop(e))
        w, e1, e2 = e + "~b0", e + "~b1", e + "~b2"
        made.pop(e, None)
        origin[e1] = origin[e2] = origin.pop(e, e)
        made[w] = Cell(w, 0, frozenset())
        for half, end in ((e1, a), (e2, b)):
            made[half] = Cell(half, 1, frozenset({end, w}))
            ends[half] = made[half].boundary
    if not made:
        return K
    parts = {}  # each split edge of K -> the edges it became
    for x, e in origin.items():
        parts.setdefault(e, []).append(x)
    return K._subdivide(parts, made.values())


def _surface_glue_map(K1, K2, alpha, bprime, top):
    """Cycle isomorphism from the shrunken boundary onto the tube top
    (`top` maps each boundary cell of alpha to its copy), anchored at the
    smallest vertices, directions reversed."""
    top_cycle = [top[c] for c in K1.boundary_cycle(alpha)]
    inner_cycle = list(K2.boundary_cycle(bprime))
    if len(top_cycle) != len(inner_cycle):
        raise InconsistentField("glue cycles have different lengths")
    m = len(top_cycle) // 2

    def rotate_to_min(cycle):
        verts = cycle[0::2]
        k = verts.index(min(verts))
        return cycle[2 * k:] + cycle[:2 * k]

    top_cycle = rotate_to_min(top_cycle)
    inner_cycle = rotate_to_min(inner_cycle)
    # reversed orientation: inner walks backwards
    glue = {}
    glue[inner_cycle[0]] = top_cycle[0]
    for i in range(1, 2 * m):
        glue[inner_cycle[i]] = top_cycle[2 * m - i]
    return glue


def _simplex_glue_map(K1, K2, bprime, top):
    """Identify two simplex boundaries by sorted-vertex order; `top` maps
    each boundary cell of the removed simplex to its tube copy."""
    side1 = sorted(top)
    side2 = sorted(K2.closure(bprime) - {bprime})
    v1 = sorted(x for x in side1 if K1.dim(x) == 0)
    v2 = sorted(x for x in side2 if K2.dim(x) == 0)
    if len(v1) != len(v2):
        raise InconsistentField("glue simplices of different sizes")
    vmap = dict(zip(v2, v1))

    def key(K, cid, vm):
        return frozenset(vm.get(x, x) for x in K.vertices_of(cid))

    by_verts = {}
    for cid in side1:
        by_verts[(K1.dim(cid), frozenset(K1.vertices_of(cid)))] = top[cid]
    glue = {}
    for cid in side2:
        tgt = by_verts.get((K2.dim(cid), key(K2, cid, vmap)))
        if tgt is None:
            raise InconsistentField("simplex boundaries do not match")
        glue[cid] = tgt
    return glue
