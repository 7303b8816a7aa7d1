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
collar correspondents `inner:<id>`.  Along a chain those prefixes give
way to short stamps, and the first summand keeps its ids (_link_names).
"""

import re
from dataclasses import dataclass
from itertools import chain, count

from .cellcomplex import (
    Cell,
    Complex,
    euler_characteristic,
    new_cell,
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
    _betti,
    _check_carried,
    _critical_among,
    _dense_ranks,
    _read_only_function,
    critical_cells,
    induced_field,
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
    K, V = K._draft(), V._draft()
    return K, V, _bisect_edge(K, V, e, anchor)


def _bisect_edge(K, V, e, anchor=None, values=None):
    """bisect_edge on K and V themselves, and on `values` when given
    (_patch_values); returns the record."""
    cell = K.cell(e)
    if cell.dim != 1:
        raise NotAnEdge(e)
    partner = V.partner_map().get(e)
    if partner in cell.boundary:
        inherit_end = partner
    elif anchor is not None:
        if anchor not in cell.boundary:
            raise VertexNotOnCell("%r is not an endpoint of %r" % (anchor, e))
        inherit_end = anchor
    else:
        inherit_end = min(cell.boundary)
    other_end, = cell.boundary - {inherit_end}
    w = e + "~b0"
    return _bisect(K, V, e, Cell(w, 0, frozenset()),
                   Cell(e + "~b1", 1, frozenset({inherit_end, w})),
                   Cell(e + "~b2", 1, frozenset({other_end, w})), values)


def bisect_2cell(K, V, c, u, w):
    """Split 2-cell c along a new chord between boundary vertices u, w.

    The piece whose boundary runs from u to w in the stored cycle
    direction is `c~b1`; it inherits c's pairing (or criticality) unless
    the paired edge lies on the other side.  The chord is paired with
    the non-inheriting piece.
    """
    K, V = K._draft(), V._draft()
    return K, V, _bisect_2cell(K, V, c, u, w)


def _bisect_2cell(K, V, c, u, w, values=None):
    """bisect_2cell on K and V themselves, and on `values` when given
    (_patch_values); returns the record."""
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
    return _bisect(K, V, c, Cell(d, 1, frozenset({u, w})),
                   Cell(c + "~b1", 2, arc1 | {d}),
                   Cell(c + "~b2", 2, (cell.boundary - arc1) | {d}), values)


def _bisect(K, V, s, middle, half1, half2, values=None):
    """Split the cell s of K into the cells middle, half1 and half2, and
    repair V, both in place; the one field repair of both kinds of
    bisection.  The heir, the half holding s's partner when that is a
    face of s and half1 otherwise, takes s's partner or its criticality,
    and the middle cell pairs with the other half.  `values`, when
    given, is patched along by _patch_values.  Returns the record.
    """
    partner = V.partner_map().get(s)
    face = partner in K.cells[s].boundary
    K._split_cell(s, [middle, half1, half2], (half1.id, half2.id))
    heir, other = (half2, half1) if partner in half2.boundary \
        else (half1, half2)
    drop, add = [], [(middle.id, other.id)]
    if partner is not None:
        drop.append((partner, s) if face else (s, partner))
        add.append((partner, heir.id) if face else (heir.id, partner))
    V._edit(drop, add)
    if values is not None:
        _patch_values(values, s, partner if face else None,
                      None if face else partner, middle, heir, other)
    return BisectionRecord(new_cells=(middle.id, half1.id, half2.id),
                           replacements={s: heir.id})


def _patch_values(values, s, face, coface, middle, heir, other):
    """Patch `values`, a Morse function f on a surface inducing V, in
    place to one on the complex where s is split into middle, heir and
    other that induces the field _bisect made: s's partner is `face` or
    `coface` (one of them, or neither for a critical s); the heir now
    pairs with it, and middle with other.  The one rule of both kinds of
    cut, the edge bisection and the corner cut:

        m    = the largest f on the faces of middle and of other but
               middle (an edge's far end q; a chord's ends and the
               other faces of the piece it pairs with);
        heir = f(s); upper = the coface if s has one as partner, else
               the heir (the higher cell of the pair s's role moves to);
        if m >= f(upper): f(upper) = (m + f(lower)) / 2, lower being
               the other cell of that pair;
        middle = other = (m + f(upper)) / 2.

    Why m < f(lower) whenever m >= f(upper), so the raise lands strictly
    between them and f(upper) <= f(lower) still holds:
    - an edge s = {p, q}, critical or paired with p, has f(q) < f(s) =
      f(upper): q is not its exceptional face, and m = f(q);
    - an edge s paired with a 2-cell c has upper = c and lower = the
      heir, f(heir) = f(s) > f(q) = m for the same reason.  This is the
      case where no value may fit: q may lie at or above f(c), when q is
      paired with another edge e' of c, f(e') < f(c) <= f(q) < f(s).  c
      is then raised between m and f(s), and only rises, so its other
      faces stay below it;
    - a 2-cell c has no faces but edges and vertices of its cycle.
      Critical, all of them lie below f(c): each edge, and each vertex
      below one of its two edges on c (it is paired with one at most),
      so m < f(c) = f(upper).  Paired with its edge p, the faces of the
      piece paired with the chord are edges of c but p, below f(c) <=
      f(p) = f(lower), and a chord end lies below an edge of c that is
      not p, or on p, which is paired with c, not with it.

    So m < f(upper) <= f(lower) after the raise, and middle and other
    lie strictly between m and f(upper).  Every relation then holds:
    middle lies above its faces (<= m), below the heir (f(heir) >=
    f(upper) > middle: an edge's heir keeps f(s) >= f(c), a 2-cell's
    heir is upper), and level with other, its partner; other lies above
    its faces but middle, and below its cofaces (an edge's other is
    below f(upper) <= every coface of s: the partner c, or cofaces above
    f(s) when s is not paired upward; a 2-cell of a surface has none);
    the heir keeps s's faces and cofaces, and their order with it, and
    gains middle below it; the faces of s, now on a half, stay below it
    as they were below s, or stay paired with the heir.  On floats a
    midpoint can round onto an end; the callers check the cells a cut
    touched and name such cells (InexactFunction).
    """
    values[heir.id] = values.pop(s)
    m = max(values[x] for x in (*middle.boundary, *other.boundary)
            if x != middle.id)
    upper, lower = (coface, heir.id) if coface is not None \
        else (heir.id, face)
    top = values[upper]
    # a critical s never gets here with m >= top on exact values; a
    # rounded earlier patch may bring it, and the callers' check names it
    if m >= top and lower is not None:
        top = values[upper] = (m + values[lower]) / 2.0
    values[middle.id] = values[other.id] = (m + top) / 2.0


def _inheriting_arc(K, c, u, w):
    """The walk [u, e, v, e', ...] around 2-cell c from its cell u up to,
    not including, its cell w: for vertices u and w,
    bisect_2cell(K, V, c, u, w) gives its edges to c~b1, and the rest of
    the boundary to c~b2."""
    cycle = K.boundary_cycle(c)
    i, j = cycle.index(u), cycle.index(w)
    return cycle[i:j] if i < j else cycle[i:] + cycle[:j]


def _cut_corner(K, V, c, u, w, corner, values=None):
    """Cut the 2-cell c in place along a chord from u to w so that
    `corner`, cells on one side of it other than u and w, goes to c~b2,
    and patch `values` along when given (_patch_values).  Returns the
    record: its new cells are (chord, rest, corner piece)."""
    if not corner.isdisjoint(_inheriting_arc(K, c, u, w)):
        u, w = w, u
    return _bisect_2cell(K, V, c, u, w, values)


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


class _CriticalIndex:
    """The critical cells of a field on K, handed to it once, with the
    star and the closure of each, carried across the bisections of
    separate_critical_cells instead of listed again after every step.

    A bisection of a cell s into the new cells N of its record (update)
    moves criticality only from s to its heir in rec.replacements.  A
    critical cell in the closure of s keeps its star but for s, and
    gains the cells of N whose closure holds it.  A critical cell in the
    star of s keeps its closure but for s, and gains all of N: the
    cofaces of s list both halves in its place, and the middle cell lies
    on them.  Every other star and closure stays as it was.
    """

    def __init__(self, K, critical):
        self.stars, self.closures = _Cover(), _Cover()
        for c in critical:
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
        faces = set(stars.held.get(s, ()))
        for c in faces:
            stars.drop(c, (s,))
        if faces:
            for n in rec.new_cells:
                for c in faces.intersection(K.closure(n)):
                    stars.add(c, (n,))
        for c in set(closures.held.get(s, ())):
            closures.drop(c, (s,))
            closures.add(c, rec.new_cells)

    def witness(self, K):
        """The least cell by (dim, id) whose closure holds >= 2 critical
        cells, with the sorted critical cells it holds, or None; a cell
        holds c exactly when it lies in the star of c."""
        x = min(self.stars.crowded, key=lambda x: (K.dim(x), x), default=None)
        return None if x is None else (x, sorted(self.stars.held[x]))

    def touching(self):
        """The least pair of critical cells whose closures intersect (e.g.
        two critical edges with a common vertex), the two least holders of
        a shared cell, with the least cell they share; or None."""
        closures = self.closures
        pairs = [sorted(closures.held[x])[:2] for x in closures.crowded]
        if not pairs:
            return None
        c1, c2 = min(pairs)
        return c1, c2, min(closures.of[c1] & closures.of[c2])


def _separating_chord(K, V, c, span_a, span_b, vertex_crits, values):
    """Cut the corner of polygon c holding span_a off the piece holding
    span_b, on a chord from a vertex of each gap the two leave on c's
    walk; with no such chord, bisect the first edge of the gaps to make
    a midpoint.  Edits K, V and `values` (None, or patched along) in
    place and returns the record of the one bisection made."""

    def candidates(gap):
        cand = [x for x in gap if K.dim(x) == 0 and x not in vertex_crits]
        if cand or any(K.dim(x) == 1 for x in gap):
            return cand
        # no edge between the spans: they meet in a vertex, cut through it
        return sorted(K.closure(span_a) & K.closure(span_b)
                      - {span_a, span_b})

    gaps = (_inheriting_arc(K, c, span_a, span_b)[1:],
            _inheriting_arc(K, c, span_b, span_a)[1:])
    # u and w differ: each is a vertex of its own gap, the gaps are
    # disjoint, and a vertex appears once on the walk
    for u in candidates(gaps[0]):
        for w in candidates(gaps[1]):
            if not any(K.boundary(g) == {u, w} for g in K.boundary(c)):
                # u follows span_a on the walk, so the arc from u to w
                # holds span_b and not span_a
                return _cut_corner(K, V, c, u, w, {span_a}, values)
    gap_edges = [x for gap in gaps for x in gap if K.dim(x) == 1]
    if not gap_edges:
        raise InconsistentField(
            "cannot separate %r and %r inside %r" % (span_a, span_b, c))
    # the cycle changed; the caller retries
    return _bisect_edge(K, V, gap_edges[0], values=values)


def separate_critical_cells(K, V, values=None):
    """Subdivide until no cell's closure contains two critical cells.

    Each step either bisects a critical edge away from a critical vertex
    on it, or chord-splits a polygon whose closure holds two critical
    cells; it parts the smallest witness by (dim, id), a cell whose
    closure holds two critical cells, or else the smallest pair of
    critical cells whose closures meet.  The loop is a worklist: it is
    handed the critical cells once, here listed by critical_cells, and a
    _CriticalIndex carries them, their stars and their closures from
    step to step.

    The corner cut between two critical polygons whose boundaries meet
    need not make progress: it may keep cutting a corner off while the
    piece that stays critical keeps part of the shared boundary.  So the
    steps are capped at a budget fixed from the input's size (every step
    adds cells), and past it InseparableCriticals names the two critical
    cells the next step would part.  The steps edit drafts of K and V,
    returned with the record of every step in order.  `values`, when
    given, holds a Morse function on the surface K inducing V, and every
    step patches it in place (_patch_values).
    """
    K, V = K._draft(), V._draft()
    crit = critical_cells(V, K).cells.values()
    return K, V, _separate_critical_cells(K, V, chain(*crit), values)


def _separate_critical_cells(K, V, critical, values):
    """separate_critical_cells on K and V themselves, handed the ids of
    V's critical cells, `critical`; returns the records."""
    records = []
    index = _CriticalIndex(K, critical)
    budget = 100 + 10 * len(K.cells)
    for steps in count():
        witness = index.witness(K)
        if witness:
            wid, hits = witness
            parting = hits[:2]
        else:
            touching = index.touching()
            if touching is None:
                return records
            c1, c2, x = touching
            parting = [c1, c2]
        if steps == budget:
            raise InseparableCriticals(*parting)
        if witness:
            on_edge = K.dim(wid) == 1
            if on_edge and wid in hits:
                # critical edge containing a critical vertex
                vcrit = [h for h in hits if h != wid][0]
                other = [x for x in K.boundary(wid) if x != vcrit][0]
                rec = _bisect_edge(K, V, wid, other, values)
            elif on_edge:
                # an edge between two critical vertices
                rec = _bisect_edge(K, V, wid, values=values)
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
                rec = _separating_chord(
                    K, V, wid, span_a, span_b,
                    {h for h in hits if K.dim(h) == 0}, values)
        else:
            edges = [c for c in (c1, c2) if K.dim(c) == 1]
            if edges:
                e = edges[0]
                other_crit = c2 if e == c1 else c1
                far = sorted(y for y in K.boundary(e)
                             if y not in index.closures.of[other_crit])
                anchor = far[0] if far else sorted(K.boundary(e) - {x})[0]
                rec = _bisect_edge(K, V, e, anchor, values)
            else:
                # two critical polygons meeting in a vertex: cut the
                # corner of the first one off, keeping criticality away
                # from it
                cycle = list(K.boundary_cycle(c1))
                others = [cell for cell in cycle if cell != x]
                span_b = others[len(others) // 2]
                rec = _separating_chord(
                    K, V, c1, x, span_b,
                    {h for h in index.stars.of if K.dim(h) == 0}, values)
        records.append(rec)
        index.update(K, rec)


# --- prisms and inner copies -------------------------------------------------


def _collar(K, base, copy, prism):
    """The product of the cells `base` of K, closed under faces, with an
    interval: a copy of each base cell x, `copy[x]`, bounded by the
    copies of its faces, then a prism over each, `prism[x]`, bounded by
    x, its copy and the prisms of its faces.  Returns the copies and the
    prisms, each in the order of `base`."""
    cells = K.cells
    copies, prisms = [], []
    for x in base:
        c = cells[x]
        copies.append(new_cell(Cell, (copy[x], c.dim, frozenset(
            [copy[f] for f in c.boundary]))))
        bnd = [x, copy[x], *[prism[f] for f in c.boundary]]
        prisms.append(new_cell(Cell, (prism[x], c.dim + 1, frozenset(bnd))))
    return copies, prisms


def build_prism_over_boundary(K, alpha, prefix="tube:"):
    """Product tube over the boundary sphere of a top cell, the _collar
    over it: one top copy and one prism per boundary cell X,
    `<prefix>X:top` and `<prefix>X:prism`, which the region's `top` and
    `prism` maps name."""
    cell = K.cell(alpha)
    if cell.dim != K.top_dim:
        raise NotTopCell(alpha)
    base = sorted(K.closure(alpha) - {alpha})
    top = {cid: "%s%s:top" % (prefix, cid) for cid in base}
    prism = {cid: "%s%s:prism" % (prefix, cid) for cid in base}
    tops, prisms = _collar(K, base, top, prism)
    return TubeRegion(base_cells=tuple(base), top=top, prism=prism,
                      new_cells=(*tops, *prisms))


def _check_simplicial(K, c, what):
    """Raise BadCellBoundary, led by `what`, naming the first cell by id
    of c's closure that has facets, but not one more than its dimension."""
    for x in sorted(K.closure(c)):
        k = len(K.boundary(x))
        if K.dim(x) and k != K.dim(x) + 1:
            raise BadCellBoundary("%s; %r has %d facets" % (what, x, k))


def shrink_closed_star(K, beta, v):
    """Replace the closure J of a simplicial top cell by a shrunken copy
    sharing the vertex v plus a product collar over the link of v.

    Every J-cell containing v is split into its shrunken copy
    `shrunk:<id>` and a collar prism `inner:<id>`; the prism is the
    cell's correspondent, and J-cells not containing v correspond to
    themselves.  The face relation is preserved by the correspondence.
    A draft of K takes the shrink (`_shrink_closed_star`), a subdivision
    of the closed cell that keeps the flags as split_cell does.
    """
    return _shrink_closed_star(K._draft(), beta, v)


def _shrink_closed_star(K, beta, v, shrunk_id=lambda x: "shrunk:" + x,
                        inner_id=lambda x: "inner:" + x):
    """shrink_closed_star on K itself, which its InnerCopy holds, with
    the shrunken copy and the collar cell of a cell x named shrunk_id(x)
    and inner_id(x).

    The link of v in J, the J-cells outside the star of v, takes the
    _collar: a link cell x's copy is its shrunken copy, and its prism
    the collar cell of the cone cell over x (the J-cell whose one face
    outside the star is x).  The shrunken cone cells, bounded by the
    shrunken copies of their faces and v itself, come between the
    copies and the prisms."""
    bcell = K.cell(beta)
    if bcell.dim != K.top_dim:
        raise NotTopCell(beta)
    J = K.closure(beta)
    cells = K.cells
    if v not in J or cells[v].dim != 0:
        raise VertexNotOnCell("%r is not a vertex of %r" % (v, beta))
    _check_simplicial(K, beta, "shrink needs a simplicial cell")
    at_v = K.star(v) & J
    link = sorted(J - at_v)
    cone = sorted(at_v - {v})

    def opposite(rho):
        faces = [x for x in cells[rho].boundary if x not in at_v]
        if len(faces) != 1:
            raise BadCellBoundary("no unique face of %r opposite %r" % (rho, v))
        return faces[0]

    shrunk = {x: x if x == v else shrunk_id(x) for x in J}
    inner = {rho: inner_id(rho) for rho in cone}
    copies, prisms = _collar(K, link, shrunk,
                             {opposite(rho): inner[rho] for rho in cone})
    for rho in cone:
        c = cells[rho]
        copies.append(new_cell(Cell, (shrunk[rho], c.dim, frozenset(
            [shrunk[f] for f in c.boundary]))))
    # a coface of a cone cell holds v, so inside J it is a cone cell
    # too: the cofaces left to patch are those outside J
    K._subdivide({rho: (shrunk[rho], inner[rho]) for rho in cone},
                 [*copies, *prisms])
    correspondence = dict(inner)
    correspondence.update(zip(link, link))
    return InnerCopy(complex=K, beta_prime=shrunk[beta],
                     correspondence=correspondence)


# --- composing two perfect functions ---------------------------------------


@dataclass
class ComposeReport:
    chi: int
    counts: tuple
    perfect: bool
    constant: float
    # always False: one formula serves every input range; kept because
    # perfbench/tracer.py reads it
    rescaled: bool
    alpha: str
    beta: str
    boundary_clearing_steps: int
    # alpha's sides on a surface, else the glued boundary cells
    glue_cycle_length: int


@dataclass(frozen=True)
class _LinkNames:
    """The prefixes of the cells of compose(M1, f1, M2, f2) on one link
    of a chain: each id of M2 gets `right`, each id of M1 `left`, and a
    collar, shrunken or tube cell made from a cell X gets `inner`,
    `shrunk` or `tube` in front of X's id in its own summand."""
    left: str
    right: str
    inner: str
    shrunk: str
    tube: str


_FIRST_LINK = _LinkNames("m1:", "m2:", "inner:m2:", "shrunk:m2:", "tube:")
_NINES = str.maketrans("0123456789", "9876543210")
_DOWN = re.compile(r"h[q-z]([0-9]{1,10}):")
_UP = re.compile(r"u[a-j]([0-9]{1,10})[mst]:")


def _down_stamp(k):
    """h, a letter for the number of digits of k (z for one, y for two,
    ...) and the nines' complement of k's digits, so that a larger k
    sorts lower."""
    digits = str(k)
    return "h%s%s:" % (chr(ord("z") + 1 - len(digits)),
                       digits.translate(_NINES))


def _up_stamp(k):
    """u, a letter for the number of digits of k (a for one, b for two,
    ...) and k's digits, so that a larger k sorts higher."""
    digits = str(k)
    return "u%s%s" % (chr(ord("a") - 1 + len(digits)), digits)


def _down_link(cid):
    """The link of a chain whose collar cell cid is, read off its id;
    None when cid is no collar cell."""
    if cid.startswith("inner:"):
        return 1
    m = _DOWN.match(cid)
    k = m and int(m[1].translate(_NINES))
    return k if k and m[0] == _down_stamp(k) else None


def _up_link(cid):
    """The link of a chain whose tube or second-summand cell cid is,
    read off its id; None when cid is neither."""
    if cid.startswith("tube:"):
        return 1
    m = _UP.match(cid)
    k = m and int(m[1])
    return k if k and m[0][:-2] == _up_stamp(k) else None


def _link_names(K):
    """The names compose gives when K is its first summand, read off K's
    smallest and largest id alone (each a single pass over the ids).

    A K whose smallest id is a collar cell and whose largest a tube or
    second-summand cell of some link, as compose's results are, keeps
    its ids: a down stamp `hz7:`, `hz6:`, ... (link 2, 3, ...) sorts
    below every id of K, the collar's place, and an up stamp `ua2`,
    `ua3`, ... with `m:`, `s:` or `t:` for the second summand, the
    shrunken copy and the tube above every id, in that order, as `m2:`,
    `shrunk:` and `tube:` sort above `m1:` and `inner:` below it.  Each
    new id is still one fixed prefix per kind of cell, then the id it is
    made from, so ids that extend others (`~b1`, `:top`) compare as they
    did too.  So every comparison of two ids gives what it gave when
    each link prefixed the first summand with `m1:`, and each output is
    that one up to an order-preserving renaming.  Any other K is prefixed `m1:`
    as on a first link, which names the new cells `inner:m2:`, `m2:`,
    `shrunk:m2:` and `tube:`."""
    down, up = _down_link(min(K.cells)), _up_link(max(K.cells))
    if down is None or up is None:
        return _FIRST_LINK
    u = _up_stamp(up + 1)
    return _LinkNames("", u + "m:", _down_stamp(down + 1), u + "s:",
                      u + "t:")


def _prefixed(K, V, prefix):
    """K and a draft of V with every id renamed to prefix + id through
    one map, and that map, so the field reuses the complex's new id
    strings; a common prefix keeps the sorted order of ids, so V's pairs
    are not sorted again."""
    name = {cid: prefix + cid for cid in K.cells}
    return K._renamed(name), V._renamed(name), name


def _renamed_values(f, name):
    """f's values renamed through `name`, one per id it maps: a value of
    an id that `name` does not know is dropped."""
    values = f.values
    return {new: values[old] for old, new in name.items()}


def _checked_summand(K, f):
    """The gradient field f induces on K and its critical cells, the one
    entry check of compose and decompose: taken from the record compose
    keeps on a complex it returned when f is the very function it
    returned with it, and otherwise checked in full."""
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


def _clear_top_cell_boundary(K, V, alpha, values):
    """Push critical edges and internal vertex-edge pairs off a critical
    2-cell's boundary: bisect the offender, then cut the corner triangle
    away so the critical polygon keeps its side count.

    K and V are subdivided in place.  `values` holds a Morse function f
    on K inducing V and is patched in place to one on the subdivided
    complex inducing the subdivided field; the cells that are gone lose
    their values.  Returns the heir of alpha, the steps taken and the
    cells whose value, or whose faces' or cofaces' values, the patch
    changed (the cleared alpha left out).

    Each step bisects an offender e = {p, q}, critical or paired with
    its endpoint p, into e1 = {p, w} and e2 = {q, w}, then cuts the
    corner {e1, w, e2} off alpha along a chord from p to q; both cuts
    patch f by _patch_values, which gives e1 f(e), w and e2
    (f(q) + f(e)) / 2, and the heir of the critical alpha f(alpha).
    """
    steps = 0
    patched = []
    while True:
        offenders = _boundary_offenders(K, V, alpha)
        if not offenders:
            break
        e = offenders[0]
        x, y = sorted(K.boundary(e))
        w, e1, e2 = _bisect_edge(K, V, e, values=values).new_cells
        # a critical alpha passes its criticality to the rest
        rec = _cut_corner(K, V, alpha, x, y, {w}, values)
        d, alpha, corner = rec.new_cells
        patched.extend((w, e1, e2, d, corner))
        steps += 1
    touched = _around(K, patched)
    touched.discard(alpha)
    return alpha, steps, touched


def _around(K, cells):
    """The cells of `cells` still in K, with their faces and cofaces:
    after in-place cuts that made `cells` and gave values to them alone,
    beside the partners _patch_values raises (a coface of a cell made),
    the cells whose value, faces or cofaces changed."""
    cofaces = K.coface_table
    out = set()
    for cid in cells:
        cell = K.cells.get(cid)
        if cell is not None:
            out.add(cid)
            out.update(cell.boundary)
            out.update(cofaces[cid])
    return out


def compose(M1, f1, M2, f2):
    """Connected sum carrying both perfect structures.

    Removes the critical top cell alpha of the first input and a
    non-critical top cell beta at the critical vertex of the second (on
    a surface one whose edges there lie on no critical 2-cell, when one
    does, which keeps a chain's alpha a triangle; _choose_beta),
    inserts the product tube over the boundary of alpha, shrinks the
    closed star of beta, and glues; the combined field pairs every glued
    boundary cell into its own prism, by the one field edit
    (VectorField._edit); on a surface the shrunken triangle is glued as
    it is, its smallest edge along k - 2 edges of the k-sided tube top
    (_surface_glue_map).  On a surface, the cells of
    alpha's boundary that are critical or paired inside it are first
    cleared off by bisections, and f1 is patched on the cells they make
    (_clear_top_cell_boundary); in other dimensions they raise
    UnclearableBoundary, and an alpha that is no simplex BadCellBoundary.
    A beta cut off a polygon's corner patches f2 as the clearing does f1
    (_choose_beta): compose synthesizes nothing, and f2 below is patched.
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
    The term f1(alpha) + 2 is the paper's C, kept when it suffices, and
    `rescaled` in the report is always False.  Floats round, though:
    along a chain, f1(alpha) and so C double with every link, so when
    f1(alpha) > 2^40 the left values are first ranked densely
    (_dense_ranks), which keeps every comparison and every equality of
    f1.  Rounding that still breaks the checked function (a float
    midpoint that ties, or values of f2 too large to take C exactly)
    raises InexactFunction naming the cells, so compose never returns a
    function it found invalid.

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

    The cells are named by _link_names(M1): a first summand that compose
    made keeps its ids, and the new cells take short stamps below and
    above them, so a chained link costs no rename of the whole surface.
    The names come from M1's ids alone, never from the record below, so
    this very M, a copy or a reparsed one give the same texts.

    The returned f has read-only values, and M keeps the record (f, V,
    critical cells of V).  A later compose or decompose handed this very
    M and this very f (the same objects, as a chain passes them on)
    reads V and the critical cells off it instead of checking f on every
    cell (_checked_summand).  Another complex, a copy of f or a function
    compose did not return is checked in full.
    The record is sound because:
    - edits mutate only drafts that no caller holds: a public surgery
      edits a copy it made, compose edits a draft or a renamed copy of
      each summand, M is the first one's, and a draft of M drops the
      record; the
      library already caches _betti, is_pseudomanifold and _surface_info
      on a complex;
    - f's values are a mappingproxy over a dict that nothing else holds,
      so they cannot change after the check;
    - f is valid and induces V on all of M: the touched cells are
      checked by the check decompose makes of its pieces
      (morsefield._check_carried, which reads V's partner map on them
      alone), and every other cell keeps its faces, its cofaces and the
      order of their values from a function valid on the first summand
      (the comment at the touched cells below).

    Nothing scans M whole for the report.  chi is read off the cell
    counts M keeps through its edits, and must equal the inputs'
    alternating critical sums less the sphere's chi, or compose raises
    InconsistentField ("Euler characteristic drifted").  The critical
    cells of V are sought among the touched cells and M1's critical
    cells alone (_critical_among), which finds them all: any other cell
    of M is a cell of M1 that no cut made or split, and not critical in
    V1, so V1 pairs it; a cut that drops a pair of V1 re-pairs the
    partner with the heir, and the glue only adds pairs, so V pairs it
    too.  The report's counts and the record's critical cells are
    critical_cells(V, M).
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
        a = crit1.cells[n][0]
        offenders = _boundary_offenders(M1, V1, a)
        if offenders:
            raise UnclearableBoundary(*offenders)
        _check_simplicial(M1, a, "compose glues a simplex, not %r" % a)
    names = _link_names(M1)
    # the table the result's function keeps, patched and extended below
    if names.left:
        K1, V1, name1 = _prefixed(M1, V1, names.left)
        values = _renamed_values(f1, name1)
    else:
        K1, V1 = M1._draft(), V1._draft()
        values = f1.values.copy()  # a dict, whether or not read-only
        if len(values) > len(K1.cells):  # f1 may hold values off M1
            values = {cid: values[cid] for cid in K1.cells}
    K2, V2, name2 = _prefixed(M2, V2, names.right)
    # a common prefix keeps the sorted order of ids
    alpha = names.left + crit1.cells[n][0]
    v2 = names.right + crit2.cells[0][0]
    if values[alpha] > 2.0 ** 40:  # dense ranks, as argued above
        values = _dense_ranks(values)

    # K1, V1, K2 and V2 are copies the edits below change in place
    clearing, cleared = 0, set()
    if n == 2:
        alpha, clearing, cleared = _clear_top_cell_boundary(
            K1, V1, alpha, values)

    f2v = _renamed_values(f2, name2)
    beta = _choose_beta(K2, V2, v2, f2v)
    cut = len(names.right)
    ic = _shrink_closed_star(K2, beta, v2,
                             lambda x: names.shrunk + x[cut:],
                             lambda x: names.inner + x[cut:])
    pairs2 = [(ic.correspondence.get(a, a), ic.correspondence.get(b, b))
              for a, b in V2.pair_list]

    # glue interface: boundary of the shrunken cell vs the tube top
    bprime = ic.beta_prime
    tube = build_prism_over_boundary(K1, alpha, names.tube)
    if n == 2:
        glue = _surface_glue_map(K1, K2, alpha, bprime, tube.top)
        cycle_length = len(K1.boundary(alpha))
    else:
        glue = _simplex_glue_map(K1, K2, bprime, tube.top)
        cycle_length = len(glue)

    # one edit of the first summand: alpha goes, and the second summand
    # comes in without the shrunken cell and its boundary, the cells on
    # that boundary re-glued onto the tube top, then the tube
    dropped = K2.closure(bprime)
    glued = []
    for cid, c in K2.cells.items():
        if cid in dropped:
            continue
        if not c.boundary.isdisjoint(glue):
            c = new_cell(Cell, (cid, c.dim, frozenset(
                [g for f in c.boundary for g in glue.get(f, (f,))])))
        glued.append(c)
    M = K1
    M._edit(remove=[alpha], add=[*glued, *tube.new_cells])

    # V1's partner map, built by the checks above, carries over with the
    # new pairs, unless one of them names a matched cell again
    V = V1
    V._edit(add=chain(((tube.top[cid], tube.prism[cid])
                       for cid in tube.base_cells), pairs2))
    V.pair_list = tuple(V.pair_list)

    # Only these cells can break the Morse condition or pair differently
    # than V: the tube and the second summand are new, alpha's boundary
    # lost alpha and gained the prisms, and the clearing patched f1 near
    # the cells it bisected.  Every other cell keeps its faces, its
    # cofaces and their values from f1, which is valid and induces V1.
    touched = [c.id for c in (*glued, *tube.new_cells)]
    touched.extend(tube.base_cells)
    touched.extend(sorted(cleared.difference(tube.base_cells)))
    preimage = {corr: orig for orig, corr in ic.correspondence.items()}
    glued_f2 = {c.id: f2v[preimage.get(c.id, c.id)] for c in glued}
    a = values.pop(alpha)
    C = max(2.0, a + 2.0, 2.0 * (a + 1.0 - min(glued_f2.values())))
    for cid in tube.base_cells:
        values[tube.top[cid]] = values[tube.prism[cid]] = \
            values[cid] + C / 2.0
    for cid, val in glued_f2.items():
        values[cid] = val + C
    f = _read_only_function(values)

    # off what the edits touched and the kept counts, as argued above
    counts = _critical_among(M, V, chain(
        touched, [names.left + c for cs in crit1.cells.values() for c in cs]))
    chi = euler_characteristic(M)
    chi_sphere = 2 if n % 2 == 0 else 0
    # a matching pairs cells of adjacent dimensions, so the alternating
    # sum of the inputs' critical counts is the sum of their chi
    chi_inputs = sum((-1) ** p * (m1 + m2) for p, (m1, m2)
                     in enumerate(zip(crit1.m, crit2.m)))
    if chi != chi_inputs - chi_sphere:
        raise InconsistentField("Euler characteristic drifted in compose")
    # a valid function inducing V makes V a gradient field
    _check_carried(M, V, f, touched)
    M._betti = BettiVector(tuple(
        b1 + b2 - (p == 0) - (p == n)
        for p, (b1, b2) in enumerate(zip(M1._betti.b, M2._betti.b))))
    M.is_pseudomanifold = True
    M._composed = (f, V, counts)
    report = ComposeReport(
        chi=chi, counts=counts.m, perfect=counts.m == M._betti.b,
        constant=C, rescaled=False,
        alpha=alpha, beta=beta,
        boundary_clearing_steps=clearing,
        glue_cycle_length=cycle_length,
    )
    return M, f, V, report


def _choose_beta(K2, V2, v2, values):
    """Non-critical simplicial top cell at the critical vertex v2, the
    first by id; on a surface the first such triangle whose two edges at
    v2 lie on no critical 2-cell, when one does.  When none lies there
    (surfaces only), the first polygon at v2 has its corner at v2 cut
    off by _cut_corner, in place on K2, V2 and `values` (the second
    function), and the corner, a triangle the cut pairs, is returned.
    v2 lies on two top cells or more, one critical at most, and then so
    is every triangle there: so a polygon lies at v2.

    Any such beta serves compose.  The preference keeps alpha a triangle
    along a chain of surfaces whose critical 2-cells are triangles, as
    the next link's alpha is the second summand's critical 2-cell:
    - the shrink adds a side only to a 2-cell that lies across an edge
      of beta at v2, as its _subdivide splits only those edges and the
      non-critical beta;
    - the glue maps the shrunken beta's smallest edge onto k - 2 edges
      of the k-sided tube top, and so adds k - 3 sides to the 2-cell
      across it, none when k = 3 (_surface_glue_map);
    - the clearing keeps alpha's side count (_clear_top_cell_boundary).
    So when alpha is a triangle and beta's edges at v2 lie on no
    critical 2-cell, the result's critical 2-cell keeps the sides it had
    in the second summand.  A link that finds no such beta takes the
    first one, and adds one side to the next alpha."""
    n = K2.top_dim
    pm = V2.partner_map()
    tops = sorted(t for t in K2.star(v2) if K2.cells[t].dim == n)
    good = [t for t in tops if len(K2.boundary(t)) == n + 1 and t in pm]
    if n == 2:
        cells, cofaces = K2.cells, K2.coface_table
        for t in good:
            if all(c in pm for e in cells[t].boundary
                   if v2 in cells[e].boundary for c in cofaces[e]):
                return t
    if good:
        return good[0]
    if n != 2:
        raise NoEligibleBeta(
            "no non-critical simplicial top cell at %r" % v2)
    t = next(t for t in tops if len(K2.boundary(t)) > 3)
    verts = K2.boundary_cycle(t)[0::2]
    i = verts.index(v2)
    return _cut_corner(K2, V2, t, verts[i - 1], verts[(i + 1) % len(verts)],
                       {v2}, values).new_cells[2]


def _surface_glue_map(K1, K2, alpha, bprime, top):
    """Glue map from the boundary of the shrunken triangle bprime onto
    the tube top (`top` maps alpha's boundary cells to their copies),
    each cell to a tuple of top cells.  Both walks start at their
    smallest vertex, the top walk backwards; bprime's smallest edge goes
    to the run of k - 2 top edges between the images of its ends, every
    other cell to one top cell.  This is the cycle isomorphism onto
    bprime with that edge split k - 3 times from its smaller end, less
    the split cells, which lie in bprime's closure that the glue drops,
    since the split walk keeps both anchors.  It starts at v2: v2's id
    starts with the second summand's prefix (`m2:` on a first link, an
    up stamp with `m:` along a chain; _link_names), every shrunk or
    split id with the shrunken copy's, which sorts above it (`shrunk:m2:`,
    the same stamp with `s:`).  It
    leaves v2 the same way: the half at v2, e~b1...~b1 for the smallest
    edge e, compares with the other edge at v2 as e does, unless that
    edge's id extends e's."""
    walk = [top[c] for c in K1.boundary_cycle(alpha)]
    i = walk.index(min(walk[0::2]))
    walk = walk[i::-1] + walk[:i:-1]
    inner = K2.boundary_cycle(bprime)  # from its smallest vertex
    j = inner.index(min(inner[1::2]))
    run = len(walk) - 5  # k - 2 edges and the k - 3 vertices between
    parts = [(c,) for c in walk]
    parts[j:j + run] = [tuple(walk[j:j + run:2])]
    return dict(zip(inner, parts))


def _simplex_glue_map(K1, K2, bprime, top):
    """Identify two simplex boundaries by sorted-vertex order; `top` maps
    each boundary cell of the removed simplex to its tube copy.  Both
    are n-simplices (compose checks alpha, _shrink_closed_star beta), so
    every cell of the second side has one counterpart on the first."""
    side2 = sorted(K2.closure(bprime) - {bprime})
    vmap = dict(zip(sorted(x for x in side2 if K2.dim(x) == 0),
                    sorted(x for x in top if K1.dim(x) == 0)))
    by_verts = {(K1.dim(c), frozenset(K1.vertices_of(c))): t
                for c, t in top.items()}
    return {c: (by_verts[K2.dim(c),
                         frozenset(vmap[x] for x in K2.vertices_of(c))],)
            for c in side2}
