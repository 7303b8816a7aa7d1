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

from dataclasses import dataclass, field

from .cellcomplex import (
    Cell,
    Complex,
    TAG_BISECTION,
    TAG_INNER,
    TAG_TUBE,
    euler_characteristic,
)
from .errors import (
    BadCellBoundary,
    BadChord,
    DimensionMismatch,
    InconsistentField,
    NoEligibleBeta,
    NonPseudomanifold,
    NotA2Cell,
    NotAnEdge,
    NotPerfectInput,
    NotTopCell,
    VertexNotOnCell,
)
from .morsefield import (
    MorseFunction,
    VectorField,
    _field_of,
    critical_cells,
    induced_field,
    is_perfect,
    synthesize_function,
    validate_field,
    validate_function,
)


@dataclass(frozen=True)
class BisectionRecord:
    old_cell: str
    new_cells: tuple
    new_pairings: tuple
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
    j_cells: frozenset         # closure of beta in the input complex
    j_prime: frozenset         # ids of the shrunken copy (incl. v)
    j_second: frozenset        # outer link + collar + inner copies
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
    K2, (w, e1, e2) = _split_edge(K, e, inherit_end)

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
    rec = BisectionRecord(old_cell=e, new_cells=(w, e1, e2),
                          new_pairings=tuple(add), replacements={e: e1})
    return K2, V2, rec


def _split_edge(K, e, inherit_end):
    """The complex half of bisect_edge: e becomes a new vertex e~b0, the
    half e~b1 from inherit_end to it and the half e~b2 from the other
    endpoint.  Returns (new complex, (e~b0, e~b1, e~b2))."""
    other_end, = K.boundary(e) - {inherit_end}
    w, e1, e2 = e + "~b0", e + "~b1", e + "~b2"
    K2 = K.split_cell(e, [
        Cell(w, 0, frozenset(), TAG_BISECTION),
        Cell(e1, 1, frozenset({inherit_end, w}), TAG_BISECTION),
        Cell(e2, 1, frozenset({other_end, w}), TAG_BISECTION),
    ], (e1, e2))
    return K2, (w, e1, e2)


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
    iu, iw = verts.index(u), verts.index(w)
    m = len(verts)
    arc1, arc2 = [], []
    i = iu
    while i != iw:
        arc1.append(edges[i])
        i = (i + 1) % m
    while i != iu:
        arc2.append(edges[i])
        i = (i + 1) % m

    d = c + "~b0"
    c1 = c + "~b1"
    c2 = c + "~b2"
    K2 = K.split_cell(c, [
        Cell(d, 1, frozenset({u, w}), TAG_BISECTION),
        Cell(c1, 2, frozenset(arc1) | {d}, TAG_BISECTION),
        Cell(c2, 2, frozenset(arc2) | {d}, TAG_BISECTION),
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
    rec = BisectionRecord(old_cell=c, new_cells=(d, c1, c2),
                          new_pairings=tuple(add), replacements={c: inheritor})
    return K2, V2, rec


# --- separating critical cells ---------------------------------------------


def _crits_in_closures(K, crits):
    """Cells whose closure holds >= 2 distinct critical cells, each with
    the sorted critical cells it holds; a cell holds c exactly when it
    lies in the star of c."""
    hits = {}
    for c in sorted(set(crits)):
        for cid in K.star(c):
            hits.setdefault(cid, []).append(c)
    return [(cid, held) for cid, held in sorted(hits.items())
            if len(held) >= 2]


def _touching_crit_pairs(K, crits):
    """Pairs of critical cells whose closures intersect (e.g. two
    critical edges with a common vertex)."""
    out = []
    for i, c1 in enumerate(crits):
        for c2 in crits[i + 1:]:
            shared = K.closure(c1) & K.closure(c2)
            if shared:
                out.append((c1, c2, sorted(shared)))
    return out


def _separating_chord(K, V, c, span_a, span_b, vertex_crits):
    """Chord-split polygon c so span_a and span_b land in different
    pieces; manufactures midpoints by bisecting gap edges if needed."""
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
            K, V, rec = bisect_2cell(K, V, c, u, w)
            return K, V, True
    gap_edges = [cycle[i] for i in gap1 + gap2 if i % 2 == 1]
    if not gap_edges:
        raise InconsistentField(
            "cannot separate %r and %r inside %r" % (span_a, span_b, c))
    K, V, rec = bisect_edge(K, V, gap_edges[0])
    return K, V, False  # cycle changed; caller retries


def separate_critical_cells(K, V):
    """Subdivide until no cell's closure contains two critical cells.

    Each step either bisects a critical edge away from a critical vertex
    on it, or chord-splits a polygon whose closure holds two critical
    cells; the number of (cell, critical pair) coincidences strictly
    decreases, so the loop terminates.
    """
    guard = 0
    records = []
    while True:
        guard += 1
        if guard > 100 + 10 * len(K.cells):
            raise InconsistentField("separation loop did not converge")
        crits = V.critical(K)
        witnesses = _crits_in_closures(K, crits)
        if not witnesses:
            touching = _touching_crit_pairs(K, crits)
            if not touching:
                return K, V, records
            c1, c2, shared = touching[0]
            x = shared[0]
            edges = [c for c in (c1, c2) if K.dim(c) == 1]
            if edges:
                e = edges[0]
                other_crit = c2 if e == c1 else c1
                far = sorted(y for y in K.boundary(e)
                             if y not in K.closure(other_crit))
                anchor = far[0] if far else sorted(K.boundary(e) - {x})[0]
                K, V, rec = bisect_edge(K, V, e, anchor=anchor)
                records.append(rec)
                continue
            # two critical polygons meeting in a vertex: cut the corner
            # of the first one off, keeping criticality away from it
            cycle = list(K.boundary_cycle(c1))
            others = [cell for cell in cycle if cell != x]
            span_b = others[len(others) // 2]
            K, V, _done = _separating_chord(K, V, c1, x, span_b,
                                            {h for h in crits
                                             if K.dim(h) == 0})
            continue
        witnesses.sort(key=lambda x: (K.dim(x[0]), x[0]))
        wid, hits = witnesses[0]
        wcell = K.cell(wid)
        if wcell.dim == 1:
            # critical edge containing a critical vertex, or an edge
            # between two critical vertices
            if wid in hits:
                vcrit = [h for h in hits if h != wid][0]
                other = [x for x in K.boundary(wid) if x != vcrit][0]
                K, V, rec = bisect_edge(K, V, wid, anchor=other)
            else:
                K, V, rec = bisect_edge(K, V, wid)
            records.append(rec)
            continue
        span_a, span_b = hits[0], hits[1]
        if wid in hits:
            # the inheriting piece of a critical polygon is the one whose
            # boundary arc holds span_b, so isolate the other critical
            span_a = [h for h in hits if h != wid][0]
            cycle = list(K.boundary_cycle(wid))
            others = [cell for cell in cycle
                      if cell != span_a and cell not in K.closure(span_a)]
            span_b = others[len(others) // 2]
        vertex_crits = {h for h in hits if K.dim(h) == 0}
        K, V, _done = _separating_chord(K, V, wid, span_a, span_b, vertex_crits)


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
                          frozenset(top[f] for f in c.boundary), TAG_TUBE))
    for cid in base:
        c = K.cell(cid)
        bnd = {cid, top[cid]} | {prism[f] for f in c.boundary}
        cells.append(Cell(prism[cid], c.dim + 1, frozenset(bnd), TAG_TUBE))
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
    preserved by the correspondence.
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
                              frozenset(shrunk_id(f) for f in c.boundary),
                              TAG_INNER))
    for rho in cone:
        c = K.cell(rho)
        new_cells.append(Cell(shrunk_id(rho), c.dim,
                              frozenset(shrunk_ref(f) for f in c.boundary),
                              TAG_INNER))
    for sid in link:
        c = K.cell(sid)
        bnd = {sid, shrunk_id(sid)} | {inner_id(cone_of[f]) for f in c.boundary}
        new_cells.append(Cell(inner_id(cone_of[sid]), c.dim + 1,
                              frozenset(bnd), TAG_INNER))
    # cofaces outside J of the split cone cells list both of their parts
    outside_patch = []
    for t in sorted({t for rho in cone for t in K.cofaces(rho)} - J):
        tc = K.cell(t)
        bnd = set(tc.boundary)
        for rho in cone:
            if rho in bnd:
                bnd.discard(rho)
                bnd |= {shrunk_id(rho), inner_id(rho)}
        outside_patch.append(Cell(t, tc.dim, frozenset(bnd), tc.tag))

    K2 = K.replace_cells(remove=cone, add=new_cells + outside_patch)
    correspondence = {rho: inner_id(rho) for rho in cone}
    for sid in link:
        correspondence[sid] = sid
    j_prime = frozenset({v} | {shrunk_id(x) for x in link}
                        | {shrunk_id(x) for x in cone})
    j_second = frozenset(set(link)
                         | {shrunk_id(x) for x in link}
                         | {inner_id(x) for x in cone})
    return InnerCopy(complex=K2, j_cells=frozenset(J), j_prime=j_prime,
                     j_second=j_second, beta_prime=shrunk_id(beta),
                     correspondence=correspondence)


# --- composing two perfect functions ---------------------------------------


@dataclass
class ComposeReport:
    chi: int
    counts: tuple
    perfect: bool
    function_valid: bool
    constant: float
    rescaled: bool
    resynthesized_left: bool
    alpha: str
    beta: str
    boundary_clearing_steps: int
    glue_cycle_length: int


def _prefixed(K, V, f, prefix):
    """K, V and f with every id renamed to prefix + id.  The field and
    the function reuse the complex's new id strings."""
    Kp = K.prefixed(prefix)
    name = dict(zip(K.cells, Kp.cells))  # prefixed keeps the cell order
    Vp = VectorField((name[a], name[b]) for a, b in V.pairs())
    fp = MorseFunction({name[cid] if cid in name else prefix + cid: val
                        for cid, val in f.values.items()})
    return Kp, Vp, fp


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
        wmid = rec.new_cells[0]
        cycle = K.boundary_cycle(alpha)
        verts = list(cycle[0::2])
        edges = list(cycle[1::2])
        iu, iw = verts.index(x), verts.index(y)
        # choose argument order so the inheriting piece avoids the midpoint
        i, arc_has_mid = iu, False
        while i != iw:
            if wmid in K.boundary(edges[i]):
                arc_has_mid = True
            i = (i + 1) % len(verts)
        u, w = (y, x) if arc_has_mid else (x, y)
        K, V, rec2 = bisect_2cell(K, V, alpha, u, w)
        alpha = rec2.replacements[alpha]
        steps += 1


def _rank_rescale(f):
    """Order-isomorphic copy of f with values spread over [0, 1]."""
    levels = sorted(set(f.values.values()))
    if len(levels) == 1:
        return MorseFunction({cid: 0.0 for cid in f.values})
    scale = {val: i / (len(levels) - 1) for i, val in enumerate(levels)}
    return MorseFunction({cid: scale[val] for cid, val in f.values.items()})


def compose(M1, f1, M2, f2):
    """Connected sum carrying both perfect structures.

    Removes the critical top cell alpha of the first input and a
    non-critical top cell beta at the critical vertex of the second,
    inserts the product tube over the boundary of alpha, shrinks the
    closed star of beta, and glues; the combined field pairs every glued
    boundary cell into its own prism.  The combined function is f1 on
    the first side, f1 + C/2 on tube cells, and f2 + C beyond, with
    C = f1(alpha) + 2.  If those literal values break the Morse
    condition (possible when the input ranges overlap too much), both
    inputs are replaced by order-isomorphic copies in [0, 1] and the
    formula is re-applied; the report records this.
    """
    if M1.top_dim != M2.top_dim:
        raise DimensionMismatch((M1.top_dim, M2.top_dim))
    n = M1.top_dim
    for K in (M1, M2):
        if not K.is_pseudomanifold:
            raise NonPseudomanifold("compose input is not a closed "
                                    "pseudomanifold")
    V1 = induced_field(M1, f1)
    V2 = induced_field(M2, f2)
    for K, V in ((M1, V1), (M2, V2)):
        if not is_perfect(K, V):
            raise NotPerfectInput(critical_cells(V, K).m)
    K1, V1, f1w = _prefixed(M1, V1, f1, "m1:")
    K2, V2, f2w = _prefixed(M2, V2, f2, "m2:")

    alpha = critical_cells(V1, K1).cells[n][0]
    v2 = critical_cells(V2, K2).cells[0][0]

    clearing = 0
    resynth = False
    if n == 2:
        K1, V1, alpha, clearing = _clear_top_cell_boundary(K1, V1, alpha)
        if clearing:
            f1w = synthesize_function(K1, V1)
            resynth = True
    elif _boundary_offenders(K1, V1, alpha):
        raise InconsistentField(
            "pairs inside the removed cell's boundary; clearing is only "
            "implemented for surfaces")

    K2, V2, beta, beta_steps = _choose_beta(K2, V2, v2)
    if beta_steps:
        f2w = synthesize_function(K2, V2)
    ic = shrink_closed_star(K2, beta, v2)
    K2 = ic.complex
    pairs2 = [(ic.correspondence.get(a, a), ic.correspondence.get(b, b))
              for a, b in V2.pairs()]
    V2 = VectorField(pairs2)

    # glue interface: boundary of the shrunken cell vs the tube top
    bprime = ic.beta_prime
    bprime_cells = K2.closure(bprime) - {bprime}
    if n == 2:
        k_top = len(K1.cell(alpha).boundary)
        while len([c for c in bprime_cells if K2.dim(c) == 1]) < k_top:
            # the new cells are glued away, so they stay unmatched
            e = min(c for c in bprime_cells if K2.dim(c) == 1)
            K2, _ = _split_edge(K2, e, min(K2.boundary(e)))
            bprime_cells = K2.closure(bprime) - {bprime}
        glue = _surface_glue_map(K1, K2, alpha, bprime)
    else:
        glue = _simplex_glue_map(K1, K2, alpha, bprime)

    tube = build_prism_over_boundary(K1, alpha)

    # one edit of the disjoint union: alpha and the shrunken cell with its
    # boundary go, the tube comes in, and the cells on that boundary are
    # re-glued onto the tube top
    union = K1.disjoint_union(K2)
    dropped = bprime_cells | {bprime}
    reglued = []
    for cid in sorted({t for d in bprime_cells
                       for t in K2.cofaces(d)} - dropped):
        c = K2.cells[cid]
        reglued.append(Cell(cid, c.dim,
                            frozenset([glue.get(f, f) for f in c.boundary]),
                            c.tag))
    M = union.replace_cells(remove=[alpha, *dropped],
                            add=[*tube.new_cells, *reglued])

    pairs = list(V1.pairs())
    pairs.extend((tube.top[cid], tube.prism[cid]) for cid in tube.base_cells)
    pairs.extend(pairs2)
    V = VectorField(pairs)

    def assemble_function(f1v, f2v):
        C = f1v[alpha] + 2.0
        values = {}
        for cid in K1.cells:
            if cid == alpha:
                continue
            values[cid] = f1v[cid]
        for cid in tube.base_cells:
            values[tube.top[cid]] = f1v[cid] + C / 2.0
            values[tube.prism[cid]] = f1v[cid] + C / 2.0
        preimage = {}
        for orig, corr in ic.correspondence.items():
            preimage[corr] = orig
        for cid in M.cells:
            if cid in values:
                continue
            src = preimage.get(cid, cid)
            values[cid] = f2v[src] + C
        return MorseFunction(values), C

    f, C = assemble_function(f1w, f2w)
    freport = validate_function(M, f)
    rescaled = not freport.ok
    if rescaled:
        f1w = _rank_rescale(f1w)
        f2w = _rank_rescale(f2w)
        f, C = assemble_function(f1w, f2w)
        freport = validate_function(M, f)

    vreport = validate_field(M, V)
    counts = critical_cells(V, M)
    chi = euler_characteristic(M)
    chi_sphere = 2 if n % 2 == 0 else 0
    if chi != euler_characteristic(M1) + euler_characteristic(M2) - chi_sphere:
        raise InconsistentField("Euler characteristic drifted in compose")
    if not vreport.ok:
        raise InconsistentField(vreport.issues[:3])
    if freport.ok and _field_of(M, f) != V:
        raise InconsistentField("composed function induces a different field")
    report = ComposeReport(
        chi=chi, counts=counts.m, perfect=is_perfect(M, V),
        function_valid=freport.ok, constant=C, rescaled=rescaled,
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
        tops = sorted(t for t in K2.cells
                      if K2.dim(t) == n and v2 in K2.closure(t))
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


def _surface_glue_map(K1, K2, alpha, bprime):
    """Cycle isomorphism from the shrunken boundary onto the tube top,
    anchored at the smallest vertices, directions reversed."""
    top_of = {cid: tube_top_id(cid) for cid in K1.closure(alpha) - {alpha}}
    base_cycle = list(K1.boundary_cycle(alpha))
    top_cycle = [top_of[c] for c in base_cycle]
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


def _simplex_glue_map(K1, K2, alpha, bprime):
    """Identify two simplex boundaries by sorted-vertex order."""
    side1 = sorted(K1.closure(alpha) - {alpha})
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
        by_verts[(K1.dim(cid), frozenset(K1.vertices_of(cid)))] = tube_top_id(cid)
    glue = {}
    for cid in side2:
        tgt = by_verts.get((K2.dim(cid), key(K2, cid, vmap)))
        if tgt is None:
            raise InconsistentField("simplex boundaries do not match")
        glue[cid] = tgt
    return glue
