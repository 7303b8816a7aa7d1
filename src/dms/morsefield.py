"""Discrete Morse functions and gradient vector fields.

A vector field is a partial matching of cells in adjacent dimensions;
validity means matching + incidence + no closed V-path.  A Morse
function assigns a real value per cell such that every cell has at most
one exceptional face (value >= own) and at most one exceptional coface
(value <= own), and never both: without that exclusivity the induced
matching would be ill-defined.

Ties are broken everywhere in sorted cell-id order so the whole module
is deterministic.
"""

import heapq
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from math import isfinite
from operator import itemgetter
from types import MappingProxyType

from .errors import (
    CyclicField,
    InconsistentField,
    InexactFunction,
    InvalidFunction,
    MissingValue,
    MultipleRoots,
    NotClosedSurface,
    StartIsCritical,
    UnknownCell,
)
from .homology import _betti_from_ranks, rank_gf2


class VectorField:
    """Partial matching (sigma, tau) with dim tau = dim sigma + 1.

    The raw pair list is kept as given (so invalid states such as a
    doubly matched cell can be represented and reported); partner_map
    insists on a genuine matching.  The sorted pair_list is a tuple, or
    a list on a draft (`_draft`, `_renamed`), which `_edit` edits.
    """

    def __init__(self, pairs=()):
        self.pair_list = tuple(sorted((str(a), str(b)) for a, b in pairs))
        self._partner = None

    @classmethod
    def _of_sorted(cls, pair_list, partner=None):
        """The field on `pair_list`, a sequence of pairs of str ids
        already in sorted order, and `partner` its partner map if built."""
        out = object.__new__(cls)
        out.pair_list = pair_list
        out._partner = partner
        return out

    def _draft(self):
        """A copy of this field for in-place edits to own: its pairs in
        a list, and its partner map if built."""
        pm = self._partner
        return VectorField._of_sorted(list(self.pair_list),
                                      None if pm is None else pm.copy())

    def _renamed(self, name):
        """A draft of this field with every id x renamed to name[x], for a
        map that keeps the sorted order of ids (a common prefix does): the
        pairs need no sorting, and a partner map already built is renamed."""
        pairs = [(name[a], name[b]) for a, b in self.pair_list]
        pm = self._partner
        if pm is not None:
            pm = {name[a]: name[b] for a, b in pm.items()}
        return VectorField._of_sorted(pairs, pm)

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.pairs() == other.pairs()

    def __len__(self):
        return len(self.pair_list)

    def pairs(self):
        return tuple(self.pair_list)

    def partner_map(self):
        if self._partner is None:
            pm = {}
            for a, b in self.pair_list:
                if a in pm or b in pm:
                    raise InconsistentField(
                        "cell %r is matched twice" % (a if a in pm else b))
                pm[a] = b
                pm[b] = a
            self._partner = pm
        return self._partner

    def replace(self, drop=(), add=()):
        """This field without the pairs in `drop` (every copy of each)
        and with the pairs in `add`: a draft of it takes the edit."""
        out = self._draft()
        out._edit(drop, add)
        return out

    def _edit(self, drop=(), add=()):
        """replace in place, on a field whose pairs are a list: the list
        is kept sorted by bisection instead of sorted again, and a
        partner map already built is edited along while the pairs stay a
        matching."""
        pairs, pm = self.pair_list, self._partner
        for p in drop:
            p = tuple(p)
            i = bisect_left(pairs, p)
            j = bisect_right(pairs, p, i)
            if j > i:
                del pairs[i:j]
                if pm is not None:
                    pm.pop(p[0], None)
                    pm.pop(p[1], None)
        for a, b in add:
            a, b = str(a), str(b)
            insort(pairs, (a, b))
            if pm is not None:
                if a in pm or b in pm:
                    pm = self._partner = None  # partner_map() names it
                else:
                    pm[a] = b
                    pm[b] = a


@dataclass(frozen=True)
class MorseFunction:
    values: dict  # or a read-only mappingproxy of one, as compose returns

    def __getitem__(self, cid):
        return self.values[cid]

    def __contains__(self, cid):
        return cid in self.values

    def __reduce__(self):
        # a mappingproxy does not pickle: values made read-only come back
        # read-only, over a dict of their own
        if isinstance(self.values, MappingProxyType):
            return _read_only_function, (dict(self.values),)
        return MorseFunction, (self.values,)


def _read_only_function(values):
    """The function on `values`, read-only: the dict must be one that
    nothing else holds."""
    return MorseFunction(MappingProxyType(values))


@dataclass(frozen=True)
class GradientPath:
    steps: tuple  # sigma0, tau0, sigma1, tau1, ...


@dataclass(frozen=True)
class MorseCounts:
    m: tuple
    cells: dict  # dim -> tuple of critical cell ids


@dataclass
class FunctionReport:
    ok: bool
    violations: list = field(default_factory=list)  # (cell, kind)


@dataclass
class FieldReport:
    ok: bool
    issues: list = field(default_factory=list)  # (kind, detail)
    cycle_witness: tuple | None = None


@dataclass(frozen=True)
class OnePathTree:
    root: str
    parent: dict  # vertex -> next vertex toward the root


# --- function side ---------------------------------------------------------


def validate_function(K, f):
    """Check the discrete Morse condition (with exclusivity) everywhere."""
    return _check_function(K, f)[0]


def _check_function(K, f, ids=None):
    """validate_function's verdict on the cells `ids` alone (every cell
    when None, after checking each has a value, else MissingValue, and a
    finite one, else InvalidFunction names the smallest cell whose value
    is not, as no order holds on nan): their violations, sorted by cell
    id, and from the same face loop the pairs (sigma, tau) with tau in
    `ids` and f(sigma) >= f(tau), the field f induces when valid.  Each
    of these cells, its faces and its cofaces must have a value."""
    cells = K.cells
    cofaces = K.coface_table
    values = f.values
    if ids is None:
        for cid in cells:
            if cid not in values:
                raise MissingValue(cid)
        bad = [cid for cid in cells if not isfinite(values[cid])]
        if bad:
            raise InvalidFunction("value %r of cell %s is not finite"
                                  % (values[min(bad)], min(bad)))
        ids = cells
    violations = []
    pairs = []
    for cid in ids:
        val = values[cid]
        exc_faces = exc_cofaces = 0
        for s in cells[cid].boundary:
            if values[s] >= val:
                exc_faces += 1
                pairs.append((s, cid))
        for c in cofaces[cid]:
            if values[c] <= val:
                exc_cofaces += 1
        if exc_faces > 1:
            violations.append((cid, "faces"))
        if exc_cofaces > 1:
            violations.append((cid, "cofaces"))
        if exc_faces == 1 and exc_cofaces == 1:
            violations.append((cid, "exclusivity"))
    # stable: a cell's violations keep the order they were found in
    violations.sort(key=itemgetter(0))
    return FunctionReport(ok=not violations, violations=violations), pairs


def _check_carried(K, V, f, ids):
    """Check f, carried by compose or decompose onto K, on the cells
    `ids` alone: valid there, else InexactFunction names the cells (the
    cuts' midpoints are exact in the reals), and inducing V's pairs
    whose higher cell is among them, else InconsistentField names the
    smallest t of `ids` where they part.  Only V's partner map on `ids`
    is read: a valid f pairs each t with one face at most, so it induces
    those pairs exactly when two maps agree, t to the face f pairs it
    with, and t to its partner in V when that is a face of t."""
    report, pairs = _check_function(K, f, ids)
    if not report.ok:
        raise InexactFunction(*report.violations[:5])
    pm = V.partner_map()
    cells = K.cells
    induced = {t: s for s, t in pairs}
    below = {t: pm[t] for t in ids if pm.get(t) in cells[t].boundary}
    if induced != below:
        t = min(t for t in induced.keys() | below.keys()
                if induced.get(t) != below.get(t))
        raise InconsistentField(
            "carried function induces a different field at %s: f pairs it "
            "with %s, the field with %s"
            % (t, induced.get(t, "no face"), below.get(t, "no face")))


def _dense_ranks(values):
    """`values` with each value replaced by its rank among the distinct
    values, as a float: every comparison and equality is kept, and the
    values stay small enough for the cuts' midpoints to be exact."""
    rank = {x: float(i) for i, x in enumerate(sorted(set(values.values())))}
    return {cid: rank[x] for cid, x in values.items()}


def induced_field(K, f):
    """The gradient vector field of a valid Morse function: pair every
    (sigma, tau) with sigma a face of tau and f(sigma) >= f(tau)."""
    report, pairs = _check_function(K, f)
    if not report.ok:
        raise InvalidFunction(report.violations[:5])
    return VectorField(pairs)


def make_injective(K, f):
    """Injective values with the same induced field; strict comparisons
    of the input stay strict.  Values become consecutive integers."""
    cells = K.cells
    values = f.values
    pm = induced_field(K, f).partner_map()

    def tie_rank(cid):
        partner = pm.get(cid)
        if partner is not None and values[partner] == values[cid]:
            # the higher cell of an equal-valued pair must end up lower
            return 0 if cells[cid].dim > cells[partner].dim else 1
        return 0

    order = sorted(cells, key=lambda c: (values[c], tie_rank(c), c))
    return MorseFunction({cid: float(i) for i, cid in enumerate(order)})


# --- field side ------------------------------------------------------------


def validate_field(K, V):
    """Matching, incidence and acyclicity checks; failures are report
    entries, never exceptions.  Acyclicity is the V-path pass of
    morse_betti; only when it meets a closed V-path is one searched for,
    to name it."""
    issues = _matching_issues(K, V)
    witness = None
    if not issues and _flows(K, V) is None:
        witness = _find_cycle(K, dict(V.pair_list))
        issues.append(("cycle", witness))
    return FieldReport(ok=not issues, issues=issues, cycle_witness=witness)


def _matching_issues(K, V):
    """validate_field's issues short of acyclicity: each pair must be a
    cell and one of its facets, and no cell may be matched twice."""
    cells = K.cells
    issues = []
    seen = set()
    for a, b in V.pairs():
        ca, cb = cells.get(a), cells.get(b)
        if ca is None or cb is None:
            issues.append(("unknown-cell", a if ca is None else b))
            continue
        if cb.dim != ca.dim + 1:
            issues.append(("dimension", (a, b)))
            continue
        if a not in cb.boundary:
            issues.append(("incidence", (a, b)))
            continue
        if a in seen or b in seen:
            issues.append(("double-match", a if a in seen else b))
            continue
        seen.add(a)
        seen.add(b)
    return issues


def _find_cycle(K, head_of):
    """A closed V-path, or None when there is none.  head_of maps each
    tail sigma to its pair tau; a V-path hops tau -> another face of tau
    that is itself a tail, so it keeps its dimension.  One depth-first
    search from the tails in (dimension, id) order, taking each tail's
    steps in id order, names the first cycle it closes as (sigma, tau,
    ...), starting at the tail it closes on."""
    cells = K.cells

    def steps(s):
        return iter(sorted(x for x in cells[head_of[s]].boundary
                           if x != s and x in head_of))

    done = set()
    for start in sorted(head_of, key=lambda s: (cells[s].dim, s)):
        if start in done:
            continue
        # the tails on the path in order, each with its place on it
        on_path, stack = {start: 0}, [steps(start)]
        while stack:
            for nxt in stack[-1]:
                if nxt in on_path:
                    cycle = list(on_path)[on_path[nxt]:]
                    return tuple(x for s in cycle for x in (s, head_of[s]))
                if nxt not in done:
                    on_path[nxt] = len(on_path)
                    stack.append(steps(nxt))
                    break
            else:
                stack.pop()
                done.add(on_path.popitem()[0])
    return None


def critical_cells(V, K):
    """Unmatched cells graded by dimension."""
    return _critical_among(K, V, K.cells)


def _critical_among(K, V, ids):
    """critical_cells(V, K) for a V whose critical cells all lie among
    the ids `ids`: those of them in K that V leaves unmatched."""
    pm = V.partner_map()
    cells = K.cells
    crit = {p: [] for p in range(K.top_dim + 1)}
    for cid in sorted({x for x in ids if x not in pm and x in cells}):
        crit[cells[cid].dim].append(cid)
    return MorseCounts(m=tuple(map(len, crit.values())),
                       cells={p: tuple(c) for p, c in crit.items()})


def is_perfect(K, V):
    """Whether the gradient field V has exactly b_p critical p-cells in
    every dimension p, the Betti numbers coming from its Morse complex.
    A pair list that is no matching of faces raises InconsistentField
    and a closed V-path CyclicField, as in synthesize_function."""
    issues = _matching_issues(K, V)
    if issues:
        raise InconsistentField(issues[:5])
    K._betti = morse_betti(K, V)
    return critical_cells(V, K).m == K._betti.b


def _betti(K, V):
    """K's Betti numbers from K's cache, or from the gradient field V
    and then cached on K, since they do not depend on V."""
    if K._betti is None:
        K._betti = morse_betti(K, V)
    return K._betti


def morse_betti(K, V):
    """BettiVector of K over GF(2), read off the Morse complex of V.

    V must be a matching of faces (as _matching_issues checks it); a
    closed V-path raises CyclicField.  The Morse complex has the
    critical cells as its chains and the same homology as K (Forman
    1998); its mod-2 differential is read off the flows of _flows, and
    the tiny Morse matrices are ranked with rank_gf2.
    """
    passed = _flows(K, V)
    if passed is None:
        raise CyclicField(_find_cycle(K, dict(V.pair_list)))
    flow, critical = passed
    n = K.top_dim
    ranks = [0] * (n + 2)  # rank of the Morse d_p; d_0 and d_{n+1} are zero
    for p in range(1, n + 1):
        columns = []
        for cell in critical[p]:
            col = 0
            for x in cell.boundary:
                col ^= flow[x]
            columns.append(col)
        ranks[p] = rank_gf2(columns)
    return _betti_from_ranks([len(c) for c in critical], ranks)


def _flows(K, V):
    """The one V-path pass: (flow, critical) for a matching of faces V,
    or None when V has a closed V-path (Forman 1998: V is a gradient
    exactly when it has none).

    critical[p] lists K's critical p-cells in table order, and flow maps
    every cell to a bitset over the critical cells of its dimension: the
    gradient paths from it to each, counted mod 2 on the flow DAG in one
    memoised pass over the matched cells (Mischaikow-Nanda 2013).  A
    critical cell flows to itself, the higher cell of a pair to nothing,
    and the lower cell of a pair to the sum of the flows of its
    partner's other faces.
    """
    cells = K.cells
    pm = V.partner_map()
    critical = [[] for _ in range(K.top_dim + 1)]
    flow = {}
    for cid, cell in cells.items():
        if cid not in pm:
            crit = critical[cell.dim]
            flow[cid] = 1 << len(crit)
            crit.append(cell)
    tails = []
    for a, b in V.pair_list:
        flow[b] = 0
        tails.append(a)
    for start in tails:
        if start in flow:
            continue
        stack = [start]
        waiting = {start}  # tails whose flow waits on a face of their partner
        while stack:
            x = stack[-1]
            acc = 0
            for y in cells[pm[x]].boundary:
                if y != x:
                    fy = flow.get(y)
                    if fy is None:
                        break
                    acc ^= fy
            else:
                flow[x] = acc
                waiting.discard(stack.pop())
                continue
            if y in waiting:
                return None
            stack.append(y)
            waiting.add(y)
    return flow, critical


def trace_1path_tree(K, V):
    """Successor map following vertex -> matched edge -> other endpoint;
    with one critical vertex this is a spanning tree rooted there, unless
    _find_cycle meets a closed V-path of vertices and edges."""
    pm = V.partner_map()
    roots = [v for v in K.cells_of_dim(0) if v not in pm]
    if len(roots) != 1:
        raise MultipleRoots("%d critical vertices" % len(roots))
    root = roots[0]
    parent = {}
    for vid in K.cells_of_dim(0):
        if vid == root:
            continue
        eid = pm[vid]
        if K.dim(eid) != 1:
            raise InconsistentField("vertex %s paired with dim-%d cell"
                                    % (vid, K.dim(eid)))
        other = [x for x in K.boundary(eid) if x != vid]
        if len(other) != 1:
            raise InconsistentField("edge %s has strange boundary" % eid)
        parent[vid] = other[0]
    witness = _find_cycle(K, {v: pm[v] for v in parent})
    if witness is not None:
        raise InconsistentField("1-path cycle at %s" % witness[0])
    return OnePathTree(root=root, parent=parent)


def trace_2path(K, V, start_facet, critical_facet):
    """The unique reverse-traced 2-path from (a face of) critical_facet
    ending at start_facet, on a closed surface.

    Stepping rule: a non-critical 2-cell is matched with one of its
    edges, and that edge has precisely one other 2-coface, which is the
    previous cell of the path.
    """
    if not K.is_closed_surface:
        raise NotClosedSurface("trace_2path needs a closed surface")
    if start_facet not in K.cells:
        raise UnknownCell(start_facet)
    pm = V.partner_map()
    if start_facet not in pm:
        raise StartIsCritical(start_facet)
    backward = []
    t = start_facet
    visited = set()
    while True:
        if t in visited:
            raise InconsistentField("2-path revisits %s" % t)
        visited.add(t)
        e = pm.get(t)
        if e is None or K.dim(e) != 1:
            raise InconsistentField("facet %s is not edge-matched" % t)
        backward.append((e, t))
        others = [c for c in K.cofaces(e) if c != t]
        if len(others) != 1:
            raise InconsistentField("edge %s has %d cofaces" % (e, len(others) + 1))
        prev = others[0]
        if prev == critical_facet:
            break
        if prev not in pm:
            raise InconsistentField(
                "2-path from %s begins at unexpected critical cell %s"
                % (start_facet, prev))
        t = prev
    steps = []
    for e, t in reversed(backward):
        steps.extend((e, t))
    return GradientPath(steps=tuple(steps))


def synthesize_function(K, V):
    """A Morse function inducing exactly V.

    Matched pairs are contracted to one node of the flow digraph; a
    deterministic topological order of the nodes gives the values, so
    pair members share a value and every other face relation is strict.
    The flow digraph has a directed cycle exactly when V has a closed
    V-path (Chari 2000), so the order also decides acyclicity; only then
    is the V-path searched for, to name it in CyclicField.

    The cells are ranked once in id order, and the contracted nodes,
    their successor lists (the nodes of their cells' faces, counted into
    the in-degrees in the same walk) and the min-heap work on ranks.
    Ranks order like ids, so the heap pops the smallest ready node and
    the order is the lexicographically smallest topological one, however
    the lists are ordered.
    """
    issues = _matching_issues(K, V)
    if issues:
        raise InconsistentField(issues[:5])
    cells = K.cells
    rank = dict(zip(sorted(cells), range(len(cells))))
    # node[r] is the node of the cell of rank r: a matched pair is one
    # node, named by its smaller rank
    node = list(range(len(rank)))
    for a, b in V.pair_list:
        ra, rb = rank[a], rank[b]
        node[ra] = node[rb] = min(ra, rb)
    # a successor list keeps repeats, and a node's in-degree counts them,
    # so it reaches 0 when its last face relation is done
    succ = [[] if nr == r else None for r, nr in enumerate(node)]
    indeg = [0] * len(node)
    for tid, cell in cells.items():
        nt = node[rank[tid]]
        out = succ[nt]
        for sid in cell.boundary:
            ns = node[rank[sid]]
            if ns != nt:
                out.append(ns)
                indeg[ns] += 1
    # listed in rank order, the ready nodes already form a heap
    ready = [r for r, nr in enumerate(node) if nr == r and not indeg[r]]
    position = [0] * len(node)
    done = 0
    while ready:
        r = heapq.heappop(ready)
        position[r] = done
        done += 1
        for ns in succ[r]:
            indeg[ns] -= 1
            if not indeg[ns]:
                heapq.heappush(ready, ns)
    if done != len(node) - len(V.pair_list):
        raise CyclicField(_find_cycle(K, dict(V.pairs())))
    top = done - 1
    return MorseFunction({cid: float(top - position[node[rank[cid]]])
                          for cid in cells})
