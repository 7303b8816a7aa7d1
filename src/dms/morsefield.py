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
from dataclasses import dataclass, field

from .errors import (
    CyclicField,
    InconsistentField,
    InvalidFunction,
    MissingValue,
    MultipleRoots,
    NotClosedSurface,
    StartIsCritical,
    UnknownCell,
)
from .homology import betti_mod2


class VectorField:
    """Partial matching (sigma, tau) with dim tau = dim sigma + 1.

    The raw pair list is kept as given (so invalid states such as a
    doubly matched cell can be represented and reported); partner_map
    insists on a genuine matching.
    """

    def __init__(self, pairs=()):
        self.pair_list = tuple(sorted((str(a), str(b)) for a, b in pairs))
        self._partner = None

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.pair_list == other.pair_list

    def __len__(self):
        return len(self.pair_list)

    def pairs(self):
        return self.pair_list

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

    def partner(self, cid):
        return self.partner_map().get(cid)

    def is_matched(self, cid):
        return cid in self.partner_map()

    def critical(self, K):
        pm = self.partner_map()
        return [cid for cid in sorted(K.cells) if cid not in pm]

    def replace(self, drop=(), add=()):
        dropped = {tuple(p) for p in drop}
        pairs = [p for p in self.pair_list if p not in dropped]
        pairs.extend(add)
        return VectorField(pairs)


@dataclass(frozen=True)
class MorseFunction:
    values: dict

    def __getitem__(self, cid):
        return self.values[cid]

    def __contains__(self, cid):
        return cid in self.values

    def shifted(self, c):
        return MorseFunction({cid: v + c for cid, v in self.values.items()})


@dataclass(frozen=True)
class GradientPath:
    dim: int
    steps: tuple  # sigma0, tau0, sigma1, tau1, ...

    def cells(self):
        return self.steps

    def facets(self):
        return self.steps[1::2]

    def __len__(self):
        return len(self.steps)


@dataclass(frozen=True)
class MorseCounts:
    m: tuple
    cells: dict  # dim -> tuple of critical cell ids

    def __iter__(self):
        return iter(self.m)

    def __getitem__(self, p):
        return self.m[p]


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
    for cid in K.cells:
        if cid not in f:
            raise MissingValue(cid)
    violations = []
    for cid in sorted(K.cells):
        val = f[cid]
        exc_faces = sum(1 for s in K.boundary(cid) if f[s] >= val)
        exc_cofaces = sum(1 for c in K.cofaces(cid) if f[c] <= val)
        if exc_faces > 1:
            violations.append((cid, "faces"))
        if exc_cofaces > 1:
            violations.append((cid, "cofaces"))
        if exc_faces == 1 and exc_cofaces == 1:
            violations.append((cid, "exclusivity"))
    return FunctionReport(ok=not violations, violations=violations)


def induced_field(K, f):
    """The gradient vector field of a valid Morse function: pair every
    (sigma, tau) with sigma a face of tau and f(sigma) >= f(tau)."""
    report = validate_function(K, f)
    if not report.ok:
        raise InvalidFunction(report.violations[:5])
    return _field_of(K, f)


def _field_of(K, f):
    """The pairs (sigma, tau) with f(sigma) >= f(tau), read off an f
    that has already passed `validate_function`."""
    pairs = []
    for tid in sorted(K.cells):
        for sid in K.boundary(tid):
            if f[sid] >= f[tid]:
                pairs.append((sid, tid))
    return VectorField(pairs)


def make_injective(K, f):
    """Injective values with the same induced field; strict comparisons
    of the input stay strict.  Values become consecutive integers."""
    pm = induced_field(K, f).partner_map()

    def tie_rank(cid):
        partner = pm.get(cid)
        if partner is not None and f[partner] == f[cid]:
            # the higher cell of an equal-valued pair must end up lower
            return 0 if K.dim(cid) > K.dim(partner) else 1
        return 0

    order = sorted(K.cells, key=lambda c: (f[c], tie_rank(c), c))
    return MorseFunction({cid: float(i) for i, cid in enumerate(order)})


# --- field side ------------------------------------------------------------


def validate_field(K, V, check_acyclic=True):
    """Matching, incidence and acyclicity checks; failures are report
    entries, never exceptions."""
    issues = []
    seen = set()
    ok_pairs = []
    for a, b in V.pairs():
        if a not in K.cells or b not in K.cells:
            issues.append(("unknown-cell", a if a not in K.cells else b))
            continue
        if K.dim(b) != K.dim(a) + 1:
            issues.append(("dimension", (a, b)))
            continue
        if a not in K.boundary(b):
            issues.append(("incidence", (a, b)))
            continue
        dup = [c for c in (a, b) if c in seen]
        if dup:
            issues.append(("double-match", dup[0]))
            continue
        seen.add(a)
        seen.add(b)
        ok_pairs.append((a, b))
    witness = None
    if check_acyclic and not issues:
        witness = _find_cycle(K, dict(ok_pairs))
        if witness is not None:
            issues.append(("cycle", witness))
    return FieldReport(ok=not issues, issues=issues, cycle_witness=witness)


def _find_cycle(K, head_of):
    """Closed V-path if one exists.  head_of maps each tail sigma to its
    pair tau; a V-path hops tau -> another face that is itself a tail."""
    by_dim = {}
    for s in head_of:
        by_dim.setdefault(K.dim(s), []).append(s)
    for p in sorted(by_dim):
        tails = sorted(by_dim[p])
        tailset = set(tails)
        color = {}
        for start in tails:
            if color.get(start):
                continue
            stack = [(start, None)]
            path = []
            on_path = {}
            while stack:
                node, it = stack[-1]
                if it is None:
                    color[node] = 1
                    on_path[node] = len(path)
                    path.append(node)
                    nbrs = sorted(s for s in K.boundary(head_of[node])
                                  if s != node and s in tailset)
                    stack[-1] = (node, iter(nbrs))
                    continue
                advanced = False
                for nxt in it:
                    if color.get(nxt) == 1:
                        cyc = path[on_path[nxt]:]
                        witness = []
                        for s in cyc:
                            witness.extend((s, head_of[s]))
                        return tuple(witness)
                    if not color.get(nxt):
                        stack.append((nxt, None))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    on_path.pop(node, None)
                    path.pop()
                    stack.pop()
    return None


def critical_cells(V, K):
    """Unmatched cells graded by dimension."""
    pm = V.partner_map()
    cells = {p: [] for p in range(K.top_dim + 1)}
    for cid in sorted(K.cells):
        if cid not in pm:
            cells[K.dim(cid)].append(cid)
    m = tuple(len(cells[p]) for p in range(K.top_dim + 1))
    return MorseCounts(m=m, cells={p: tuple(v) for p, v in cells.items()})


def is_perfect(K, V):
    return critical_cells(V, K).m == betti_mod2(K).b


def trace_1path_tree(K, V):
    """Successor map following vertex -> matched edge -> other endpoint;
    with one critical vertex this is a spanning tree rooted there."""
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
    # every chain must reach the root without revisiting
    for vid in parent:
        seen = set()
        cur = vid
        while cur != root:
            if cur in seen:
                raise InconsistentField("1-path cycle at %s" % cur)
            seen.add(cur)
            cur = parent[cur]
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
    return GradientPath(dim=2, steps=tuple(steps))


def synthesize_function(K, V):
    """A Morse function inducing exactly V.

    Matched pairs are contracted to one node of the flow digraph; a
    deterministic topological order of the nodes gives the values, so
    pair members share a value and every other face relation is strict.
    """
    report = validate_field(K, V)
    if not report.ok:
        kinds = {k for k, _ in report.issues}
        if kinds == {"cycle"}:
            raise CyclicField(report.cycle_witness)
        raise InconsistentField(report.issues[:5])
    pm = V.partner_map()

    def node(cid):
        partner = pm.get(cid)
        if partner is not None:
            return min(cid, partner)
        return cid

    succ = {}
    indeg = {}
    for cid in K.cells:
        succ.setdefault(node(cid), set())
        indeg.setdefault(node(cid), 0)
    for tid in sorted(K.cells):
        nt = node(tid)
        for sid in K.boundary(tid):
            ns = node(sid)
            if ns == nt:
                continue
            if ns not in succ[nt]:
                succ[nt].add(ns)
                indeg[ns] += 1
    ready = [n for n in succ if indeg[n] == 0]
    heapq.heapify(ready)
    position = {}
    while ready:
        n = heapq.heappop(ready)
        position[n] = len(position)
        for s in sorted(succ[n]):
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
    if len(position) != len(succ):
        raise CyclicField("flow digraph has a directed cycle")
    top = len(position) - 1
    values = {cid: float(top - position[node(cid)]) for cid in K.cells}
    return MorseFunction(values)
