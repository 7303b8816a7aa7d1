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
from operator import itemgetter

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
        """This field without the pairs in `drop` (every copy of each)
        and with the pairs in `add`: VectorField of the edited pair list,
        kept sorted by bisection instead of sorted again."""
        pairs = list(self.pair_list)
        for p in drop:
            p = tuple(p)
            i = bisect_left(pairs, p)
            del pairs[i:bisect_right(pairs, p, i)]
        for a, b in add:
            insort(pairs, (str(a), str(b)))
        out = VectorField()
        out.pair_list = tuple(pairs)
        return out


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
    cells = K.cells
    cofaces = K.coface_table
    values = f.values
    for cid in cells:
        if cid not in values:
            raise MissingValue(cid)
    violations = []
    for cid, cell in cells.items():
        val = values[cid]
        exc_faces = exc_cofaces = 0
        for s in cell.boundary:
            if values[s] >= val:
                exc_faces += 1
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
    values = f.values
    pairs = []
    for tid, cell in K.cells.items():
        val = values[tid]
        for sid in cell.boundary:
            if values[sid] >= val:
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
    cells = K.cells
    issues = []
    seen = set()
    head_of = {}
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
        head_of[a] = b
    witness = None
    if check_acyclic and not issues:
        witness = _find_cycle(K, head_of)
        if witness is not None:
            issues.append(("cycle", witness))
    return FieldReport(ok=not issues, issues=issues, cycle_witness=witness)


def _find_cycle(K, head_of):
    """Closed V-path if one exists.  head_of maps each tail sigma to its
    pair tau; a V-path hops tau -> another face that is itself a tail.

    Tails that no V-path step enters are peeled off first, as in a
    topological sort; when every tail peels there is no closed V-path.
    Otherwise a depth-first search from the tails in sorted order, one
    dimension at a time, names the witness.
    """
    cells = K.cells
    steps = {}
    entering = dict.fromkeys(head_of, 0)
    for s, t in head_of.items():
        nxt = [x for x in cells[t].boundary if x != s and x in head_of]
        steps[s] = nxt
        for x in nxt:
            entering[x] += 1
    ready = [s for s, n in entering.items() if n == 0]
    left = len(entering)
    while ready:
        left -= 1
        for x in steps[ready.pop()]:
            entering[x] -= 1
            if entering[x] == 0:
                ready.append(x)
    if not left:
        return None
    by_dim = {}
    for s in head_of:
        by_dim.setdefault(cells[s].dim, []).append(s)
    for p in sorted(by_dim):
        tails = sorted(by_dim[p])
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
                    stack[-1] = (node, iter(sorted(steps[node])))
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
    cells = K.cells
    crit = {p: [] for p in range(K.top_dim + 1)}
    for cid in sorted(cells):
        if cid not in pm:
            crit[cells[cid].dim].append(cid)
    m = tuple(len(crit[p]) for p in range(K.top_dim + 1))
    return MorseCounts(m=m, cells={p: tuple(v) for p, v in crit.items()})


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
    The flow digraph has a directed cycle exactly when V has a closed
    V-path (Chari 2000), so the order also decides acyclicity; only then
    is the V-path searched for, to name it in CyclicField.
    """
    report = validate_field(K, V, check_acyclic=False)
    if not report.ok:
        raise InconsistentField(report.issues[:5])
    cells = K.cells
    pm = V.partner_map()
    node = {cid: cid for cid in cells}
    for a, b in V.pairs():
        node[a] = node[b] = min(a, b)
    # a node's in-degree counts each face relation into it from another
    # node, repeats included, so it reaches 0 when its last one is done
    indeg = dict.fromkeys(node.values(), 0)
    for tid, cell in cells.items():
        nt = node[tid]
        for sid in cell.boundary:
            ns = node[sid]
            if ns != nt:
                indeg[ns] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    position = {}
    while ready:
        n = heapq.heappop(ready)
        position[n] = len(position)
        partner = pm.get(n)
        for cid in (n,) if partner is None else (n, partner):
            for sid in cells[cid].boundary:
                ns = node[sid]
                if ns != n:
                    indeg[ns] -= 1
                    if indeg[ns] == 0:
                        heapq.heappush(ready, ns)
    if len(position) != len(indeg):
        raise CyclicField(_find_cycle(K, dict(V.pairs())))
    top = len(position) - 1
    values = {cid: float(top - position[node[cid]]) for cid in cells}
    return MorseFunction(values)
