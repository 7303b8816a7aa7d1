"""Finite regular cell complexes as face posets.

A complex stores dimension-graded cells, each knowing its codimension-1
faces by id.  Ids are plain strings, unique within a complex, and every
derived construction (subdivision, tube, inner copy) suffixes ids
deterministically so that outputs are byte-reproducible.

Vertices are `v{i}`, edges `e{i}-{j}` with i < j and triangles
`t{i}-{j}-{k}` sorted, when built from a facet list.  Polygonal 2-cells
(cyclic edge boundary of length >= 3) are first class; simplices are not
assumed anywhere outside `build_simplicial`.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

from .errors import (
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

class Cell(NamedTuple):
    """One cell: its id, its dimension and the ids of its codimension-1
    faces.  An immutable record; cells compare and hash by all three
    fields."""

    id: str
    dim: int
    boundary: frozenset

    def __repr__(self):
        return "Cell(%r, dim=%d)" % (self.id, self.dim)


# new_cell(Cell, (id, dim, boundary)) is the tuple the NamedTuple's
# generated __new__ returns, built without that Python-level call
new_cell = tuple.__new__


# the facts a complex derives about itself and caches
_DERIVED = ("is_pseudomanifold", "_surface_info", "_betti")


@dataclass(frozen=True)
class SurfaceInfo:
    genus: int | None
    orientable: bool


class Complex:
    """Immutable face-poset complex.

    Construction validates grading, closure and (for 2-cells) that the
    edge boundary is a single cycle in which no vertex repeats.  The
    pseudomanifold flag and the closed-surface answer are computed on
    first use, and a subdivision (`_subdivide`) keeps them.  A public
    surgery never mutates a complex it is handed: it edits a `_draft`,
    a copy it owns, in place through `_edit`, re-checking only the
    cells each edit touches, and returns the draft.  `subcomplex` and
    `prefixed` carry the checked tables over, filtered or renamed,
    without re-checking.  The number of cells of each dimension is kept:
    construction and `subcomplex` tally it, and an edit or a rename
    carries it along (`counts`).  Closures are walked on demand, not
    stored.
    """

    # the mod-2 Betti numbers, once morsefield has derived them from a
    # gradient field on this complex
    _betti = None
    # (f, V, critical cells of V) when `compose` returned this complex
    # with the function f, which it proved valid and inducing V
    _composed = None

    def __init__(self, cells):
        # cells: iterable of Cell
        self.cells = {}
        for cell in cells:
            if cell.id in self.cells:
                raise DuplicateFacet("duplicate cell id %r" % cell.id)
            self.cells[cell.id] = cell
        if not self.cells:
            raise MissingFace("empty complex")
        cofaces = {cid: [] for cid in self.cells}
        self._validate_grading(self.cells.values(), cofaces)
        self._count(self.cells.values())
        self._cofaces = {cid: tuple(sorted(c)) for cid, c in cofaces.items()}
        self._cycles = {}
        self._walk_cycles(cid for cid, c in self.cells.items() if c.dim == 2)

    def _count(self, cells):
        """Keep the number of cells of each dimension among `cells`, all
        of this complex, checked graded, and the top dimension."""
        tally = Counter(map(attrgetter("dim"), cells))
        self._counts = tuple(map(tally.__getitem__, range(max(tally) + 1)))
        self.top_dim = len(self._counts) - 1

    # ---- validation ----------------------------------------------------

    def _validate_grading(self, checked, cofaces=None):
        """Check the grading of the cells `checked` against self.cells,
        in the order given, and append each checked cell's id to the
        `cofaces` list of each of its faces when that table is given."""
        cells = self.cells
        for cid, dim, boundary in checked:
            if dim < 0:
                raise BadDimensionDrop("cell %r has negative dimension" % cid)
            if dim == 0 and boundary:
                raise BadDimensionDrop("vertex %r has a boundary" % cid)
            for fid in boundary:
                face = cells.get(fid)
                if face is None:
                    raise MissingFace("cell %r lists missing face %r" % (cid, fid))
                if face.dim != dim - 1:
                    raise BadDimensionDrop(
                        "cell %r (dim %d) lists face %r (dim %d)"
                        % (cid, dim, fid, face.dim))
                if cofaces is not None:
                    cofaces[fid].append(cid)
            if dim == 1 and len(boundary) != 2:
                raise BadCellBoundary(
                    "edge %r must have exactly 2 endpoints" % cid)
            if dim >= 1 and not boundary:
                raise BadCellBoundary("cell %r of dim %d has empty boundary"
                                      % (cid, dim))

    def _walk_cycles(self, ids):
        """Store the boundary walk of each 2-cell in `ids`, in id order.
        A triangle's or a quadrilateral's walk is read off its edges' ends
        (`_short_walk`, cycle_walk in closed form); any other boundary,
        and one the closed forms refuse, is walked by `_edge_cycle`, so
        cycle_walk stays the general walk and the source of every
        BoundaryNotCycle reason."""
        cells, cycles = self.cells, self._cycles
        for cid in sorted(ids):
            cell = cells[cid]
            cycles[cid] = _short_walk(cell.boundary, cells) \
                or self._edge_cycle(cell)

    def _edge_cycle(self, cell):
        """Boundary of a 2-cell as an alternating cyclic walk
        [v0, e0, v1, e1, ...]; raises if the edges are not one cycle."""
        if len(cell.boundary) < 3:
            raise BoundaryNotCycle("2-cell %r has %d boundary edges"
                                   % (cell.id, len(cell.boundary)))
        cells = self.cells
        walk, why = cycle_walk({e: cells[e].boundary for e in cell.boundary})
        if walk is None:
            raise BoundaryNotCycle("2-cell %r: %s" % (cell.id, why))
        return walk

    @cached_property
    def is_pseudomanifold(self):
        """Every cell of dimension top_dim - 1 has exactly two cofaces."""
        n = self.top_dim
        if n == 0:
            return False
        cofaces = self._cofaces
        return all(len(cofaces[cid]) == 2
                   for cid, cell in self.cells.items() if cell.dim == n - 1)

    @cached_property
    def _surface_info(self):
        """verify_closed_surface's answer: a SurfaceInfo, or the message
        of the NotClosedSurface it raises.  The pass also settles
        is_pseudomanifold once it has seen every edge."""
        answer, pseudomanifold = _surface_scan(self)
        if pseudomanifold is not None:
            self.is_pseudomanifold = pseudomanifold
        return answer

    @property
    def is_closed_surface(self):
        """A connected 2-dimensional pseudomanifold in which the link of
        every vertex is one cycle."""
        return not isinstance(self._surface_info, str)

    # ---- queries --------------------------------------------------------

    def __contains__(self, cid):
        return cid in self.cells

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        return self.cells == other.cells

    def cell(self, cid):
        cell = self.cells.get(cid)
        if cell is None:
            raise UnknownCell(cid)
        return cell

    def dim(self, cid):
        return self.cell(cid).dim

    def boundary(self, cid):
        return self.cell(cid).boundary

    def cofaces(self, cid):
        if cid not in self.cells:
            raise UnknownCell(cid)
        return self._cofaces[cid]

    @property
    def coface_table(self):
        """Cell id -> sorted tuple of coface ids, for whole-complex loops
        that read it directly; callers must not mutate it."""
        return self._cofaces

    def cells_of_dim(self, p):
        return sorted(cid for cid, c in self.cells.items() if c.dim == p)

    def counts(self):
        """The number of cells of each dimension, 0 to top_dim, as kept
        through construction and every edit instead of counted."""
        return self._counts

    def closure(self, cid):
        """All faces of cid, transitively, including cid itself."""
        out = {cid}
        frontier = [cid]
        while frontier:
            cur = frontier.pop()
            for fid in self.cells[cur].boundary:
                if fid not in out:
                    out.add(fid)
                    frontier.append(fid)
        return frozenset(out)

    def star(self, cid):
        """cid and every cell having cid in its closure."""
        cofaces = self._cofaces
        out = {cid}
        frontier = [cid]
        while frontier:
            for cof in cofaces[frontier.pop()]:
                if cof not in out:
                    out.add(cof)
                    frontier.append(cof)
        return out

    def boundary_cycle(self, cid):
        """Alternating [v0, e0, v1, e1, ...] walk around a 2-cell."""
        if self.dim(cid) != 2:
            raise UnknownCell("%r is not a 2-cell" % cid)
        return self._cycles[cid]

    def vertices_of(self, cid):
        return sorted(x for x in self.closure(cid) if self.cells[x].dim == 0)

    def link_cycle(self, vid):
        """Rotation [e0, t0, e1, t1, ...] of the edges and 2-cells around
        vertex vid, starting at its smallest edge and that edge's
        smallest 2-cell; None when the link of vid is not one cycle."""
        if self.dim(vid) != 0:
            raise UnknownCell("%r is not a vertex" % vid)
        cofaces = self._cofaces
        edges = cofaces[vid]
        ends = {}  # 2-cell -> its two edges at vid
        for e in edges:
            for t in cofaces[e]:
                ends.setdefault(t, []).append(e)
        walk, _ = cycle_walk(ends)
        if walk is None or len(walk) != 2 * len(edges):
            return None
        return walk

    def records(self):
        """Emit (id, dim, sorted boundary ids) records; build_poset of the
        result reproduces this complex exactly."""
        return [(cid, cell.dim, sorted(cell.boundary))
                for cid, cell in sorted(self.cells.items())]

    def replace_cells(self, remove=(), add=()):
        """New complex with `remove` ids dropped and `add` cells inserted;
        an added cell replaces any cell of the same id: `_edit` on a draft.
        """
        new = self._draft()
        new._edit(remove, add)
        return new

    def _draft(self):
        """A copy of this complex for in-place edits to own: each table
        is copied once, the derived facts come along, and the `_composed`
        record, which holds for this complex only, does not."""
        new = object.__new__(Complex)
        new.__dict__.update(self.__dict__, cells=self.cells.copy(),
                            _cofaces=self._cofaces.copy(),
                            _cycles=self._cycles.copy())
        new.__dict__.pop("_composed", None)
        return new

    def _edit(self, remove=(), add=()):
        """replace_cells in place, the one edit every surgery reaches.
        The derived facts go, as the edit may change them.

        The edit is local.  It re-checks the grading of the added cells
        and of the surviving cofaces of dropped or replaced cells.  One
        pass over the dropped and replaced cells and one over the added
        cells then keep the cell counts and the top dimension, with no
        scan of the table, and gather the faces whose coface lists change:
        a dropped cell leaves all its faces' lists, an added cell joins
        all its faces' lists, and a replaced cell leaves only the faces it
        lost and joins only the faces it gained.  The first pass also
        gathers the surviving 2-cofaces of replaced edges, and these and
        the added 2-cells are re-walked.  The tables end up equal to those
        of `Complex` built from the new cell list, and an edit that breaks
        one cell raises the DmsError that construction would raise, with
        this complex left half edited.
        """
        for name in _DERIVED:
            self.__dict__.pop(name, None)
        cells, cofaces = self.cells, self._cofaces
        added = {cell.id: cell for cell in add}
        old = {cid: cells[cid] for cid in added.keys() & cells.keys()}
        for cid in remove:
            cell = cells.pop(cid, None)
            if cell is not None:
                old[cid] = cell
        cells.update(added)
        if not cells:
            raise MissingFace("empty complex")
        near = {t for cid in old for t in cofaces[cid]}.difference(old)
        if near:
            self._validate_grading([cells[t] for t in sorted(near)])
        self._validate_grading(added.values())
        lost = defaultdict(list)    # face id -> the cells no longer on it
        gained = defaultdict(list)  # face id -> the cells new on it

        cycles = self._cycles
        counts = list(self._counts)
        top = len(counts) - 1
        walk = []  # the 2-cells to walk
        for cid, cell in old.items():
            counts[cell.dim] -= 1
            cycles.pop(cid, None)
            new = added.get(cid)
            if new is None:
                del cofaces[cid]
            elif cell.dim == 1:
                walk += [t for t in cofaces[cid] if t not in old]
            for fid in (cell.boundary if new is None
                        else cell.boundary - new.boundary):
                lost[fid].append(cid)
        for cid, cell in added.items():
            dim = cell.dim
            if dim > top:
                counts += [0] * (dim - top)
                top = dim
            counts[dim] += 1
            if dim == 2:
                walk.append(cid)
            prev = old.get(cid)
            if prev is None:
                cofaces[cid] = ()
            for fid in (cell.boundary if prev is None
                        else cell.boundary - prev.boundary):
                gained[fid].append(cid)
        while not counts[-1]:
            counts.pop()
        self._counts = tuple(counts)
        self.top_dim = len(counts) - 1
        # filtering keeps a coface tuple sorted; a face that gains cells
        # is sorted again, and every such face exists, as checked above
        for fid, out in lost.items():
            if fid in cells:
                cofaces[fid] = tuple([t for t in cofaces[fid]
                                      if t not in out])
        for fid, into in gained.items():
            cofaces[fid] = tuple(sorted((*cofaces[fid], *into)))
        self._walk_cycles(set(walk))

    def subcomplex(self, ids):
        """The subcomplex on the cells `ids`, which must be closed under
        faces; raises MissingFace naming the smallest missing face.

        Nothing is re-checked.  The tables keep this complex's order and
        are filtered down to `ids`.  A coface tuple is filtered only when
        some of its cells lie outside `ids`, and stays sorted; every other
        tuple, and every 2-cell walk of a kept cell, lies in `ids` whole
        and is kept as it is.  The result equals `Complex` built from the
        kept cells.
        """
        old = self.cells
        ids = ids if isinstance(ids, (set, frozenset)) else set(ids)
        unknown = [cid for cid in ids if cid not in old]
        if unknown:
            raise UnknownCell(min(unknown))
        missing = {fid for cid in ids for fid in old[cid].boundary
                   if fid not in ids}
        if missing:
            fid = min(missing)
            cid = min(c for c in ids if fid in old[c].boundary)
            raise MissingFace("cell %r lists missing face %r" % (cid, fid))
        if not ids:
            raise MissingFace("empty complex")
        new = object.__new__(Complex)
        new.cells = {cid: c for cid, c in old.items() if cid in ids}
        new._count(new.cells.values())
        new._cofaces = kept = {}
        for cid in new.cells:
            cof = self._cofaces[cid]
            kept[cid] = cof if ids.issuperset(cof) \
                else tuple([t for t in cof if t in ids])
        new._cycles = {cid: walk for cid, walk in self._cycles.items()
                       if cid in ids}
        return new

    def prefixed(self, prefix):
        """This complex with every id renamed to prefix + id."""
        return self._renamed({cid: prefix + cid for cid in self.cells})

    def _renamed(self, name):
        """This complex with every id x renamed to name[x], for a map
        that keeps the sorted order of ids, as a common prefix does.

        Each new id is the one string object of `name`, shared by all
        the tables.  The coface tuples and 2-cell walks carry over as
        they are; nothing is re-checked.
        """
        rename = name.__getitem__
        new = object.__new__(Complex)
        new.cells = {
            name[cid]: new_cell(Cell, (name[cid], c.dim,
                                       frozenset(map(rename, c.boundary))))
            for cid, c in self.cells.items()}
        new._counts, new.top_dim = self._counts, self.top_dim
        new._cofaces = {name[cid]: tuple(map(rename, cof))
                        for cid, cof in self._cofaces.items()}
        new._cycles = {name[cid]: tuple(map(rename, walk))
                       for cid, walk in self._cycles.items()}
        return new

    def _split_cell(self, old, new_cells, halves):
        """Subdivide cell `old` of this complex in place; every coface of
        `old` lists both `halves` in its place.

        `new_cells` must be the two halves, of old's dimension, and one
        middle cell a dimension lower whose faces lie in the closure of
        `old`, all three new.  The halves must share only the middle cell
        and together list exactly old's boundary.  Any other edit raises
        BadCellBoundary.  The split goes through `_subdivide`, so the
        complex keeps its computed flags.
        """
        new_cells = list(new_cells)
        why = self._subdivision_defect(self.cell(old), new_cells, halves)
        if why is not None:
            raise BadCellBoundary("splitting %r: %s" % (old, why))
        self._subdivide({old: halves}, new_cells)

    def _subdivide(self, parts, new_cells):
        """_edit for an edit the caller knows to subdivide cells: each id
        in `parts` goes, `new_cells` come in, and each surviving coface
        of a replaced cell lists parts[id] in its place.

        The patched cofaces are added after `new_cells`, in id order."""
        cells = self.cells
        patched = []
        for t in sorted({t for cid in parts for t in self._cofaces[cid]}
                        .difference(parts)):
            bnd = cells[t].boundary
            split = bnd.intersection(parts)
            patched.append(new_cell(Cell, (t, cells[t].dim, bnd.difference(
                split).union(*[parts[fid] for fid in split]))))
        # a subdivision keeps the homeomorphism type, so the derived facts
        # stay true, but for a closed-surface defect naming a replaced cell
        facts = {k: v for k, v in self.__dict__.items()
                 if k in _DERIVED and not isinstance(v, str)}
        self._edit(parts, [*new_cells, *patched])
        self.__dict__.update(facts)

    def _subdivision_defect(self, cell, new_cells, halves):
        """Why replacing `cell` by `new_cells` with these `halves` is no
        subdivision, or None."""
        ids = {c.id for c in new_cells}
        halves = set(halves)
        if len(new_cells) != 3 or len(ids) != 3 or len(halves) != 2 \
                or not halves <= ids:
            return "expected two halves and a middle cell, got %s with " \
                "halves %s" % (sorted(ids), sorted(halves))
        taken = ids & self.cells.keys()
        if taken:
            return "cell %r already exists" % min(taken)
        mid, = [c for c in new_cells if c.id not in halves]
        h1, h2 = sorted((c for c in new_cells if c.id in halves),
                        key=lambda c: c.id)
        if mid.dim != cell.dim - 1 or h1.dim != cell.dim \
                or h2.dim != cell.dim:
            return "dimensions %d, %d and middle %d for a cell of " \
                "dimension %d" % (h1.dim, h2.dim, mid.dim, cell.dim)
        # the closure of a 2-cell is itself and its walk, of an edge
        # itself and its ends
        if cell.dim == 2:
            faces = self._cycles[cell.id]
        elif cell.dim == 1:
            faces = cell.boundary
        else:
            faces = self.closure(cell.id)
        outside = mid.boundary.difference(faces, (cell.id,))
        if outside:
            return "middle cell %r has face %r outside its closure" \
                % (mid.id, min(outside))
        shared = h1.boundary & h2.boundary
        if shared != {mid.id}:
            return "halves %r and %r share %s, not only %r" \
                % (h1.id, h2.id, sorted(shared), mid.id)
        listed = (h1.boundary | h2.boundary) - {mid.id}
        if listed != cell.boundary:
            return "halves leave out %s and add %s to its boundary" % (
                sorted(cell.boundary - listed),
                sorted(listed - cell.boundary))
        return None


# ---- graph primitives ----------------------------------------------------


def components(nodes, neighbours):
    """Connected components of a graph, as a list of frozensets ordered
    by their smallest node: each search starts at the smallest node not
    yet reached.  `neighbours` maps each node to the nodes adjacent to
    it, all of them in `nodes`."""
    out, seen = [], set()
    for start in sorted(nodes):
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            for nxt in neighbours[frontier.pop()]:
                if nxt not in comp:
                    comp.add(nxt)
                    frontier.append(nxt)
        seen |= comp
        out.append(frozenset(comp))
    return out


def cycle_walk(ends):
    """Walk the single cycle formed by some items and their ends.

    `ends` maps each item to its two distinct ends (an edge to its
    vertices, say).  The walk starts at the smallest end and follows its
    smallest item: [end0, item0, end1, item1, ...].  Returns (walk, None),
    or (None, reason) when there are no items, some end does not lie on
    exactly two items, or the items form more than one cycle.
    """
    at = {}
    for item, pair in ends.items():
        for end in pair:
            if end in at:
                at[end].append(item)
            else:
                at[end] = [item]
    if not at:
        return None, "no items"
    for items in at.values():
        if len(items) != 2:
            end = min(end for end, items in at.items() if len(items) != 2)
            return None, "%r lies on %d items" % (end, len(at[end]))
    start = min(at)
    x, y = at[start]
    item = x if x < y else y
    walk = [start, item]
    end = start
    while True:
        a, b = ends[item]
        end = b if a == end else a
        if end == start:
            break
        x, y = at[end]
        item = y if x == item else x
        walk.append(end)
        walk.append(item)
    if len(walk) != 2 * len(ends):
        return None, "the items form more than one cycle"
    return tuple(walk), None


def _short_walk(edges, cells):
    """cycle_walk's walk of three or four edges of `cells` that form one
    cycle, read off their ends; None for any other `edges`.

    Three edges f0, f1, f2 form a triangle when f0 joins some u and v,
    f2 joins v and some w other than u, and f1 joins u and w.  Four edges
    form a quadrilateral when, with a and b the ends of f0, one other
    edge f1 joins a to some c, one f2 joins b to some d, and the last
    joins c and d, all four vertices distinct.  Either cycle is turned
    to start at its least vertex, and runs from there along the lesser
    of that vertex's two edges, as cycle_walk runs.  Both shapes are
    recognised by membership alone, so no set is built.
    """
    if len(edges) == 3:
        f0, f1, f2 = edges
        p0, p1 = cells[f0].boundary, cells[f1].boundary
        v, w = cells[f2].boundary
        if v not in p0:
            v, w = w, v
        a, b = p0
        u = b if a == v else a
        if v not in p0 or u == w or u not in p1 or w not in p1:
            return None
        # the cycle u f0 v f2 w f1
        least = min(u, v, w)
        while u != least:
            u, f0, v, f2, w, f1 = v, f2, w, f1, u, f0
        return (u, f0, v, f2, w, f1) if f0 < f1 else (u, f1, w, f2, v, f0)
    if len(edges) == 4:
        f0, f1, f2, f3 = edges
        a, b = cells[f0].boundary
        p1, p2, p3 = cells[f1].boundary, cells[f2].boundary, cells[f3].boundary
        if a not in p1:
            f1, p1, f2, p2 = f2, p2, f1, p1
            if a not in p1:
                f1, p1, f3, p3 = f3, p3, f1, p1
        if b not in p2:
            f2, p2, f3, p3 = f3, p3, f2, p2
        if a not in p1 or b not in p2:
            return None
        c, x = p1
        if c == a:
            c = x
        d, x = p2
        if d == b:
            d = x
        if c == b or d == a or c == d or c not in p3 or d not in p3:
            return None
        # the cycle a f0 b f2 d f3 c f1
        least = min(a, b, c, d)
        while a != least:
            a, f0, b, f2, d, f3, c, f1 = b, f2, d, f3, c, f1, a, f0
        return (a, f0, b, f2, d, f3, c, f1) if f0 < f1 \
            else (a, f1, c, f3, d, f2, b, f0)
    return None


# ---- constructors --------------------------------------------------------


def vertex_id(i):
    return "v%d" % i


def edge_id(i, j):
    i, j = sorted((i, j))
    return "e%d-%d" % (i, j)


def triangle_id(i, j, k):
    i, j, k = sorted((i, j, k))
    return "t%d-%d-%d" % (i, j, k)


def build_simplicial(triangles, closed=True):
    """Simplicial 2-complex from a list of vertex triples.

    Vertex indices must be non-negative integers; facets must be
    non-degenerate and pairwise distinct up to permutation.  With
    closed=True every edge must lie in exactly two triangles, otherwise
    NonPseudomanifold is raised.
    """
    seen = set()
    for tri in triangles:
        if len(tri) != 3 or len(set(tri)) != 3:
            raise DegenerateFacet("degenerate facet %r" % (tuple(tri),))
        if any((not isinstance(v, int)) or v < 0 for v in tri):
            raise DegenerateFacet("bad vertex index in %r" % (tuple(tri),))
        key = tuple(sorted(tri))
        if key in seen:
            raise DuplicateFacet("duplicate facet %r" % (key,))
        seen.add(key)
    if not seen:
        raise MissingFace("no facets")

    cells = {}
    edge_use = {}
    # each cell is built the first time a triangle holds it, and keeps
    # that place in the table
    for tri in sorted(seen):
        i, j, k = tri
        for v in tri:
            vid = vertex_id(v)
            if vid not in cells:
                cells[vid] = new_cell(Cell, (vid, 0, frozenset()))
        eids = []
        for a, b in ((i, j), (i, k), (j, k)):
            eid = edge_id(a, b)
            if eid not in cells:
                cells[eid] = new_cell(Cell, (eid, 1, frozenset(
                    {vertex_id(a), vertex_id(b)})))
            edge_use[eid] = edge_use.get(eid, 0) + 1
            eids.append(eid)
        tid = triangle_id(i, j, k)
        cells[tid] = new_cell(Cell, (tid, 2, frozenset(eids)))
    if closed:
        for eid, n in sorted(edge_use.items()):
            if n != 2:
                raise NonPseudomanifold(
                    "edge %s lies in %d facets, expected 2" % (eid, n))
    return Complex(cells.values())


def build_poset(records):
    """Complex from explicit (id, dim, boundary ids) records."""
    cells = []
    for cid, dim, bnd in records:
        cells.append(Cell(str(cid), int(dim), frozenset(str(b) for b in bnd)))
    return Complex(cells)


def euler_characteristic(K):
    """The alternating sum of K's cell counts, read off K.counts()."""
    return sum(n if p % 2 == 0 else -n for p, n in enumerate(K.counts()))


def _surface_scan(K):
    """verify_closed_surface's answer, derived in one pass over the
    coface table and the stored 2-cell walks: a SurfaceInfo, or the
    message of the NotClosedSurface it raises, and K.is_pseudomanifold,
    or None when the pass did not reach every edge.

    The checks report in order: top dimension 2, connected, two cofaces
    on every edge, one cycle as every vertex link, orientable, a
    possible Euler characteristic; a failing one names its smallest
    offending cell.

    One depth-first search runs over the vertices and edges.  Each edge
    and 2-cell lies on a vertex, so the complex is connected exactly
    when the search reaches every vertex and edge.  At each vertex v
    the search checks the cofaces of the edges at v and then walks v's
    link.  The walk starts at the edge the search arrived by.  In each
    2-cell t around v, the stored walk of t gives the other edge at v,
    and the walk crosses that edge into its other coface.  The link is
    one cycle when the walk returns to its first edge after visiting
    every edge at v.  On the way, the walk carries a sign for each
    2-cell across every edge it crosses: a neighbour that runs through
    the shared edge in the same sense gets the opposite sign.  Every
    edge gets crossed, and the signs disagree somewhere exactly when
    the surface is not orientable.  The first edge's coface already has
    a sign, from the walk at the vertex the search came from.
    """
    if K.top_dim != 2:
        return "top dimension is %d" % K.top_dim, None
    cells, cofaces, walks = K.cells, K._cofaces, K._cycles
    start = next(iter(walks.values()))[0]
    via = {start: None}  # vertex -> the edge the search reached it by
    stack = [start]
    incidences = 0  # edge ends at the vertices reached
    bad_edges = []
    bad_links = []
    sign = {}  # 2-cell -> +1 or -1; None once they disagree or a link fails
    while stack:
        v = stack.pop()
        edges = cofaces[v]
        incidences += len(edges)
        for e in edges:
            if len(cofaces[e]) != 2:
                bad_edges.append(e)
            a, b = cells[e].boundary
            w = b if a == v else a
            if w not in via:
                via[w] = e
                stack.append(w)
        if bad_edges:
            continue  # the links need two cofaces on every edge
        e0 = edges[0] if v == start else via[v]
        e, t = e0, cofaces[e0][0]
        if sign is not None:
            s = sign.setdefault(t, 1)
        steps = 0
        while True:
            walk = walks[t]
            i = walk.index(v)
            # whether t runs through e away from v
            enters_out = e == walk[i + 1]
            if steps and sign is not None:
                want = s if enters_out != leaves_out else -s
                if sign.setdefault(t, want) != want:
                    sign = None
                s = want
            if steps and e == e0:
                break
            steps += 1
            e = walk[i - 1] if enters_out else walk[i + 1]
            leaves_out = not enters_out
            a, b = cofaces[e]
            t = b if a == t else a
        if steps != len(edges):
            bad_links.append(v)
            sign = None
    n_edges = incidences // 2
    if len(via) + n_edges + len(walks) != len(cells):
        return "complex is not connected", None
    if bad_edges:
        eid = min(bad_edges)
        return "edge %s has %d cofaces" % (eid, len(cofaces[eid])), False
    if bad_links:
        return ("vertex %s link is not a single cycle" % min(bad_links),
                True)
    if sign is None:
        return SurfaceInfo(genus=None, orientable=False), True
    chi = len(via) - n_edges + len(walks)
    if chi % 2 != 0 or chi > 2:
        return "impossible Euler characteristic %d" % chi, True
    return SurfaceInfo(genus=(2 - chi) // 2, orientable=True), True


def verify_closed_surface(K):
    """Check K is a closed surface; return SurfaceInfo(genus, orientable).

    Raises NotClosedSurface naming an offending cell.  Non-orientability
    is reported, not raised; genus is None in that case.  The answer is
    derived once per complex.
    """
    info = K._surface_info
    if isinstance(info, str):
        raise NotClosedSurface(info)
    return info
