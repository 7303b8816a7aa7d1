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

from dataclasses import dataclass
from functools import cached_property

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

TAG_ORIGINAL = "original"
TAG_TUBE = "tube"
TAG_INNER = "inner-copy"
TAG_CONE = "cone"
TAG_BISECTION = "bisection"


@dataclass(frozen=True)
class Cell:
    id: str
    dim: int
    boundary: frozenset
    tag: str = TAG_ORIGINAL

    def __repr__(self):
        return "Cell(%r, dim=%d)" % (self.id, self.dim)


@dataclass(frozen=True)
class SurfaceInfo:
    genus: int | None
    orientable: bool


class Complex:
    """Immutable face-poset complex.

    Construction validates grading, closure and (for 2-cells) that the
    edge boundary is a single cycle in which no vertex repeats.  The
    pseudomanifold and closed-surface flags are computed on first use.
    Surgeries never mutate a complex: `replace_cells` returns a new one,
    re-checking only the cells the edit touches, and `prefixed` and
    `disjoint_union` carry the checked tables over without re-checking.
    """

    def __init__(self, cells):
        # cells: iterable of Cell
        self.cells = {}
        for cell in cells:
            if cell.id in self.cells:
                raise DuplicateFacet("duplicate cell id %r" % cell.id)
            self.cells[cell.id] = cell
        if not self.cells:
            raise MissingFace("empty complex")
        self.top_dim = max(c.dim for c in self.cells.values())
        self._validate_grading(self.cells.values())
        self._cofaces = self._build_cofaces()
        self._cycles = {}
        self._walk_cycles(cid for cid, c in self.cells.items() if c.dim == 2)
        self._closures = {}

    # ---- validation ----------------------------------------------------

    def _validate_grading(self, checked):
        """Check the grading of the cells `checked` against self.cells."""
        cells = self.cells
        for cell in checked:
            cid = cell.id
            if cell.dim < 0:
                raise BadDimensionDrop("cell %r has negative dimension" % cid)
            if cell.dim == 0 and cell.boundary:
                raise BadDimensionDrop("vertex %r has a boundary" % cid)
            for fid in cell.boundary:
                face = cells.get(fid)
                if face is None:
                    raise MissingFace("cell %r lists missing face %r" % (cid, fid))
                if face.dim != cell.dim - 1:
                    raise BadDimensionDrop(
                        "cell %r (dim %d) lists face %r (dim %d)"
                        % (cid, cell.dim, fid, face.dim))
            if cell.dim == 1 and len(cell.boundary) != 2:
                raise BadCellBoundary(
                    "edge %r must have exactly 2 endpoints" % cid)
            if cell.dim >= 1 and not cell.boundary:
                raise BadCellBoundary("cell %r of dim %d has empty boundary"
                                      % (cid, cell.dim))

    def _build_cofaces(self):
        cof = {cid: [] for cid in self.cells}
        for cid in sorted(self.cells):
            for fid in sorted(self.cells[cid].boundary):
                cof[fid].append(cid)
        return {cid: tuple(ids) for cid, ids in cof.items()}

    def _walk_cycles(self, ids):
        """Store the boundary walk of each 2-cell in `ids`."""
        for cid in sorted(ids):
            self._cycles[cid] = self._edge_cycle(self.cells[cid])

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
    def is_closed_surface(self):
        """A connected 2-dimensional pseudomanifold in which the link of
        every vertex is one cycle."""
        if self.top_dim != 2 or not self.is_pseudomanifold:
            return False
        if not self.is_connected():
            return False
        return all(self.link_cycle(cid) is not None
                   for cid, cell in self.cells.items() if cell.dim == 0)

    # ---- queries --------------------------------------------------------

    def __contains__(self, cid):
        return cid in self.cells

    def __eq__(self, other):
        # tags are provenance annotation, not part of the face poset
        if not isinstance(other, Complex):
            return NotImplemented
        if self.cells.keys() != other.cells.keys():
            return False
        return all(c.dim == other.cells[cid].dim
                   and c.boundary == other.cells[cid].boundary
                   for cid, c in self.cells.items())

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
        out = [0] * (self.top_dim + 1)
        for c in self.cells.values():
            out[c.dim] += 1
        return tuple(out)

    def closure(self, cid):
        """All faces of cid, transitively, including cid itself."""
        cached = self._closures.get(cid)
        if cached is not None:
            return cached
        out = {cid}
        frontier = [cid]
        while frontier:
            cur = frontier.pop()
            for fid in self.cells[cur].boundary:
                if fid not in out:
                    out.add(fid)
                    frontier.append(fid)
        out = frozenset(out)
        self._closures[cid] = out
        return out

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

    def closed_star(self, cid):
        """cid, every cell having cid in its closure, and their faces."""
        out = set()
        for sid in self.star(cid):
            out |= self.closure(sid)
        return frozenset(out)

    def boundary_cycle(self, cid):
        """Alternating [v0, e0, v1, e1, ...] walk around a 2-cell."""
        if self.dim(cid) != 2:
            raise UnknownCell("%r is not a 2-cell" % cid)
        return self._cycles[cid]

    def vertices_of(self, cid):
        return sorted(x for x in self.closure(cid) if self.cells[x].dim == 0)

    def is_connected(self):
        cofaces = self._cofaces
        return len(components(self.cells, {
            cid: (*cell.boundary, *cofaces[cid])
            for cid, cell in self.cells.items()})) == 1

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
        an added cell replaces any cell of the same id.

        The edit is local.  It re-checks the grading of the added cells
        and of the surviving cofaces of dropped or replaced cells, patches
        the coface lists of their faces, and re-walks the added 2-cells and
        the 2-cofaces of replaced edges.  The result equals `Complex` built
        from the new cell list, and an edit that breaks one cell raises the
        DmsError that construction would raise.
        """
        old = self.cells
        remove = set(remove)
        added = {cell.id: cell for cell in add}
        cells = dict(old)
        for cid in remove:
            cells.pop(cid, None)
        cells.update(added)
        if not cells:
            raise MissingFace("empty complex")
        gone = sorted(cid for cid in remove | added.keys() if cid in old)
        new = object.__new__(Complex)
        new.cells = cells
        new.top_dim = max([self.top_dim] + [c.dim for c in added.values()])
        if (any(old[cid].dim == new.top_dim for cid in gone)
                and all(c.dim != new.top_dim for c in added.values())):
            new.top_dim = max(c.dim for c in cells.values())
        cofaces = dict(self._cofaces)
        near = {t for cid in gone for t in cofaces[cid]}.difference(gone)
        new._validate_grading([cells[t] for t in sorted(near)]
                              + list(added.values()))

        changed = {}  # face id -> (cells no longer on it, cells now on it)
        for cid in gone:
            if cid not in cells:
                del cofaces[cid]
            for fid in old[cid].boundary:
                changed.setdefault(fid, (set(), set()))[0].add(cid)
        for cid, cell in added.items():
            cofaces.setdefault(cid, ())
            for fid in cell.boundary:
                changed.setdefault(fid, (set(), set()))[1].add(cid)
        for fid, (lost, gained) in changed.items():
            if fid in cells:
                cofaces[fid] = tuple(sorted(
                    set(cofaces[fid]).difference(lost).union(gained)))
        new._cofaces = cofaces

        new._cycles = dict(self._cycles)
        walk = {cid for cid, cell in added.items() if cell.dim == 2}
        for cid in gone:
            new._cycles.pop(cid, None)
            if old[cid].dim == 1 and cid in cells:
                walk.update(t for t in cofaces[cid] if cells[t].dim == 2)
        new._walk_cycles(walk)
        new._closures = {}
        return new

    def prefixed(self, prefix):
        """This complex with every id renamed to prefix + id.

        The renaming goes through one map, so each new id is a single
        string object shared by all the tables.  A common prefix keeps
        the sorted order of ids, so coface tuples and 2-cell walks carry
        over as they are; nothing is re-checked.
        """
        name = {cid: prefix + cid for cid in self.cells}
        new = object.__new__(Complex)
        new.cells = {
            name[cid]: Cell(name[cid], c.dim,
                            frozenset([name[f] for f in c.boundary]), c.tag)
            for cid, c in self.cells.items()}
        new.top_dim = self.top_dim
        new._cofaces = {name[cid]: tuple([name[t] for t in cof])
                        for cid, cof in self._cofaces.items()}
        new._cycles = {name[cid]: tuple([name[x] for x in walk])
                       for cid, walk in self._cycles.items()}
        new._closures = {}
        return new

    def disjoint_union(self, other):
        """The complex holding the cells of both; DuplicateFacet if an id
        lies in both.  Cells keep their order, self's first."""
        shared = self.cells.keys() & other.cells.keys()
        if shared:
            raise DuplicateFacet("duplicate cell id %r" % min(shared))
        new = object.__new__(Complex)
        new.cells = {**self.cells, **other.cells}
        new.top_dim = max(self.top_dim, other.top_dim)
        new._cofaces = {**self._cofaces, **other._cofaces}
        new._cycles = {**self._cycles, **other._cycles}
        new._closures = {}
        return new

    def split_cell(self, old, new_cells, halves):
        """New complex with cell `old` replaced by `new_cells`; every
        coface of `old` lists both `halves` in its place."""
        halves = frozenset(halves)
        patched = []
        for t in self.cofaces(old):
            tc = self.cells[t]
            patched.append(
                Cell(t, tc.dim, (tc.boundary - {old}) | halves, tc.tag))
        return self.replace_cells(remove=[old], add=list(new_cells) + patched)


# ---- graph primitives ----------------------------------------------------


def components(nodes, neighbours):
    """Connected components of a graph, as a list of frozensets.

    `neighbours` maps each node to the nodes adjacent to it, all of them
    in `nodes`.  Each search starts at the smallest node not yet reached,
    so the components come out ordered by their smallest node.
    """
    seen = set()
    out = []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
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
            at.setdefault(end, []).append(item)
    if not at:
        return None, "no items"
    bad = [end for end, items in at.items() if len(items) != 2]
    if bad:
        end = min(bad)
        return None, "%r lies on %d items" % (end, len(at[end]))
    start = min(at)
    item = min(at[start])
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
    for tri in sorted(seen):
        i, j, k = tri
        for v in tri:
            vid = vertex_id(v)
            cells[vid] = Cell(vid, 0, frozenset())
        eids = []
        for a, b in ((i, j), (i, k), (j, k)):
            eid = edge_id(a, b)
            cells[eid] = Cell(eid, 1, frozenset({vertex_id(a), vertex_id(b)}))
            edge_use[eid] = edge_use.get(eid, 0) + 1
            eids.append(eid)
        tid = triangle_id(i, j, k)
        cells[tid] = Cell(tid, 2, frozenset(eids))
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
    chi = 0
    for cell in K.cells.values():
        chi += 1 if cell.dim % 2 == 0 else -1
    return chi


def local_neighborhood(K, cid):
    """(star, link) of a cell, both as id -> Cell sub-poset mappings.

    star is the closed star: all cofaces of cid together with their
    faces.  link is the part of the closed star whose closure avoids
    cid; on a simplicial neighborhood this is the usual link.
    """
    if cid not in K:
        raise UnknownCell(cid)
    star_ids = K.closed_star(cid)
    star = {sid: K.cells[sid] for sid in sorted(star_ids)}
    link = {sid: K.cells[sid] for sid in sorted(star_ids)
            if cid not in K.closure(sid)}
    return star, link


def _orientation_ok(K):
    """Propagate coherent 2-cell orientations; False on conflict."""
    direction = {}  # 2-cell id -> dict edge -> (from_vertex, to_vertex)
    for tid in K.cells_of_dim(2):
        walk = K.boundary_cycle(tid)
        m = len(walk) // 2
        direction[tid] = {
            walk[2 * i + 1]: (walk[2 * i], walk[(2 * i + 2) % (2 * m)])
            for i in range(m)}
    sign = {}
    for start in K.cells_of_dim(2):
        if start in sign:
            continue
        sign[start] = 1
        frontier = [start]
        while frontier:
            t = frontier.pop()
            for eid in K.cells[t].boundary:
                for other in K.cofaces(eid):
                    if other == t:
                        continue
                    # coherent: shared edge traversed in opposite senses
                    same = direction[t][eid] == direction[other][eid]
                    want = -sign[t] if same else sign[t]
                    if other not in sign:
                        sign[other] = want
                        frontier.append(other)
                    elif sign[other] != want:
                        return False
    return True


def verify_closed_surface(K):
    """Check K is a closed surface; return SurfaceInfo(genus, orientable).

    Raises NotClosedSurface naming an offending cell.  Non-orientability
    is reported, not raised; genus is None in that case.
    """
    if K.top_dim != 2:
        raise NotClosedSurface("top dimension is %d" % K.top_dim)
    if not K.is_connected():
        raise NotClosedSurface("complex is not connected")
    for eid in K.cells_of_dim(1):
        if len(K.cofaces(eid)) != 2:
            raise NotClosedSurface("edge %s has %d cofaces"
                                   % (eid, len(K.cofaces(eid))))
    for vid in K.cells_of_dim(0):
        if K.link_cycle(vid) is None:
            raise NotClosedSurface("vertex %s link is not a single cycle" % vid)
    orientable = _orientation_ok(K)
    if not orientable:
        return SurfaceInfo(genus=None, orientable=False)
    chi = euler_characteristic(K)
    if chi % 2 != 0 or chi > 2:
        raise NotClosedSurface("impossible Euler characteristic %d" % chi)
    return SurfaceInfo(genus=(2 - chi) // 2, orientable=True)
