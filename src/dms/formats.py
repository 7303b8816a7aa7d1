"""Text formats: TRI (facet lists), CWP (cell/boundary records), DVF
(vector fields), DMF (function values), plus OFF/DOT export.

All files are UTF-8 with LF line endings; `#` starts a comment.  Writers
emit cells in sorted id order so outputs are byte-reproducible.
"""

import json
import math

from .cellcomplex import (
    Cell,
    Complex,
    TAG_BISECTION,
    TAG_CONE,
    TAG_INNER,
    TAG_ORIGINAL,
    TAG_TUBE,
    build_simplicial,
)
from .errors import ParseError
from .morsefield import MorseFunction, VectorField


def tag_from_id(cid):
    """Provenance is encoded in derived-cell ids, so it round-trips
    through formats that do not store it explicitly."""
    if "~b" in cid:
        return TAG_BISECTION
    if cid.startswith("tube:"):
        return TAG_TUBE
    if cid.startswith(("inner:", "shrunk:")):
        return TAG_INNER
    if cid.startswith("cone:"):
        return TAG_CONE
    return TAG_ORIGINAL


def _lines(text):
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line


# --- TRI ---------------------------------------------------------------------


def parse_tri(text, closed=True):
    header = None
    facets = []
    for ln, line in _lines(text):
        parts = line.split()
        if parts[0] == "tri":
            if header is not None:
                raise ParseError("line %d: duplicate header" % ln)
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError("line %d: bad header" % ln)
            header = int(parts[1])
        elif parts[0] == "t":
            if len(parts) != 4:
                raise ParseError("line %d: facet needs 3 vertices" % ln)
            try:
                facets.append(tuple(int(x) for x in parts[1:]))
            except ValueError:
                raise ParseError("line %d: bad vertex index" % ln)
        else:
            raise ParseError("line %d: unknown directive %r" % (ln, parts[0]))
    if header is None:
        raise ParseError("missing 'tri <nverts>' header")
    nverts = len({v for f in facets for v in f})
    if nverts != header:
        raise ParseError("header says %d vertices, facets use %d"
                         % (header, nverts))
    return build_simplicial(facets, closed=closed)


def write_tri(K):
    for c in K.cells.values():
        if c.dim == 2 and len(c.boundary) != 3:
            raise ParseError("TRI cannot hold polygonal cell %r" % c.id)
    out = ["tri %d" % len(K.cells_of_dim(0))]
    for t in K.cells_of_dim(2):
        verts = [int(v[1:]) for v in K.vertices_of(t)]
        out.append("t %d %d %d" % tuple(sorted(verts)))
    return "\n".join(out) + "\n"


# --- CWP ---------------------------------------------------------------------


def parse_cwp(text):
    dims = {}
    bnds = {}
    for ln, line in _lines(text):
        parts = line.split()
        if parts[0] == "cell":
            if len(parts) != 3:
                raise ParseError("line %d: cell needs id and dim" % ln)
            try:
                dims[parts[1]] = int(parts[2])
            except ValueError:
                raise ParseError("line %d: bad dimension" % ln)
        elif parts[0] == "bnd":
            if len(parts) < 2:
                raise ParseError("line %d: bnd needs a cell id" % ln)
            bnds[parts[1]] = parts[2:]
        else:
            raise ParseError("line %d: unknown directive %r" % (ln, parts[0]))
    for cid in bnds:
        if cid not in dims:
            raise ParseError("bnd for undeclared cell %r" % cid)
    cells = [Cell(cid, dim, frozenset(bnds.get(cid, [])), tag_from_id(cid))
             for cid, dim in dims.items()]
    return Complex(cells)


def write_cwp(K):
    out = []
    for cid, cell in sorted(K.cells.items()):
        out.append("cell %s %d" % (cid, cell.dim))
    for cid, cell in sorted(K.cells.items()):
        out.append(("bnd %s %s" % (cid, " ".join(sorted(cell.boundary)))).rstrip())
    return "\n".join(out) + "\n"


# --- DVF ---------------------------------------------------------------------


def parse_dvf(text, K):
    pairs = []
    crit_claims = []
    for ln, line in _lines(text):
        parts = line.split()
        if parts[0] == "pair":
            if len(parts) != 3:
                raise ParseError("line %d: pair needs two ids" % ln)
            for cid in parts[1:]:
                if cid not in K.cells:
                    raise ParseError("line %d: unknown cell %r" % (ln, cid))
            pairs.append((parts[1], parts[2]))
        elif parts[0] == "crit":
            if len(parts) != 2:
                raise ParseError("line %d: crit needs one id" % ln)
            if parts[1] not in K.cells:
                raise ParseError("line %d: unknown cell %r" % (ln, parts[1]))
            crit_claims.append(parts[1])
        else:
            raise ParseError("line %d: unknown directive %r" % (ln, parts[0]))
    V = VectorField(pairs)
    if crit_claims:
        matched = {c for p in pairs for c in p}
        for cid in crit_claims:
            if cid in matched:
                raise ParseError("crit claim %r is a matched cell" % cid)
    return V


def write_dvf(V, K=None):
    out = ["pair %s %s" % p for p in V.pairs()]
    if K is not None:
        matched = {c for p in V.pairs() for c in p}
        out.extend("crit %s" % cid for cid in sorted(K.cells)
                   if cid not in matched)
    return "\n".join(out) + "\n"


# --- DMF ---------------------------------------------------------------------


def parse_dmf(text, K):
    values = {}
    for ln, line in _lines(text):
        parts = line.split()
        if parts[0] != "val" or len(parts) != 3:
            raise ParseError("line %d: expected 'val <id> <decimal>'" % ln)
        if parts[1] not in K.cells:
            raise ParseError("line %d: unknown cell %r" % (ln, parts[1]))
        try:
            val = float(parts[2])
        except ValueError:
            raise ParseError("line %d: bad value %r" % (ln, parts[2]))
        if not math.isfinite(val):
            raise ParseError("line %d: value %r is not finite"
                             % (ln, parts[2]))
        values[parts[1]] = val
    return MorseFunction(values)


def write_dmf(f):
    out = ["val %s %s" % (cid, repr(val))
           for cid, val in sorted(f.values.items())]
    return "\n".join(out) + "\n"


# --- complex file dispatch ---------------------------------------------------


def load_complex(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".tri"):
        return parse_tri(text)
    if str(path).endswith(".cwp"):
        return parse_cwp(text)
    raise ParseError("unknown complex format for %r (use .tri or .cwp)" % path)


def dump_complex(K, path):
    if str(path).endswith(".tri"):
        text = write_tri(K)
    elif str(path).endswith(".cwp"):
        text = write_cwp(K)
    else:
        raise ParseError("unknown complex format for %r" % path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# --- inspection exports ------------------------------------------------------


def spectral_coordinates(K):
    """Synthetic 3d vertex coordinates from the 1-skeleton Laplacian;
    purely for inspection, no semantics."""
    import numpy as np

    verts = K.cells_of_dim(0)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    L = np.zeros((n, n))
    for e in K.cells_of_dim(1):
        a, b = sorted(K.boundary(e))
        i, j = index[a], index[b]
        L[i, j] -= 1
        L[j, i] -= 1
        L[i, i] += 1
        L[j, j] += 1
    if n <= 3:
        base = np.eye(3)[:n]
        return {v: tuple(base[i]) for v, i in index.items()}
    _, vecs = np.linalg.eigh(L)
    coords = vecs[:, 1:4]
    return {v: tuple(float(x) for x in coords[i]) for v, i in index.items()}


def write_off(K):
    coords = spectral_coordinates(K)
    verts = K.cells_of_dim(0)
    index = {v: i for i, v in enumerate(verts)}
    faces = K.cells_of_dim(2)
    out = ["OFF", "%d %d %d" % (len(verts), len(faces), len(K.cells_of_dim(1)))]
    for v in verts:
        out.append("%.6f %.6f %.6f" % coords[v])
    for t in faces:
        cyc = K.boundary_cycle(t)[0::2]
        out.append("%d %s" % (len(cyc), " ".join(str(index[v]) for v in cyc)))
    return "\n".join(out) + "\n"


def write_dot(K):
    out = ["digraph hasse {", "  rankdir=BT;"]
    for cid, cell in sorted(K.cells.items()):
        for fid in sorted(cell.boundary):
            out.append('  "%s" -> "%s";' % (fid, cid))
    out.append("}")
    return "\n".join(out) + "\n"


def write_report_json(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
