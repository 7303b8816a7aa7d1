"""Text formats: TRI (facet lists), CWP (cell/boundary records), DVF
(vector fields), DMF (function values), plus DOT export.

All files are UTF-8 and `#` starts a comment.  Writers end lines with
LF and emit cells in sorted id order, so outputs are byte-reproducible;
readers also take CRLF line ends, and every parse error names its line.
"""

import json
import math

from .cellcomplex import (
    Cell,
    Complex,
    build_simplicial,
    new_cell,
    vertex_id,
)
from .errors import ParseError
from .morsefield import MorseFunction, VectorField


def _tokens(text):
    """(line number, fields) of every line with a field on it.  A line
    is cut at its first `#`, when it has one, and split once."""
    for ln, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line[:line.index("#")]
        parts = line.split()
        if parts:
            yield ln, parts


def _check_ids(fmt, ids):
    """ParseError naming the smallest of `ids`, a list, that the reader
    of `fmt` cannot read back: empty, or holding whitespace or `#`."""
    joined = " ".join(ids)  # its split is `ids` when none is empty or spaced
    if "#" in joined or joined.split() != ids:
        bad = min(x for x in ids if "#" in x or x.split() != [x])
        raise ParseError("%s cannot hold cell id %r" % (fmt, bad))


def _is_digits(s):
    """Whether s is a non-negative integer in ASCII decimal digits, the
    only integers the readers take: `int` also reads `1_0`, `+3` and
    ` 3`, and both it and `str.isdecimal` read other scripts' digits."""
    return s.isascii() and s.isdigit()


def _repeat(ln, directive, cid, first):
    """The ParseError for line ln giving `directive` for cid again."""
    return ParseError("line %d: %s %r repeats line %d"
                      % (ln, directive, cid, first))


# --- TRI ---------------------------------------------------------------------


def parse_tri(text):
    header = None
    facets = []
    for ln, parts in _tokens(text):
        if parts[0] == "tri":
            if header is not None:
                raise ParseError("line %d: duplicate header" % ln)
            if len(parts) != 2 or not _is_digits(parts[1]):
                raise ParseError("line %d: bad header" % ln)
            header = int(parts[1])
        elif parts[0] == "t":
            if len(parts) != 4:
                raise ParseError("line %d: facet needs 3 vertices" % ln)
            if not all(map(_is_digits, parts[1:])):
                raise ParseError("line %d: bad vertex index" % ln)
            facets.append(tuple(int(x) for x in parts[1:]))
        else:
            raise ParseError("line %d: unknown directive %r" % (ln, parts[0]))
    if header is None:
        raise ParseError("missing 'tri <nverts>' header")
    nverts = len({v for f in facets for v in f})
    if nverts != header:
        raise ParseError("header says %d vertices, facets use %d"
                         % (header, nverts))
    return build_simplicial(facets)


def write_tri(K):
    for c in K.cells.values():
        if c.dim == 2 and len(c.boundary) != 3:
            raise ParseError("TRI cannot hold polygonal cell %r" % c.id)
    held = set().union(*(K.closure(t) for t in K.cells_of_dim(2)))
    bare = K.cells.keys() - held
    if bare:
        raise ParseError("TRI cannot hold cell %r, which is no triangle "
                         "and lies in none" % min(bare))
    out = ["tri %d" % len(K.cells_of_dim(0))]
    for t in K.cells_of_dim(2):
        verts = [_tri_index(v) for v in K.vertices_of(t)]
        out.append("t %d %d %d" % tuple(sorted(verts)))
    return "\n".join(out) + "\n"


def _tri_index(vid):
    """The n of a vertex id v<n>, which parse_tri reads back as vid;
    ParseError naming any other id."""
    n = vid[1:]
    if not (_is_digits(n) and vertex_id(int(n)) == vid):
        raise ParseError("TRI cannot hold vertex %r (ids must be v<n>)" % vid)
    return int(n)


# --- CWP ---------------------------------------------------------------------


def parse_cwp(text):
    dims = {}
    bnds = {}
    cell_at = {}  # cell id -> the line of its cell record
    bnd_at = {}   # cell id -> the line of its bnd record
    for ln, parts in _tokens(text):
        if parts[0] == "cell":
            if len(parts) != 3:
                raise ParseError("line %d: cell needs id and dim" % ln)
            cid = parts[1]
            if cid in cell_at:
                raise _repeat(ln, "cell", cid, cell_at[cid])
            cell_at[cid] = ln
            # a negative dimension parses, so the complex names the cell
            if not _is_digits(parts[2].removeprefix("-")):
                raise ParseError("line %d: bad dimension" % ln)
            dims[cid] = int(parts[2])
        elif parts[0] == "bnd":
            if len(parts) < 2:
                raise ParseError("line %d: bnd needs a cell id" % ln)
            cid = parts[1]
            if cid in bnd_at:
                raise _repeat(ln, "bnd", cid, bnd_at[cid])
            bnd_at[cid] = ln
            bnds[cid] = parts[2:]
        else:
            raise ParseError("line %d: unknown directive %r" % (ln, parts[0]))
    for cid in bnds:
        if cid not in dims:
            raise ParseError("bnd for undeclared cell %r" % cid)
    return Complex([new_cell(Cell, (cid, dim, frozenset(bnds.get(cid, ()))))
                    for cid, dim in dims.items()])


def write_cwp(K):
    _check_ids("CWP", list(K.cells))
    cells = sorted(K.cells.items())
    out = ["cell %s %d" % (cid, cell.dim) for cid, cell in cells]
    out += [("bnd %s %s" % (cid, " ".join(sorted(cell.boundary)))).rstrip()
            for cid, cell in cells]
    return "\n".join(out) + "\n"


# --- DVF ---------------------------------------------------------------------


def parse_dvf(text, K):
    pairs = []
    crit_claims = []
    for ln, parts in _tokens(text):
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
    # the ids are str already, so the pairs need only sorting
    V = VectorField._of_sorted(tuple(sorted(pairs)))
    if crit_claims:
        matched = {c for p in pairs for c in p}
        for cid in crit_claims:
            if cid in matched:
                raise ParseError("crit claim %r is a matched cell" % cid)
    return V


def write_dvf(V, K=None):
    _check_ids("DVF", [x for p in V.pair_list for x in p]
               + ([] if K is None else list(K.cells)))
    out = ["pair %s %s" % p for p in V.pairs()]
    if K is not None:
        matched = {c for p in V.pairs() for c in p}
        out.extend("crit %s" % cid for cid in sorted(K.cells)
                   if cid not in matched)
    return "\n".join(out) + "\n"


# --- DMF ---------------------------------------------------------------------


def parse_dmf(text, K):
    cells = K.cells
    values = {}
    val_at = {}  # cell id -> the line of its val record
    for ln, parts in _tokens(text):
        if parts[0] != "val" or len(parts) != 3:
            raise ParseError("line %d: expected 'val <id> <decimal>'" % ln)
        cid = parts[1]
        if cid not in cells:
            raise ParseError("line %d: unknown cell %r" % (ln, cid))
        token = parts[2]
        try:
            # float() also reads 1_0, +3 and other scripts' digits
            if not token.isascii() or "_" in token or token[0] == "+":
                raise ValueError(token)
            val = float(token)
        except ValueError:
            raise ParseError("line %d: bad value %r" % (ln, token))
        if not math.isfinite(val):
            raise ParseError("line %d: value %r is not finite" % (ln, token))
        if cid in val_at:
            raise _repeat(ln, "val", cid, val_at[cid])
        val_at[cid] = ln
        values[cid] = val
    return MorseFunction(values)


def write_dmf(f):
    _check_ids("DMF", list(f.values))
    if not all(map(math.isfinite, f.values.values())):
        bad = min(c for c, val in f.values.items() if not math.isfinite(val))
        raise ParseError("DMF cannot hold %r, the value of cell %r, which "
                         "is not finite" % (f.values[bad], bad))
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


# --- inspection export -------------------------------------------------------


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
