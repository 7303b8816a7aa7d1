"""Independent output checker for the dms benchmark.

Everything here works on the CWP/DVF/DMF text the library writes and
re-derives each property from the cells alone.  It imports nothing from
`dms`, so in particular `dms.homology` and `dms.morsefield`, the layers
later changes are expected to optimise, are never their own oracle.

For a closed oriented surface of genus g a perfect discrete Morse
structure is checked by:

* the Euler characteristic, counted from the cells, is 2 - 2g;
* the field is a matching of incident cells one dimension apart, with
  no closed V-path;
* the function has at most one exceptional face and at most one
  exceptional coface per cell, never both, and induces the field;
* the critical counts are (1, 2g, 1).
"""

import json


class CheckError(Exception):
    """An output failed an independent check."""


def _fail(label, msg):
    raise CheckError("%s: %s" % (label, msg))


def _content_lines(text):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line.split()


def parse_cwp_text(text, label="cwp"):
    """Cell records {id: (dim, frozenset(boundary ids))} from CWP text."""
    dims = {}
    bnds = {}
    for parts in _content_lines(text):
        if parts[0] == "cell" and len(parts) == 3:
            dims[parts[1]] = int(parts[2])
        elif parts[0] == "bnd" and len(parts) >= 2:
            bnds[parts[1]] = frozenset(parts[2:])
        else:
            _fail(label, "bad CWP line %r" % " ".join(parts))
    cells = {cid: (dim, bnds.get(cid, frozenset()))
             for cid, dim in dims.items()}
    for cid, (dim, bnd) in cells.items():
        for fid in bnd:
            face = cells.get(fid)
            if face is None or face[0] != dim - 1:
                _fail(label, "cell %s lists bad face %s" % (cid, fid))
        if (dim == 0) != (not bnd):
            _fail(label, "cell %s of dim %d has %d faces"
                  % (cid, dim, len(bnd)))
    return cells


def parse_dvf_text(text, label="dvf"):
    """(pairs, crit claims) from DVF text."""
    pairs = []
    crits = []
    for parts in _content_lines(text):
        if parts[0] == "pair" and len(parts) == 3:
            pairs.append((parts[1], parts[2]))
        elif parts[0] == "crit" and len(parts) == 2:
            crits.append(parts[1])
        else:
            _fail(label, "bad DVF line %r" % " ".join(parts))
    return pairs, crits


def parse_dmf_text(text, label="dmf"):
    values = {}
    for parts in _content_lines(text):
        if parts[0] != "val" or len(parts) != 3:
            _fail(label, "bad DMF line %r" % " ".join(parts))
        values[parts[1]] = float(parts[2])
    return values


def _cofaces(cells):
    cof = {cid: [] for cid in cells}
    for cid, (_, bnd) in cells.items():
        for fid in bnd:
            cof[fid].append(cid)
    return cof


def euler_characteristic(cells):
    return sum(1 if dim % 2 == 0 else -1 for dim, _ in cells.values())


def check_field(cells, pairs, label="field"):
    """Matching, incidence and acyclicity; returns the partner map."""
    partner = {}
    for low, high in pairs:
        if low not in cells or high not in cells:
            _fail(label, "pair (%s, %s) names an unknown cell" % (low, high))
        if cells[high][0] != cells[low][0] + 1 or low not in cells[high][1]:
            _fail(label, "pair (%s, %s) is not an incidence" % (low, high))
        for cid in (low, high):
            if cid in partner:
                _fail(label, "cell %s is matched twice" % cid)
        partner[low] = high
        partner[high] = low
    # V-path digraph on the lower cells of the pairs: sigma -> sigma'
    # when sigma' != sigma is a face of V(sigma) and itself a lower cell.
    tails = {low for low, _ in pairs}
    succ = {}
    indeg = {s: 0 for s in tails}
    for low, high in pairs:
        nxt = [s for s in cells[high][1] if s != low and s in tails]
        succ[low] = nxt
        for s in nxt:
            indeg[s] += 1
    ready = [s for s, d in indeg.items() if d == 0]
    done = 0
    while ready:
        s = ready.pop()
        done += 1
        for t in succ[s]:
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    if done != len(tails):
        _fail(label, "closed V-path through %d cells"
              % (len(tails) - done))
    return partner


def check_function(cells, values, pairs, label="function"):
    """Morse condition with exclusivity, and that `values` induce `pairs`."""
    missing = [cid for cid in cells if cid not in values]
    if missing:
        _fail(label, "no value for %s" % sorted(missing)[0])
    cof = _cofaces(cells)
    induced = set()
    for cid, (_, bnd) in cells.items():
        val = values[cid]
        exc_faces = [s for s in bnd if values[s] >= val]
        exc_cofaces = [c for c in cof[cid] if values[c] <= val]
        if len(exc_faces) > 1 or len(exc_cofaces) > 1:
            _fail(label, "cell %s has %d exceptional faces and %d "
                  "exceptional cofaces" % (cid, len(exc_faces),
                                          len(exc_cofaces)))
        if exc_faces and exc_cofaces:
            _fail(label, "cell %s has an exceptional face and coface" % cid)
        induced.update((s, cid) for s in exc_faces)
    if induced != set(pairs):
        diff = sorted(induced.symmetric_difference(pairs))
        _fail(label, "function does not induce the field, e.g. %s"
              % (diff[0],))


def check_surface(cells, pairs, values, genus, label="output"):
    """Full check of a perfect structure on a closed oriented surface of
    the given genus.  Returns the critical counts."""
    chi = euler_characteristic(cells)
    if chi != 2 - 2 * genus:
        _fail(label, "Euler characteristic %d, expected %d"
              % (chi, 2 - 2 * genus))
    partner = check_field(cells, pairs, label)
    check_function(cells, values, pairs, label)
    counts = [0, 0, 0]
    for cid, (dim, _) in cells.items():
        if dim > 2:
            _fail(label, "cell %s has dimension %d" % (cid, dim))
        if cid not in partner:
            counts[dim] += 1
    if counts != [1, 2 * genus, 1]:
        _fail(label, "critical counts %s, expected %s"
              % (counts, [1, 2 * genus, 1]))
    return tuple(counts)


def check_texts(cwp, dvf, dmf, genus, label="output"):
    """check_surface on written CWP/DVF/DMF text; the DVF crit lines must
    name exactly the unmatched cells."""
    cells = parse_cwp_text(cwp, label)
    pairs, crits = parse_dvf_text(dvf, label)
    values = parse_dmf_text(dmf, label)
    check_surface(cells, pairs, values, genus, label)
    matched = {c for p in pairs for c in p}
    if crits and set(crits) != set(cells) - matched:
        _fail(label, "crit lines do not list the unmatched cells")
    return cells


def check_circle(edges, cells1, cells2, label="circle"):
    """The separating circle is a simple cycle of edges kept in both
    pieces."""
    if len(set(edges)) != len(edges) or len(edges) < 3:
        _fail(label, "circle of %d edges, %d distinct"
              % (len(edges), len(set(edges))))
    degree = {}
    for eid in edges:
        for cells in (cells1, cells2):
            if cells.get(eid, (None,))[0] != 1:
                _fail(label, "circle edge %s is not an edge of both pieces"
                      % eid)
        for vid in cells1[eid][1]:
            degree[vid] = degree.get(vid, 0) + 1
    if any(d != 2 for d in degree.values()):
        _fail(label, "circle edges do not form a cycle")


def check_report(report_text, g1, g2, edges, cells1, cells2,
                 label="report"):
    """report.json of `dms decompose` against the re-parsed pieces."""
    report = json.loads(report_text)
    for name, g in (("m1", g1), ("m2", g2)):
        want = [1, 2 * g, 1]
        if report["betti"][name] != want:
            _fail(label, "betti %s is %s" % (name, report["betti"][name]))
        if report["morseCounts"][name] != want:
            _fail(label, "morseCounts %s is %s"
                  % (name, report["morseCounts"][name]))
        if report["chi"][name] != 2 - 2 * g:
            _fail(label, "chi %s is %s" % (name, report["chi"][name]))
        if report["perfect"][name] is not True:
            _fail(label, "%s is not reported perfect" % name)
    if report["circleLength"] != len(edges):
        _fail(label, "circleLength %s but the circle file lists %d edges"
              % (report["circleLength"], len(edges)))
    bisected = sum(1 for cells in (cells1, cells2)
                   for cid in cells if "~b" in cid)
    if report["bisections"] != bisected:
        _fail(label, "bisections %s but the pieces hold %d bisected cells"
              % (report["bisections"], bisected))
