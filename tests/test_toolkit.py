import ast
import json
import os
import random
import re
import shlex
import subprocess
import sys
import types

import pytest

import dms
from dms.cellcomplex import (
    Cell,
    Complex,
    build_poset,
    build_simplicial,
    euler_characteristic,
    verify_closed_surface,
)
from dms.cli import EXIT_CLOSED_STDOUT, build_parser, main
from dms.errors import (
    BadDimensionDrop,
    BoundaryNotCycle,
    Disconnected,
    DuplicateFacet,
    InconsistentField,
    NonPseudomanifold,
    NotClosedSurface,
    ParseError,
    UnknownCell,
    UnknownFixture,
    VertexNotOnCell,
)
from dms.fixtures import (
    fixture_complex,
    genus_surface,
    tetrahedron,
    tree_cotree_field,
)
from dms.formats import (
    load_complex,
    parse_cwp,
    parse_dmf,
    parse_dvf,
    parse_tri,
    write_cwp,
    write_dmf,
    write_dot,
    write_dvf,
    write_tri,
)
from dms.homology import betti_mod2
from dms.morsefield import (
    MorseFunction,
    VectorField,
    critical_cells,
    is_perfect,
    synthesize_function,
    trace_1path_tree,
    trace_2path,
    validate_field,
    validate_function,
)
from dms import surgery


# --- tree-cotree oracle --------------------------------------------------


@pytest.mark.parametrize("kind,m", [
    ("sphere", (1, 0, 1)),
    ("torus7", (1, 2, 1)),
    ("pillow", (1, 0, 1)),
])
def test_tree_cotree_perfect(kind, m):
    K = fixture_complex(kind)
    V = tree_cotree_field(K)
    rep = validate_field(K, V)
    assert rep.ok
    assert critical_cells(V, K).m == m
    assert is_perfect(K, V)


def test_tree_cotree_genus2(genus2):
    K = genus2[0]
    V = tree_cotree_field(K)
    assert validate_field(K, V).ok
    assert critical_cells(V, K).m == (1, 4, 1)
    assert is_perfect(K, V)


def test_tree_cotree_rp2_mod2(rp2):
    # mod-2 perfect on the projective plane as well
    V = tree_cotree_field(rp2)
    assert validate_field(rp2, V).ok
    assert critical_cells(V, rp2).m == tuple(betti_mod2(rp2).b)


def test_tree_cotree_disconnected():
    K = build_simplicial([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
                          (10, 11, 12), (10, 11, 13), (10, 12, 13),
                          (11, 12, 13)])
    with pytest.raises(Disconnected):
        tree_cotree_field(K)


def test_fixture_determinism(torus):
    a = tree_cotree_field(torus)
    b = tree_cotree_field(torus)
    assert a == b
    Ka, _, _ = genus_surface(2)
    Kb, _, _ = genus_surface(2)
    assert Ka == Kb


# --- formats ---------------------------------------------------------------


def test_tri_round_trip(tetra, torus):
    for K in (tetra, torus):
        assert parse_tri(write_tri(K)) == K


def test_cwp_round_trip(tetra, torus, pillow_sphere, genus2):
    for K in (tetra, torus, pillow_sphere, genus2[0]):
        assert parse_cwp(write_cwp(K)) == K


def test_dvf_dmf_round_trip(torus, torus_field, torus_function):
    V2 = parse_dvf(write_dvf(torus_field, torus), torus)
    assert V2 == torus_field
    f2 = parse_dmf(write_dmf(torus_function), torus)
    assert f2.values == torus_function.values


def test_parse_errors(torus):
    with pytest.raises(ParseError):
        parse_tri("t 0 1 2\n")        # missing header
    with pytest.raises(ParseError):
        parse_tri("tri 3\nt 0 1\n")
    with pytest.raises(ParseError):
        parse_cwp("cell a\n")
    with pytest.raises(ParseError):
        parse_dvf("pair v0 nope\n", torus)
    with pytest.raises(ParseError):
        parse_dmf("val nope 1.0\n", torus)
    with pytest.raises(ParseError):
        parse_dvf("pair v0 e0-1\ncrit v0\n", torus)


def test_parse_tri_rejects_a_superscript_header(tmp_path, capsys):
    # str.isdigit accepts "²", which int() refuses
    with pytest.raises(ParseError, match="line 1: bad header"):
        parse_tri("tri \u00b2\nt 0 1 2\n")
    bad = tmp_path / "bad.tri"
    bad.write_text("tri \u00b2\nt 0 1 2\n", encoding="utf-8")
    assert run_cli(["betti", "--complex", str(bad)]) == 3
    assert "line 1: bad header" in capsys.readouterr().err


def test_parse_tri_rejects_a_negative_index(tmp_path, capsys):
    with pytest.raises(ParseError, match="line 2: bad vertex index"):
        parse_tri("tri 3\nt -1 0 1\n")
    bad = tmp_path / "bad.tri"
    bad.write_text("tri 3\nt -1 0 1\n", encoding="utf-8")
    assert run_cli(["betti", "--complex", str(bad)]) == 3
    assert "line 2: bad vertex index" in capsys.readouterr().err


def test_parse_tri_refuses_an_open_surface(tmp_path, capsys):
    with pytest.raises(NonPseudomanifold,
                       match="edge e0-1 lies in 1 facets"):
        parse_tri("tri 3\nt 0 1 2\n")
    bad = tmp_path / "open.tri"
    bad.write_text("tri 3\nt 0 1 2\n", encoding="utf-8")
    assert run_cli(["betti", "--complex", str(bad)]) == 4
    assert "NonPseudomanifold: edge e0-1" in capsys.readouterr().err


def test_write_tri_refuses_a_vertex_in_no_triangle(tetra):
    K = tetra.replace_cells(add=[Cell("v9", 0, frozenset())])
    with pytest.raises(ParseError, match="cell 'v9'"):
        write_tri(K)


def test_tri_round_trip_keeps_gaps_in_the_numbering():
    K = build_simplicial([(0, 1, 2), (0, 1, 7), (0, 2, 7), (1, 2, 7)])
    assert write_tri(K).startswith("tri 4\n")
    assert parse_tri(write_tri(K)) == K


def test_write_tri_rejects_vertex_ids_it_cannot_hold(tetra):
    with pytest.raises(ParseError, match="vertex 'm1:v0'"):
        write_tri(tetra.prefixed("m1:"))


@pytest.mark.parametrize("text", ["nan", "-inf", "inf", "NaN", "1e999"])
def test_parse_dmf_rejects_non_finite_values(torus, text):
    lines = "val v0 0.0\nval v1 %s\n" % text
    with pytest.raises(ParseError, match="line 2: value %r is not finite"
                       % text):
        parse_dmf(lines, torus)
    # and write_dmf does not write one
    with pytest.raises(ParseError, match="of cell 'v1', which is not"):
        write_dmf(MorseFunction({"v0": 0.0, "v1": float(text)}))


@pytest.mark.parametrize("cid", ["a b", "a#b", "", " a", "a\tb",
                                 "a\u2028b", "m1:e0-1~b2"])
def test_the_writers_write_only_what_their_readers_read_back(cid):
    # the readers split lines on whitespace and cut them at `#`, so an id
    # holding either, or an empty one, was written and then refused
    K = build_poset([(cid, 0, []), ("c", 0, []), ("e", 1, [cid, "c"])])
    V = VectorField([(cid, "e")])
    f = MorseFunction({cid: 1.0, "c": 0.0, "e": 1.0})
    round_trips = [(lambda: write_cwp(K), lambda t: parse_cwp(t) == K),
                   (lambda: write_dvf(V, K), lambda t: parse_dvf(t, K) == V),
                   (lambda: write_dmf(f),
                    lambda t: parse_dmf(t, K).values == f.values)]
    for write, read_back in round_trips:
        if cid == "m1:e0-1~b2":
            assert read_back(write())
        else:
            with pytest.raises(ParseError, match="cannot hold cell id %s"
                               % re.escape(repr(cid))):
                write()


@pytest.mark.parametrize("parse, text, message", [
    (lambda t: parse_dmf(t, tetrahedron()), "val v0 1\nval v1 2\nval v0 5\n",
     "line 3: val 'v0' repeats line 1"),
    (parse_cwp, "cell a 0\n# a comment\ncell a 0\n",
     "line 3: cell 'a' repeats line 1"),
    (parse_cwp, "cell a 0\ncell b 0\ncell x 1\nbnd x a b\nbnd x a b\n",
     "line 5: bnd 'x' repeats line 4"),
], ids=["val", "cell", "bnd"])
def test_parsers_reject_a_repeated_id(parse, text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


def test_files_round_trip_to_the_same_tables(glued_genus2,
                                            assert_same_complex):
    # CWP for every surface, TRI for the simplicial ones: the parsed
    # complex has the tables of one built from scratch on the same cells
    # in file order, and the same closed-surface verdict
    simplicial = [fixture_complex(kind)
                  for kind in ("sphere", "torus7", "rp2")]
    simplicial += [glued_genus2(flips, seed)
                   for flips, seed in ((0, 0), (20, 1), (200, 1), (200, 3))]
    polygonal = [fixture_complex("pillow")]
    polygonal += [genus_surface(g)[0] for g in range(2, 9)]
    for K in simplicial + polygonal:
        texts = [parse_cwp(write_cwp(K))]
        if any(K is S for S in simplicial):
            texts.append(parse_tri(write_tri(K)))
        for P in texts:
            assert_same_complex(P, Complex([K.cells[c] for c in P.cells]))
            assert verify_closed_surface(P) == verify_closed_surface(K)
        V = tree_cotree_field(K)
        assert parse_dvf(write_dvf(V, K), K) == V
        f = synthesize_function(K, V)
        assert parse_dmf(write_dmf(f), K).values == f.values


# every ParseError of the four parsers, as the whole message; the texts
# mix comment-only and blank lines, a `#` after a token, CRLF line ends
# and trailing whitespace, which must not move the line numbers
PARSE_ERRORS = [
    ("tri", "# a comment\ntri 3\r\n\ntri 3\n", "line 4: duplicate header"),
    ("tri", "tri\n", "line 1: bad header"),
    ("tri", "tri 3 4 # vertices\n", "line 1: bad header"),
    ("tri", "tri -3\n", "line 1: bad header"),
    ("tri", "tri \u0664\n", "line 1: bad header"),
    ("tri", "tri 3\r\nt 0 1  \r\n", "line 2: facet needs 3 vertices"),
    ("tri", "tri 3\n\nt 0 1 2 3\n", "line 3: facet needs 3 vertices"),
    ("tri", "tri 3\n  \t\nt 0 1 x\n", "line 3: bad vertex index"),
    ("tri", "tri 3\nt 0 1 \u0663\n", "line 2: bad vertex index"),
    ("tri", "tri 3\nt 0 1 2\nq 1\n", "line 3: unknown directive 'q'"),
    ("tri", "T 3\n", "line 1: unknown directive 'T'"),
    ("tri", "# only a comment\n\n   \nt 0 1 2\n",
     "missing 'tri <nverts>' header"),
    ("tri", "", "missing 'tri <nverts>' header"),
    ("tri", "tri 4 #\nt 0 1 2#\n", "header says 4 vertices, facets use 3"),
    ("cwp", "cell a\n", "line 1: cell needs id and dim"),
    ("cwp", "# x\ncell a 0 1\n", "line 2: cell needs id and dim"),
    ("cwp", "cell a 0\r\ncell a x\r\n", "line 2: cell 'a' repeats line 1"),
    ("cwp", "cell a 0\n\ncell b 1.5\n", "line 3: bad dimension"),
    ("cwp", "cell a 0 # a vertex\n\ncell b two\n", "line 3: bad dimension"),
    ("cwp", "cell a 0\ncell b 1_0\n", "line 2: bad dimension"),
    ("cwp", "cell a +0\n", "line 1: bad dimension"),
    ("cwp", "cell a \u0660\n", "line 1: bad dimension"),
    ("cwp", "cell a --1\n", "line 1: bad dimension"),
    ("cwp", "cell a 0\nbnd\n", "line 2: bnd needs a cell id"),
    ("cwp", "cell a 0\nbnd # a\n", "line 2: bnd needs a cell id"),
    ("cwp", "bnd x\n# again\nbnd x a b  \n", "line 3: bnd 'x' repeats line 1"),
    ("cwp", "cell a 0\nvertex b\n", "line 2: unknown directive 'vertex'"),
    ("cwp", "cell a 0\nbnd b a\nbnd c a\n", "bnd for undeclared cell 'b'"),
    ("dvf", "pair v0\n", "line 1: pair needs two ids"),
    ("dvf", "\n\npair v0 e0-1 t0-1-3\n", "line 3: pair needs two ids"),
    ("dvf", "pair v0 e0-1\r\npair v9 e0-1 # no v9\r\n",
     "line 2: unknown cell 'v9'"),
    ("dvf", "pair nope v0\n", "line 1: unknown cell 'nope'"),
    ("dvf", "crit\n", "line 1: crit needs one id"),
    ("dvf", "crit v0 v1\n", "line 1: crit needs one id"),
    ("dvf", "# c\ncrit v9   \n", "line 2: unknown cell 'v9'"),
    ("dvf", "pair v0 e0-1\nmatch v1 e1-2\n",
     "line 2: unknown directive 'match'"),
    ("dvf", "crit v0\npair v0 e0-1\n", "crit claim 'v0' is a matched cell"),
    ("dmf", "val v0\n", "line 1: expected 'val <id> <decimal>'"),
    ("dmf", "\r\nval v0 1 2\r\n", "line 2: expected 'val <id> <decimal>'"),
    ("dmf", "value v0 1\n", "line 1: expected 'val <id> <decimal>'"),
    ("dmf", "val v9 1.0 # unknown\n", "line 1: unknown cell 'v9'"),
    ("dmf", "# c\n\nval v0 one\n", "line 3: bad value 'one'"),
    ("dmf", "val v0 1\nval v1 -inf  \n", "line 2: value '-inf' is not finite"),
    ("dmf", "val v0 1\n# again\nval v0 1\n",
     "line 3: val 'v0' repeats line 1"),
    ("dmf", "val v0 1\r\nval v0 x\r\n", "line 2: bad value 'x'"),
    ("dmf", "val v0 1_0\n", "line 1: bad value '1_0'"),
    ("dmf", "val v0 +3\n", "line 1: bad value '+3'"),
    ("dmf", "val v0 \u0663\n", "line 1: bad value '\u0663'"),
    ("dmf", "val v0 \uff13\n", "line 1: bad value '\uff13'"),
]


def parse_any(kind, text, K):
    if kind == "tri":
        return parse_tri(text)
    if kind == "cwp":
        return parse_cwp(text)
    if kind == "dvf":
        return parse_dvf(text, K)
    return parse_dmf(text, K)


@pytest.mark.parametrize("kind, text, message", PARSE_ERRORS)
def test_parse_error_messages(tetra, kind, text, message):
    with pytest.raises(ParseError) as err:
        parse_any(kind, text, tetra)
    assert str(err.value) == message


SQUARE_VERTICES = [("a", 0, []), ("b", 0, []), ("c", 0, []), ("d", 0, [])]


def field_of(*ids):
    """A VectorField of the pairs of consecutive ids."""
    return VectorField(list(zip(ids[::2], ids[1::2])))


# documented refusals, each with its whole message, on the tetrahedron
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda T: trace_1path_tree(T, field_of(
        "v0", "e0-1", "v1", "e1-2", "v2", "e0-2")),
        InconsistentField, "1-path cycle at v0", id="1-path-cycle"),
    pytest.param(lambda T: trace_1path_tree(T, field_of(
        "v0", "e0-3", "v1", "e1-3", "v2", "t0-1-2")),
        InconsistentField, "vertex v2 paired with dim-2 cell",
        id="1-path-vertex-on-a-facet"),
    pytest.param(lambda T: trace_1path_tree(T, field_of(
        "v0", "e1-2", "v1", "e1-3", "v2", "e2-3")),
        InconsistentField, "edge e1-2 has strange boundary",
        id="1-path-edge-off-its-vertex"),
    pytest.param(lambda T: trace_2path(T, field_of(
        "e0-1", "t0-1-2", "e0-3", "t0-1-3", "e0-2", "t0-2-3"),
        "t0-1-2", "t1-2-3"),
        InconsistentField, "2-path revisits t0-1-2", id="2-path-revisit"),
    pytest.param(lambda T: trace_2path(T, field_of("v0", "t0-1-2"),
                                       "t0-1-2", "t1-2-3"),
                 InconsistentField, "facet t0-1-2 is not edge-matched",
                 id="2-path-facet-on-a-vertex"),
    pytest.param(lambda T: trace_2path(T, field_of("e0-1", "t0-1-2"),
                                       "t0-1-2", "t1-2-3"),
                 InconsistentField, "2-path from t0-1-2 begins at "
                 "unexpected critical cell t0-1-3", id="2-path-other-critical"),
    pytest.param(lambda T: surgery._bisect_edge(
        T._draft(), VectorField(), "e0-1", "v2", {}),
        VertexNotOnCell, "'v2' is not an endpoint of 'e0-1'",
        id="bisect-anchor-off-the-edge"),
    pytest.param(lambda T: parse_cwp("cell x -1\n"), BadDimensionDrop,
                 "cell 'x' has negative dimension", id="cwp-negative-dimension"),
    pytest.param(lambda T: build_poset([("a", 0, []), ("a", 0, [])]),
                 DuplicateFacet, "duplicate cell id 'a'", id="poset-repeated-id"),
    pytest.param(lambda T: build_poset([("a", 0, []), ("b", 0, ["a"])]),
                 BadDimensionDrop, "vertex 'b' has a boundary",
                 id="poset-vertex-with-a-boundary"),
    pytest.param(lambda T: build_poset([
        ("a", 0, []), ("b", 0, []), ("e", 1, ["a", "b"]),
        ("f", 1, ["a", "b"]), ("t", 2, ["e", "f"])]),
        BoundaryNotCycle, "2-cell 't' has 2 boundary edges", id="poset-digon"),
    # three- and four-edge boundaries that are no cycle
    pytest.param(lambda T: build_poset(SQUARE_VERTICES + [
        ("e1", 1, ["a", "b"]), ("e2", 1, ["a", "b"]), ("e3", 1, ["c", "d"]),
        ("e4", 1, ["c", "d"]), ("q", 2, ["e1", "e2", "e3", "e4"])]),
        BoundaryNotCycle, "2-cell 'q': the items form more than one cycle",
        id="poset-two-digons-as-a-quad"),
    pytest.param(lambda T: build_poset(SQUARE_VERTICES + [
        ("e1", 1, ["a", "b"]), ("e2", 1, ["b", "c"]), ("e3", 1, ["c", "d"]),
        ("t", 2, ["e1", "e2", "e3"])]),
        BoundaryNotCycle, "2-cell 't': 'a' lies on 1 items",
        id="poset-path-as-a-triangle"),
    pytest.param(lambda T: build_poset(SQUARE_VERTICES + [
        ("e1", 1, ["a", "b"]), ("e2", 1, ["a", "b"]), ("e3", 1, ["a", "c"]),
        ("t", 2, ["e1", "e2", "e3"])]),
        BoundaryNotCycle, "2-cell 't': 'a' lies on 3 items",
        id="poset-digon-and-an-edge-as-a-triangle"),
    pytest.param(lambda T: build_poset(SQUARE_VERTICES + [
        ("e1", 1, ["a", "b"]), ("e2", 1, ["b", "c"]), ("e3", 1, ["a", "c"]),
        ("e4", 1, ["c", "d"]), ("q", 2, ["e1", "e2", "e3", "e4"])]),
        BoundaryNotCycle, "2-cell 'q': 'c' lies on 3 items",
        id="poset-triangle-and-a-pendant-as-a-quad"),
    pytest.param(lambda T: tree_cotree_field(build_poset([
        ("a", 0, []), ("b", 0, []), ("e", 1, ["a", "b"])])),
        NotClosedSurface, "tree-cotree needs a 2-complex",
        id="tree-cotree-of-an-edge"),
    pytest.param(lambda T: T.boundary_cycle("e0-1"), UnknownCell,
                 "'e0-1' is not a 2-cell", id="boundary-cycle-of-an-edge"),
])
def test_documented_refusals(tetra, call, error, message):
    with pytest.raises(error) as err:
        call(tetra)
    assert str(err.value) == message


def test_comments_blank_lines_crlf_and_trailing_space_are_ignored(tetra):
    tri = "# tetrahedron\r\ntri 4   \r\n\r\nt 0 1 2#face\r\nt 0 1 3\r\n" \
          "  # indented comment\r\nt 0 2 3 \t\r\nt 1 2 3 # last\r\n"
    assert parse_tri(tri) == tetra
    cwp = write_cwp(tetra).replace("\n", "  # x\r\n\r\n")
    assert parse_cwp(cwp) == tetra
    V = tree_cotree_field(tetra)
    dvf = "# field\n" + write_dvf(V, tetra).replace("\n", "\t#\n")
    assert parse_dvf(dvf, tetra) == V
    f = synthesize_function(tetra, V)
    dmf = write_dmf(f).replace("\n", " \r\n#\r\n")
    assert parse_dmf(dmf, tetra).values == f.values


def test_cli_repeated_value_is_a_parse_error(tmp_path, capsys):
    out = tmp_path / "t"
    run_cli(["fixture", "torus7", "--out", str(out)])
    dmf = tmp_path / "t.dmf"
    dmf.write_text(dmf.read_text() + "val v0 99.0\n")
    capsys.readouterr()
    code = run_cli(["validate", "--complex", str(out) + ".tri",
                    "--function", str(dmf)])
    assert code == 3
    assert "val 'v0' repeats line" in capsys.readouterr().err


def test_cli_critical_lists_the_critical_cells(tmp_path, capsys):
    out = tmp_path / "t"
    run_cli(["fixture", "torus7", "--out", str(out)])
    capsys.readouterr()
    assert run_cli(["critical", "--complex", str(out) + ".tri",
                    "--field", str(out) + ".dvf"]) == 0
    lines = capsys.readouterr().out.splitlines()
    K = load_complex(str(out) + ".tri")
    counts = critical_cells(parse_dvf((tmp_path / "t.dvf").read_text(), K),
                            K)
    assert counts.m == (1, 2, 1)
    assert lines == [" ".join(map(str, counts.m))] + [
        "%d %s" % (p, cid) for p in sorted(counts.cells)
        for cid in counts.cells[p]]


def test_cli_critical_unknown_cell_is_a_parse_error(tmp_path, capsys):
    out = tmp_path / "t"
    run_cli(["fixture", "torus7", "--out", str(out)])
    bad = tmp_path / "bad.dvf"
    bad.write_text("pair v0 e0-1\npair v9 e0-9\n")
    capsys.readouterr()
    code = run_cli(["critical", "--complex", str(out) + ".tri",
                    "--field", str(bad)])
    assert code == 3
    assert "line 2: unknown cell 'v9'" in capsys.readouterr().err


# the triangles around v0 on torus7, each paired with the next edge of
# link_cycle("v0"): a closed V-path of edges
V0_RING = ("pair e0-3 t0-1-3\npair e0-2 t0-2-3\npair e0-6 t0-2-6\n"
           "pair e0-4 t0-4-6\npair e0-5 t0-4-5\npair e0-1 t0-1-5\n")


@pytest.mark.parametrize("dvf, err", [
    pytest.param("pair v0 e1-2\n", "field incidence: ('v0', 'e1-2')\n",
                 id="incidence"),
    pytest.param("pair v0 e0-1\npair v1 e1-2\npair v2 e0-2\n",
                 "field cycle: ('v0', 'e0-1', 'v1', 'e1-2', 'v2', 'e0-2')\n",
                 id="vertex-cycle"),
    pytest.param(V0_RING,
                 "field cycle: ('e0-1', 't0-1-5', 'e0-5', 't0-4-5', 'e0-4', "
                 "'t0-4-6', 'e0-6', 't0-2-6', 'e0-2', 't0-2-3', 'e0-3', "
                 "'t0-1-3')\n", id="edge-cycle"),
    # with closed V-paths in two dimensions, the lower one is named
    pytest.param(V0_RING + "pair v1 e1-2\npair v2 e2-3\npair v3 e1-3\n",
                 "field cycle: ('v1', 'e1-2', 'v2', 'e2-3', 'v3', 'e1-3')\n",
                 id="two-cycles"),
])
def test_cli_critical_invalid_field_is_exit_2(tmp_path, capsys, dvf, err):
    # a field that parses but fails validation exits as in `dms validate`
    out = tmp_path / "t"
    run_cli(["fixture", "torus7", "--out", str(out)])
    bad = tmp_path / "bad.dvf"
    bad.write_text(dvf)
    capsys.readouterr()
    for command in ("critical", "validate"):
        code = run_cli([command, "--complex", str(out) + ".tri",
                        "--field", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == err
        assert captured.out == ""


def test_cli_validate_rejects_a_nan_function(tmp_path, capsys):
    out = tmp_path / "t"
    run_cli(["fixture", "torus7", "--out", str(out)])
    nan = tmp_path / "nan.dmf"
    nan.write_text("".join("val %s nan\n" % line.split()[1] for line in
                           (tmp_path / "t.dmf").read_text().splitlines()))
    capsys.readouterr()
    code = run_cli(["validate", "--complex", str(out) + ".tri",
                    "--function", str(nan)])
    assert code == 3
    assert "not finite" in capsys.readouterr().err


# a genus is ASCII digits alone, though int() reads each of the last five
@pytest.mark.parametrize("kind", ["torus", "genusx", "genus-1", "genus1_0",
                                  "genus 3", "genus+3", "genus3 ",
                                  "genus\u0663"])
def test_unknown_fixture_kinds_raise_a_dms_error(kind):
    with pytest.raises(UnknownFixture):
        fixture_complex(kind)


def test_dot_export(torus):
    dot = write_dot(torus)
    assert dot.startswith("digraph")
    assert '"v0" -> "e0-1"' in dot


# --- CLI -------------------------------------------------------------------


def run_cli(args):
    return main(list(args))


def test_cli_betti(tmp_path, capsys):
    out = tmp_path / "t"
    assert run_cli(["fixture", "torus7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["betti", "--complex", str(out) + ".tri"]) == 0
    assert capsys.readouterr().out.strip() == "1 2 1"


def test_the_readme_cli_block_runs_as_written(tmp_path, monkeypatch,
                                              capsys):
    # README's `## CLI` block, line by line in a fresh directory, so the
    # example cannot drift from the commands
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```")[1]
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if not argv:
            continue
        assert argv[0] == "dms"
        capsys.readouterr()
        assert run_cli(argv[1:]) == 0, line
        if argv[1] == "betti":
            shown = line.split("#", 1)[1].strip()
            assert capsys.readouterr().out.strip() == shown == "1 2 1"
        ran.append(argv[1])
    assert ran == ["fixture", "betti", "validate", "critical", "compose",
                   "decompose", "export"]


def test_cli_validate_double_match(tmp_path, capsys):
    out = tmp_path / "t"
    run_cli(["fixture", "torus7", "--out", str(out)])
    bad = tmp_path / "bad.dvf"
    bad.write_text("pair v0 e0-1\npair v0 e0-2\n")
    capsys.readouterr()
    code = run_cli(["validate", "--complex", str(out) + ".tri",
                    "--field", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "v0" in captured.err


def test_cli_validate_function_lists_one_violation_per_line(tmp_path,
                                                           capsys):
    out = tmp_path / "t"
    run_cli(["fixture", "torus7", "--out", str(out)])
    flat = tmp_path / "flat.dmf"
    flat.write_text("".join("val %s 0\n" % line.split()[1] for line in
                            (tmp_path / "t.dmf").read_text().splitlines()))
    K = load_complex(str(out) + ".tri")
    want = ["function %s violation at %s" % (kind, cell) for cell, kind in
            validate_function(K, parse_dmf(flat.read_text(), K)).violations]
    capsys.readouterr()
    code = run_cli(["validate", "--complex", str(out) + ".tri",
                    "--function", str(flat)])
    captured = capsys.readouterr()
    assert code == 2
    assert len(want) > 1 and captured.err.splitlines() == want
    assert captured.err.endswith("\n") and captured.out == ""


def test_cli_validate_ok(tmp_path, capsys):
    out = tmp_path / "t"
    run_cli(["fixture", "torus7", "--out", str(out)])
    code = run_cli(["validate", "--complex", str(out) + ".tri",
                    "--field", str(out) + ".dvf",
                    "--function", str(out) + ".dmf"])
    assert code == 0


def test_cli_validate_names_a_field_the_function_does_not_induce(
        tmp_path, capsys):
    # a decompose piece's field less one pair is still a valid field, but
    # the piece's function induces the pair, so validate must refuse it
    g2, dec = str(tmp_path / "g2"), str(tmp_path / "dec")
    assert run_cli(["fixture", "genus2", "--out", g2]) == 0
    assert run_cli(["decompose", "--complex", g2 + ".cwp",
                    "--function", g2 + ".dmf", "--g1", "1", "--g2", "1",
                    "--out", dec]) == 0
    lines = (tmp_path / "dec.m2.dvf").read_text().splitlines()
    cut = next(i for i, line in enumerate(lines) if line.startswith("pair"))
    short = tmp_path / "short.dvf"
    short.write_text("\n".join(lines[:cut] + lines[cut + 1:]) + "\n")
    capsys.readouterr()
    assert run_cli(["validate", "--complex", dec + ".m2.cwp",
                    "--field", str(short)]) == 0
    capsys.readouterr()
    assert run_cli(["validate", "--complex", dec + ".m2.cwp",
                    "--field", str(short),
                    "--function", dec + ".m2.dmf"]) == 2
    captured = capsys.readouterr()
    _, a, b = lines[cut].split()
    assert captured.err == (
        "function induces pair %s %s that the field lacks\n" % (a, b))
    assert captured.out == ""


def test_cli_validate_names_the_first_pair_of_another_field(
        tmp_path, capsys):
    # another valid field of the same surface differs from the one the
    # function induces; the first differing pair is named, either way
    out = tmp_path / "t"
    run_cli(["fixture", "torus7", "--out", str(out)])
    K = load_complex(str(out) + ".tri")
    V = parse_dvf((tmp_path / "t.dvf").read_text(), K)
    W = tree_cotree_field(K, rng=random.Random(3))
    assert validate_field(K, W).ok and W != V
    other = tmp_path / "other.dvf"
    other.write_text(write_dvf(W, K))
    capsys.readouterr()
    assert run_cli(["validate", "--complex", str(out) + ".tri",
                    "--field", str(other),
                    "--function", str(out) + ".dmf"]) == 2
    pair = min(set(V.pairs()) ^ set(W.pairs()))
    assert capsys.readouterr().err == (
        "function induces pair %s %s that the field lacks\n" % pair
        if pair in V.pairs() else
        "function does not induce pair %s %s that the field holds\n" % pair)


def test_cli_parse_error_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.tri"
    bad.write_text("nonsense\n")
    assert run_cli(["betti", "--complex", str(bad)]) == 3


def test_cli_precondition_is_exit_4(tmp_path, capsys):
    out = tmp_path / "s"
    run_cli(["fixture", "sphere", "--out", str(out)])
    code = run_cli(["decompose", "--complex", str(out) + ".tri",
                    "--function", str(out) + ".dmf",
                    "--g1", "0", "--g2", "0", "--out", str(tmp_path / "d")])
    assert code == 4


def test_cli_negative_genus_is_exit_4(tmp_path, capsys):
    out = tmp_path / "g"
    run_cli(["fixture", "genus2", "--out", str(out)])
    capsys.readouterr()
    code = run_cli(["decompose", "--complex", str(out) + ".cwp",
                    "--function", str(out) + ".dmf",
                    "--g1", "-1", "--g2", "3", "--out", str(tmp_path / "d")])
    assert code == 4
    assert "negative genus" in capsys.readouterr().err
    assert not list(tmp_path.glob("d*"))


# a genus is ASCII digits alone, though int() reads each of the last five
@pytest.mark.parametrize("kind", ["torus", "genusx", "genus-1", "genus1_0",
                                  "genus 3", "genus+3", "genus3 ",
                                  "genus\u0663"])
def test_cli_unknown_fixture_is_one_line(tmp_path, capsys, kind):
    code = run_cli(["fixture", kind, "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("UnknownFixture: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_cli_compose_decompose(tmp_path, capsys):
    t = tmp_path / "t"
    run_cli(["fixture", "torus7", "--out", str(t)])
    g2 = tmp_path / "g2"
    code = run_cli(["compose", "--left", str(t) + ".tri",
                    "--left-function", str(t) + ".dmf",
                    "--right", str(t) + ".tri",
                    "--right-function", str(t) + ".dmf",
                    "--out", str(g2)])
    assert code == 0
    M = load_complex(str(g2) + ".cwp")
    assert euler_characteristic(M) == -2
    V = parse_dvf((g2.parent / "g2.dvf").read_text(), M)
    f = parse_dmf((g2.parent / "g2.dmf").read_text(), M)
    assert validate_field(M, V).ok
    assert critical_cells(V, M).m == (1, 4, 1)

    dec = tmp_path / "dec"
    code = run_cli(["decompose", "--complex", str(g2) + ".cwp",
                    "--function", str(g2) + ".dmf",
                    "--g1", "1", "--g2", "1", "--out", str(dec)])
    assert code == 0
    for suffix in (".m1.cwp", ".m1.dvf", ".m1.dmf",
                   ".m2.cwp", ".m2.dvf", ".m2.dmf",
                   ".circle.txt", ".report.json"):
        assert (tmp_path / ("dec" + suffix)).exists()
    report = json.loads((tmp_path / "dec.report.json").read_text())
    assert report["morseCounts"] == {"m1": [1, 2, 1], "m2": [1, 2, 1]}
    assert report["perfect"] == {"m1": True, "m2": True}
    assert set(report) >= {"chi", "betti", "morseCounts", "perfect",
                           "bisections", "circleLength"}
    # emitted pieces round-trip and validate
    m1 = load_complex(str(dec) + ".m1.cwp")
    v1 = parse_dvf((tmp_path / "dec.m1.dvf").read_text(), m1)
    assert validate_field(m1, v1).ok
    circle = (tmp_path / "dec.circle.txt").read_text().split()
    assert len(circle) == report["circleLength"]


def test_cli_decomposes_a_decompose_piece(tmp_path, capsys):
    # the genus-3 piece's files, read back, decompose again at 1/2
    g4, dec = str(tmp_path / "g4"), str(tmp_path / "dec")
    assert run_cli(["fixture", "genus4", "--out", g4]) == 0
    assert run_cli(["decompose", "--complex", g4 + ".cwp",
                    "--function", g4 + ".dmf", "--g1", "1", "--g2", "3",
                    "--out", dec]) == 0
    assert run_cli(["decompose", "--complex", dec + ".m2.cwp",
                    "--function", dec + ".m2.dmf", "--g1", "1", "--g2", "2",
                    "--out", dec + "2"]) == 0
    report = json.loads((tmp_path / "dec2.report.json").read_text())
    assert report["perfect"] == {"m1": True, "m2": True}
    for piece in ("m1", "m2"):
        stem = dec + "2." + piece
        capsys.readouterr()
        assert run_cli(["validate", "--complex", stem + ".cwp",
                        "--field", stem + ".dvf",
                        "--function", stem + ".dmf"]) == 0
        assert capsys.readouterr().out == "ok\n"


def shifted_torus(tmp_path, name, shift):
    """torus7 and its fixture function plus `shift`, as the files
    stem.tri and stem.dmf; returns the stem."""
    stem = tmp_path / name
    run_cli(["fixture", "torus7", "--out", str(stem)])
    K = load_complex(str(stem) + ".tri")
    f = parse_dmf((tmp_path / (name + ".dmf")).read_text(), K)
    f = MorseFunction({cid: shift + v for cid, v in f.values.items()})
    assert validate_function(K, f).ok
    (tmp_path / (name + ".dmf")).write_text(write_dmf(f))
    return str(stem)


def test_cli_compose_of_a_left_function_past_2_to_the_40_validates(
        tmp_path, capsys):
    left = shifted_torus(tmp_path, "left", 2.0 ** 52)
    right = shifted_torus(tmp_path, "right", 0.0)
    out = str(tmp_path / "g2")
    assert run_cli(["compose", "--left", left + ".tri",
                    "--left-function", left + ".dmf",
                    "--right", right + ".tri",
                    "--right-function", right + ".dmf",
                    "--out", out]) == 0
    capsys.readouterr()
    assert run_cli(["validate", "--complex", out + ".cwp",
                    "--field", out + ".dvf",
                    "--function", out + ".dmf"]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_cli_inexact_compose_is_exit_2_and_writes_nothing(tmp_path, capsys):
    left = shifted_torus(tmp_path, "left", 0.0)
    right = shifted_torus(tmp_path, "right", 2.0 ** 53 - 30)
    capsys.readouterr()
    assert run_cli(["compose", "--left", left + ".tri",
                    "--left-function", left + ".dmf",
                    "--right", right + ".tri",
                    "--right-function", right + ".dmf",
                    "--out", str(tmp_path / "g2")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert 1 <= len(err) <= 5
    assert all(line.startswith("function ") for line in err)
    assert not list(tmp_path.glob("g2*"))


def test_cli_inexact_decompose_is_exit_2_and_writes_nothing(tmp_path, capsys):
    # values one float step apart leave the cone no room between them
    g2 = str(tmp_path / "g2")
    run_cli(["fixture", "genus2", "--out", g2])
    K = load_complex(g2 + ".cwp")
    f = parse_dmf((tmp_path / "g2.dmf").read_text(), K)
    f = MorseFunction({cid: 1.0 + v * 2.0 ** -52 for cid, v in f.values.items()})
    assert validate_function(K, f).ok
    (tmp_path / "g2.dmf").write_text(write_dmf(f))
    capsys.readouterr()
    assert run_cli(["decompose", "--complex", g2 + ".cwp",
                    "--function", g2 + ".dmf", "--g1", "1", "--g2", "1",
                    "--out", str(tmp_path / "dec")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert 1 <= len(err) <= 5
    assert all(line.startswith("function ") for line in err)
    assert not list(tmp_path.glob("dec*"))


def test_cli_export(tmp_path, capsys):
    t = tmp_path / "t"
    run_cli(["fixture", "torus7", "--out", str(t)])
    assert run_cli(["export", "--complex", str(t) + ".tri",
                    "--format", "dot", "--out", str(tmp_path / "t.dot")]) == 0
    assert (tmp_path / "t.dot").read_text() == write_dot(load_complex(
        str(t) + ".tri"))
    # DOT is the one format: any other is a usage error, and no file
    with pytest.raises(SystemExit) as stop:
        run_cli(["export", "--complex", str(t) + ".tri",
                 "--format", "off", "--out", str(tmp_path / "t.off")])
    assert stop.value.code == 2
    assert not (tmp_path / "t.off").exists()


def test_cli_entry_point():
    proc = subprocess.run([sys.executable, "-m", "dms.cli", "betti",
                           "--complex", "/nonexistent.tri"],
                          capture_output=True, text=True)
    assert proc.returncode == 3


def test_cli_main_reuses_its_parser(tmp_path, capsys):
    # failing calls followed by successful ones in one process give the
    # exit codes and stdout that each gives in a fresh process
    t = str(tmp_path / "t")
    argvs = [["betti"],
             ["betti", "--complex", str(tmp_path / "missing.tri")],
             ["fixture", "torus7", "--out", t],
             ["betti", "--complex", t + ".tri"]]
    here = []
    for argv in argvs:
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
        here.append((code, capsys.readouterr().out))
    assert build_parser() is build_parser()
    src = os.path.dirname(os.path.dirname(os.path.abspath(dms.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    fresh = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "dms.cli", *argv],
                              env=env, capture_output=True, text=True)
        fresh.append((proc.returncode, proc.stdout))
    assert here == fresh
    assert [code for code, _ in here] == [2, 3, 0, 0]
    assert here[3][1] == "1 2 1\n"


def test_cli_closed_stdout_is_no_parse_error(tmp_path, capsys):
    # a reader gone before the output is written (`dms critical ... |
    # head -1`) ends the command with its own status and no message; an
    # input that cannot be read stays a parse error
    t = str(tmp_path / "t")
    assert run_cli(["fixture", "torus7", "--out", t]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(dms.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dms.cli", "critical", "--complex",
             t + ".tri", "--field", t + ".dvf"],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_CLOSED_STDOUT, "")
    assert run_cli(["critical", "--complex", t + ".tri",
                    "--field", str(tmp_path / "missing.dvf")]) == 3


# the package's top level: the two operations, the structures they take
# and return, the checks and the fixtures
PUBLIC_NAMES = {
    "BettiVector", "Cell", "Complex", "GradientPath", "MorseCounts",
    "MorseFunction", "SurfaceInfo", "TubeRegion", "VectorField",
    "betti_mod2", "build_poset", "build_prism_over_boundary",
    "build_simplicial", "compose", "critical_cells", "decompose",
    "euler_characteristic", "genus_surface", "induced_field", "is_perfect",
    "make_injective", "pillow", "projective_plane6", "synthesize_function",
    "tetrahedron", "torus7", "trace_1path_tree", "trace_2path",
    "tree_cotree_field", "validate_field", "validate_function",
    "verify_closed_surface",
}


def test_the_package_exports_exactly_its_public_names():
    # adding or dropping a public name takes an edit of PUBLIC_NAMES
    names = {name for name, value in vars(dms).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES and len(names) == 32
    assert dms.decompose is dms.splitter.decompose


def test_compose_and_decompose_do_not_load_numpy():
    script = (
        "import sys\n"
        "import dms\n"
        "K, f, V = dms.genus_surface(1)\n"
        "M, fm, Vm, rep = dms.compose(K, f, K, f)\n"
        "dms.decompose(M, fm, 1, 1)\n"
        "print('numpy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dms.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_homology_compose_decompose_and_the_cli_run_without_numpy(tmp_path):
    # README: the library and every CLI command need the standard
    # library alone; a None in sys.modules makes every import of numpy
    # raise ImportError
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import dms\n"
        "from dms.cli import main\n"
        "K, f, V = dms.genus_surface(1)\n"
        "M, fm, Vm, rep = dms.compose(K, f, K, f)\n"
        "assert dms.betti_mod2(M).b == (1, 4, 1) and rep.perfect\n"
        "dms.decompose(M, fm, 1, 1)\n"
        "d = sys.argv[1]\n"
        "for argv in (\n"
        "        ['fixture', 'torus7', '--out', d + '/t'],\n"
        "        ['fixture', 'genus3', '--out', d + '/g3'],\n"
        "        ['compose', '--left', d + '/t.tri', '--left-function',\n"
        "         d + '/t.dmf', '--right', d + '/t.tri',\n"
        "         '--right-function', d + '/t.dmf', '--out', d + '/g2'],\n"
        "        ['decompose', '--complex', d + '/g2.cwp', '--function',\n"
        "         d + '/g2.dmf', '--g1', '1', '--g2', '1', '--out',\n"
        "         d + '/dec'],\n"
        "        ['validate', '--complex', d + '/dec.m1.cwp', '--field',\n"
        "         d + '/dec.m1.dvf', '--function', d + '/dec.m1.dmf'],\n"
        "        ['critical', '--complex', d + '/dec.m2.cwp', '--field',\n"
        "         d + '/dec.m2.dvf'],\n"
        "        ['export', '--complex', d + '/g2.cwp', '--format', 'dot',\n"
        "         '--out', d + '/g2.dot'],\n"
        "        ['betti', '--complex', d + '/g2.cwp']):\n"
        "    assert main(argv) == 0, argv\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dms.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1 4 1"


def test_the_library_imports_only_the_standard_library():
    # an import inside a function body, which runs only on the path that
    # reaches it, fails here as well
    pkg = os.path.dirname(os.path.abspath(dms.__file__))
    outside = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                mods = [node.module]
            else:
                continue
            outside += ["%s:%d %s" % (name, node.lineno, mod) for mod in mods
                        if mod.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
