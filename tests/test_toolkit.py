import json
import os
import subprocess
import sys

import pytest

import dms
from dms.cellcomplex import build_simplicial, euler_characteristic
from dms.cli import main
from dms.errors import Disconnected, ParseError, UnknownFixture
from dms.fixtures import (
    fixture_complex,
    genus_surface,
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
    write_off,
    write_tri,
)
from dms.homology import betti_mod2
from dms.morsefield import (
    critical_cells,
    is_perfect,
    synthesize_function,
    validate_field,
)


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


@pytest.mark.parametrize("text", ["nan", "-inf", "inf", "NaN", "1e999"])
def test_parse_dmf_rejects_non_finite_values(torus, text):
    lines = "val v0 0.0\nval v1 %s\n" % text
    with pytest.raises(ParseError, match="line 2: value %r is not finite"
                       % text):
        parse_dmf(lines, torus)


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


@pytest.mark.parametrize("kind", ["torus", "genusx", "genus-1"])
def test_unknown_fixture_kinds_raise_a_dms_error(kind):
    with pytest.raises(UnknownFixture):
        fixture_complex(kind)


def test_off_and_dot(torus):
    off = write_off(torus)
    header, counts = off.splitlines()[:2]
    assert header == "OFF"
    assert counts.split() == ["7", "14", "21"]
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


def test_cli_validate_ok(tmp_path, capsys):
    out = tmp_path / "t"
    run_cli(["fixture", "torus7", "--out", str(out)])
    code = run_cli(["validate", "--complex", str(out) + ".tri",
                    "--field", str(out) + ".dvf",
                    "--function", str(out) + ".dmf"])
    assert code == 0


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


@pytest.mark.parametrize("kind", ["torus", "genusx", "genus-1"])
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


def test_cli_export(tmp_path, capsys):
    t = tmp_path / "t"
    run_cli(["fixture", "torus7", "--out", str(t)])
    assert run_cli(["export", "--complex", str(t) + ".tri",
                    "--format", "off", "--out", str(tmp_path / "t.off")]) == 0
    assert run_cli(["export", "--complex", str(t) + ".tri",
                    "--format", "dot", "--out", str(tmp_path / "t.dot")]) == 0
    assert (tmp_path / "t.off").read_text().startswith("OFF")


def test_cli_entry_point():
    proc = subprocess.run([sys.executable, "-m", "dms.cli", "betti",
                           "--complex", "/nonexistent.tri"],
                          capture_output=True, text=True)
    assert proc.returncode == 3


def test_compose_and_decompose_do_not_load_numpy():
    # numpy serves only boundary_matrix_mod2 and the OFF layout
    script = (
        "import sys\n"
        "import dms\n"
        "from dms.splitter import decompose\n"
        "K, f, V = dms.genus_surface(1)\n"
        "M, fm, Vm, rep = dms.compose(K, f, K, f)\n"
        "decompose(M, fm, 1, 1)\n"
        "print('numpy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dms.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
