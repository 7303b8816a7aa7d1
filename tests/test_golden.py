"""Golden digests of the library's written outputs.

Each digest is sha256 over CWP/DVF/DMF texts (or, for a refused input,
the exception name), so any change to ids, tie-breaking or pairing in
compose, decompose or the CLI shows up here.  The expected values were
recorded before the graph helpers were folded into `dms.cellcomplex`;
a deliberate output change must update them and say why.
"""

import hashlib
import random

from dms.cli import main
from dms.errors import DmsError
from dms.fixtures import genus_surface, torus7, tree_cotree_field
from dms.formats import write_cwp, write_dmf, write_dvf
from dms.morsefield import synthesize_function
from dms.splitter import decompose
from dms.surgery import compose


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _surface_texts(K, V, f):
    return [write_cwp(K), write_dvf(V, K), write_dmf(f)]


def _seeded_torus(seed):
    T = torus7()
    return T, synthesize_function(T, tree_cotree_field(
        T, rng=random.Random(seed)))


def test_golden_compose_chain():
    K, f = _seeded_torus(100)
    texts = []
    for seed in (101, 102, 103):
        T, ft = _seeded_torus(seed)
        K, f, V, _ = compose(K, f, T, ft)
        texts += _surface_texts(K, V, f)
    assert _digest(texts) == (
        "5ccd81768ee4fb71b55b74afb3e6bc1f050c1a567e624af993d62d0fb35ef29f")


def test_golden_decompose_genus4_fields():
    K = genus_surface(4)[0]
    texts = []
    for seed in range(9):
        V = tree_cotree_field(K, rng=random.Random(seed))
        f = synthesize_function(K, V)
        g1 = 1 + seed % 3
        try:
            res = decompose(K, f, g1, 4 - g1)
        except DmsError as err:
            texts.append(type(err).__name__)
            continue
        texts += _surface_texts(res.m1_complex, res.m1_field,
                                res.m1_function)
        texts += _surface_texts(res.m2_complex, res.m2_field,
                                res.m2_function)
        texts.append(" ".join(res.circle))
    assert "NotSeparating" in texts
    assert _digest(texts) == (
        "518497c75d88c87b08cf0379af573f2bcf6909b194a79a3c2abf0507ffe2ce43")


def test_golden_cli_roundtrip(tmp_path, capsys):
    d = str(tmp_path)
    assert main(["fixture", "torus7", "--out", d + "/t"]) == 0
    assert main(["fixture", "genus2", "--out", d + "/g2"]) == 0
    assert main(["compose", "--left", d + "/g2.cwp",
                 "--left-function", d + "/g2.dmf",
                 "--right", d + "/t.tri", "--right-function", d + "/t.dmf",
                 "--out", d + "/g3"]) == 0
    assert main(["decompose", "--complex", d + "/g3.cwp",
                 "--function", d + "/g3.dmf", "--g1", "2", "--g2", "1",
                 "--out", d + "/dec"]) == 0
    capsys.readouterr()
    names = ["g3.cwp", "g3.dvf", "g3.dmf"] + [
        "dec.%s.%s" % (m, ext) for m in ("m1", "m2")
        for ext in ("cwp", "dvf", "dmf")] + ["dec.circle.txt",
                                             "dec.report.json"]
    texts = [(tmp_path / name).read_text(encoding="utf-8") for name in names]
    assert _digest(texts) == (
        "1a654f3bce19d92885da619b8e9bafa3ef22148e320947f8be19575440934058")
