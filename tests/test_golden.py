"""Golden digests of the library's written outputs.

Each digest is sha256 over CWP/DVF/DMF texts (or, for a refused input,
the exception name), so any change to ids, tie-breaking or pairing in
compose, decompose or the CLI shows up here.  A deliberate output change
must update them and say why.  The digests of surfaces compose builds
were last recorded when compose began to take its beta off the second
summand's critical triangle, which moved every such surface, their rank
digests included.  The decompose goldens, the splitter sweep and the
decompose rank digests read surfaces frozen before that change
(frozen_surface in conftest.py), and did not move.

The compose chain, the CLI round trip and the decompose goldens pin
their complexes and fields (CWP, DVF and the texts derived from them)
apart from their functions (DMF), so a change to the values alone shows
which of the two moved.  When decompose began to carry its input's
function through its cuts and caps instead of synthesizing the pieces'
functions, only its DMF digests (and its report, which lost the
`functionsSynthesized` key) were recorded again; its structure digests
were recorded before that change and still hold.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from dms.cellcomplex import build_poset
from dms.cli import main
from dms.errors import DmsError
from dms.fixtures import (
    genus_surface,
    random_valid_field,
    tetrahedron,
    torus7,
    tree_cotree_field,
)
from dms.formats import write_cwp, write_dmf, write_dvf
from dms.morsefield import (
    MorseFunction,
    VectorField,
    induced_field,
    synthesize_function,
    validate_function,
)
from dms.splitter import decompose
from dms import surgery
from dms.surgery import build_prism_over_boundary, compose

from conftest import INSEPARABLE_SEEDS, _sphere3, frozen_surface, separated


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
    structure, functions = [], []
    for seed in (101, 102, 103):
        T, ft = _seeded_torus(seed)
        K, f, V, _ = compose(K, f, T, ft)
        structure += [write_cwp(K), write_dvf(V, K)]
        functions.append(write_dmf(f))
    assert _digest(structure) == (
        "15951f61726fabc51b97de2b7d78c70552d515973181a39be4ac74b1d69b95a2")
    assert _digest(functions) == (
        "d38c9e23827d4393f676fbec9afc4cf3416966ff60108d9158c7b6d533adb409")


def test_golden_genus32_surface():
    # 31 chained links, each gluing a triangle
    K, f, V = genus_surface(32)
    assert _digest([write_cwp(K), write_dvf(V, K)]) == (
        "a2c26b816d84910d67532872c23b618dbd2ff182fcdb505850e8c7682fe14478")
    assert _digest([write_dmf(f)]) == (
        "3b435e13323982b29063c5c7835123c66f3948b235b9599a0a62fad89a1f6110")


def test_golden_genus40_surface_and_its_balanced_decompose():
    # the first golden past 2^40: the chain ranks its left values densely
    # once (_dense_ranks), which genus_surface(32) never does
    K, f, V = genus_surface(40)
    assert _digest([write_cwp(K), write_dvf(V, K)]) == (
        "b660d8b21295363298693d37d2eec7132abfdb27097f62bb80eb43560ed1b4af")
    assert _digest([write_dmf(f)]) == (
        "bf53e42fbbb8e1802e5583155e9790f7602a28c3c17bcc848518c7722b3ef01b")
    res = decompose(K, f, 20, 20)
    texts, functions = [], []
    for P, W, g in ((res.m1_complex, res.m1_field, res.m1_function),
                    (res.m2_complex, res.m2_field, res.m2_function)):
        texts += [write_cwp(P), write_dvf(W, P)]
        functions.append(write_dmf(g))
    texts.append(" ".join(res.circle))
    assert _digest(texts) == (
        "7451bc9c8606de46db48cb2d78e52f16c82ae0feede29d833a4de05def0a9ae0")
    assert _digest(functions) == (
        "ba71acd05588b434104f7fc5f4fc4abc5ae288d07314842ea2125b181215f27d")


def test_golden_decompose_genus4_fields():
    K = frozen_surface(4)
    texts, functions = [], []
    for seed in range(9):
        V = tree_cotree_field(K, rng=random.Random(seed))
        f = synthesize_function(K, V)
        g1 = 1 + seed % 3
        try:
            res = decompose(K, f, g1, 4 - g1)
        except DmsError as err:
            texts.append(type(err).__name__)
            continue
        for P, W, g in ((res.m1_complex, res.m1_field, res.m1_function),
                        (res.m2_complex, res.m2_field, res.m2_function)):
            texts += [write_cwp(P), write_dvf(W, P)]
            functions.append(write_dmf(g))
        texts.append(" ".join(res.circle))
    assert "NotSeparating" in texts
    assert _digest(texts) == (
        "1840c26d8dd5fc17be8a99f4bfa3456399f1da5fd4e2acc3ac96096ec63ffa5f")
    assert _digest(functions) == (
        "1e0ed854b9de8d5072ae8846cb3584c9abc0a99b3b0c02090bd74c24780b2f93")


@pytest.fixture(scope="module")
def splitter_sweep(glued_genus2, random_root_field):
    """The texts of 546 cases of the splitter, and the decompose results
    among them: decompose of frozen_surface(2..6) under 24 tree-cotree
    and 24 random-root fields each, of the glued genus-2 surface after
    20, 60 and 200 seeded flips under 8 fields of each kind, and the
    separation under random_valid_field on the tetrahedron,
    torus7 and frozen_surface(2), less the fields it cannot separate.  A
    refused case gives its error's name and args, and is counted by
    name.  The pieces' functions (DMF) are kept apart from the other
    texts, and each result with its input (K, f, g1, g2)."""
    fields = [lambda K, s: tree_cotree_field(K, rng=random.Random(s)),
              random_root_field]
    cases = []
    for g in range(2, 7):
        K = frozen_surface(g)
        cases += [(K, field(K, seed), 1 + seed % (g - 1),
                   g - 1 - seed % (g - 1))
                  for field in fields for seed in range(24)]
    for flips in (20, 60, 200):
        for flip_seed in range(4):
            K = glued_genus2(flips, flip_seed)
            cases += [(K, field(K, seed), 1, 1)
                      for field in fields for seed in range(8)]
    texts, functions, results, refusals = [], [], [], Counter()

    def refuse(err):
        texts.append("%s %r" % (type(err).__name__, err.args))
        refusals[type(err).__name__] += 1

    for K, V, g1, g2 in cases:
        f = synthesize_function(K, V)
        try:
            res = decompose(K, f, g1, g2)
        except DmsError as err:
            refuse(err)
            continue
        results.append((res, (K, f, g1, g2)))
        for P, W, g in ((res.m1_complex, res.m1_field, res.m1_function),
                        (res.m2_complex, res.m2_field, res.m2_function)):
            texts += [write_cwp(P), write_dvf(W, P)]
            functions.append(write_dmf(g))
        texts.append(" ".join(res.circle))
    for name, K in (("tetrahedron", tetrahedron()), ("torus7", torus7()),
                    ("genus2", frozen_surface(2))):
        for seed in range(40):
            if (name, seed) in INSEPARABLE_SEEDS:
                continue
            try:
                K2, V2, _ = separated(K, random_valid_field(K, seed))
            except DmsError as err:
                refuse(err)
                continue
            texts += [write_cwp(K2), write_dvf(V2, K2)]
    return texts, functions, results, refusals


def test_golden_splitter_sweep(splitter_sweep):
    texts, functions, results, refusals = splitter_sweep
    # 367 decomposes and 114 separations succeed
    assert len(results) == 367
    assert refusals == {"NotSeparating": 64, "BoundaryCriticalPresent": 1}
    assert _digest(texts) == (
        "879c5000b4732174e9299c5230d4647db05f5aa7e7191371313d5e617c0368e8")
    assert _digest(functions) == (
        "0d10f732b7eade6d3c5a44f61f5d45068a0f8b237e10ebc18b2ff4b0f531cad0")


def test_min_cap_pairs_every_cone_cell_but_the_apex(splitter_sweep):
    # the min cone's fan pairing matches each radial edge and each cone
    # triangle exactly once, whatever the piece's matching on the circle
    for res, _ in splitter_sweep[2]:
        K, V = res.m2_complex, res.m2_field
        cone = sorted(cid for cid in K.cells if cid.startswith("cone:"))
        pm = V.partner_map()
        assert [cid for cid in cone if cid not in pm] == ["cone:apex"]


def test_pieces_carry_the_input_function(splitter_sweep):
    # each piece's function is valid, induces the piece's field, and is f
    # on every cell of the input that kept its faces; a cell of the input
    # that lost one lies on a cut, and a cut may only raise such a cell
    for res, (K, f, g1, g2) in splitter_sweep[2]:
        for P, W, g in ((res.m1_complex, res.m1_field, res.m1_function),
                        (res.m2_complex, res.m2_field, res.m2_function)):
            assert validate_function(P, g).ok
            assert induced_field(P, g) == W
            assert g.values.keys() == P.cells.keys()
            for cid, cell in P.cells.items():
                if cid not in K.cells:
                    assert "~b" in cid or cid.startswith("cone:")
                elif cell.boundary == K.cells[cid].boundary:
                    assert g[cid] == f[cid]
                elif g[cid] != f[cid]:
                    assert cell.dim == 2 and g[cid] > f[cid]


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
    texts = {name: (tmp_path / name).read_text(encoding="utf-8")
             for name in names}
    assert _digest([text for name, text in texts.items()
                    if not name.endswith((".dmf", ".json"))]) == (
        "afe04bab3c79261be5bee5805e4ff8751ab4f608b54566d7867b0f5a0eeb793c")
    assert _digest([texts["g3.dmf"]]) == (
        "5906c57c0baac84611a9c953df65ca6145d2c5c6768d7b221618d05c46c49b9a")
    assert _digest([text for name, text in texts.items()
                    if name.startswith("dec.")
                    and name.endswith((".dmf", ".json"))]) == (
        "4044fbbe75f57afc2091ac18e8ac3156b9d49762a7d9f32c5089f35da8b6bde4")


# --- rank digests ------------------------------------------------------------
#
# The digests below hash each output with every id replaced by its rank
# in the sorted ids of its complex, so they pin every decision that
# sorted ids drive (pairings, tie-breaks, which cell is cut or glued)
# while the ids themselves may change under an order-preserving
# renaming.  The decompose ones were recorded before compose stopped
# renaming its left summand on every link of a chain, and held through
# that change.


def _ranks(K):
    return {cid: "%06d" % i for i, cid in enumerate(sorted(K.cells))}


def _ranked_texts(K, V, f):
    rank = _ranks(K)
    R = build_poset([(rank[cid], dim, [rank[x] for x in bnd])
                     for cid, dim, bnd in K.records()])
    W = VectorField([(rank[a], rank[b]) for a, b in V.pairs()])
    g = MorseFunction({rank[cid]: val for cid, val in f.values.items()})
    return [write_cwp(R), write_dvf(W, R), write_dmf(g)]


def _ranked_decompose_texts(res):
    texts = _ranked_texts(res.m1_complex, res.m1_field, res.m1_function)
    texts += _ranked_texts(res.m2_complex, res.m2_field, res.m2_function)
    rank = _ranks(res.m1_complex)
    texts.append(" ".join(rank[cid] for cid in res.circle))
    texts.append(json.dumps(res.report, sort_keys=True))
    return texts


GENUS_RANK_DIGESTS = {
    2: "8e8c6d6b78d28d74a3f379e9e77e9abb80a4f720003bfcec538b67af4e98bb0f",
    3: "bc680bad3f70f9bdd17d2a66245262a11176a1fe6ef5238b77016cb82eed2f42",
    6: "98fa8072c6c773096063742ecbaa5cf5b9a8238519fee7051335270116dc4a97",
    16: "da0d4e8661ad4ee13890f700ce257c14cd5c8056c98cacf81ad0b8dfaa574fb2",
    32: "33c5d69ec1c340daabc41322f37af42fe81344f40d9ef34b5db7d7c06ce27320",
}


@pytest.mark.parametrize("g", sorted(GENUS_RANK_DIGESTS))
def test_rank_digest_genus_surface(g):
    K, f, V = genus_surface(g)
    assert _digest(_ranked_texts(K, V, f)) == GENUS_RANK_DIGESTS[g]


def test_rank_digest_compose_chain():
    K, f = _seeded_torus(100)
    texts = []
    for seed in (101, 102, 103):
        K, f, V, _ = compose(K, f, *_seeded_torus(seed))
        texts += _ranked_texts(K, V, f)
    assert _digest(texts) == (
        "f4a8122e0a7cff7a4d11946f87ec7c4100e9d7e328d5a1c5a523d8367f90fb3b")


# the ranked CWP and DVF of both pieces and the circle, apart from the
# ranked DMF and the report
DECOMPOSE_RANK_STRUCTURE_DIGESTS = {
    4: "086865716de165bbdb1bd2fca80a1db132c1a1592692fdb9a669dd7d6fe0ad58",
    6: "c6e304d654fba91c8d17472dcc9eb8ff8d5938674359676c3da5c881c234a671",
}
DECOMPOSE_RANK_DIGESTS = {
    4: "98b4789d114f986c455b9ad9a8225fcf65ccaa9c806e68694a728962e414fbd5",
    6: "2e5bf9dd29122db8f72939505030899718d5e6a28f4854bf25f712ccd314847b",
}


@pytest.mark.parametrize("g", sorted(DECOMPOSE_RANK_DIGESTS))
def test_rank_digest_decompose(g):
    K = frozen_surface(g)
    texts, structure = [], []
    for seed in range(60):
        V = tree_cotree_field(K, rng=random.Random(seed))
        f = synthesize_function(K, V)
        g1 = 1 + seed % (g - 1)
        try:
            res = decompose(K, f, g1, g - g1)
        except DmsError as err:
            texts.append(type(err).__name__)
            structure.append(type(err).__name__)
            continue
        ranked = _ranked_decompose_texts(res)
        texts += ranked
        structure += [ranked[i] for i in (0, 1, 3, 4, 6)]
    assert _digest(structure) == DECOMPOSE_RANK_STRUCTURE_DIGESTS[g]
    assert _digest(texts) == DECOMPOSE_RANK_DIGESTS[g]


def test_golden_first_compose_of_raw_inputs():
    # a left that compose did not make is prefixed `m1:` once, so the
    # first link from raw inputs keeps its bytes, ids included
    K, f, V = genus_surface(2)
    texts = _surface_texts(K, V, f)
    M, g, W, _ = compose(*_seeded_torus(100), *_seeded_torus(101))
    texts += _surface_texts(M, W, g)
    assert _digest(texts) == (
        "13691b0f2d5d7920153dc302fbb6ba54e6be42066903ec5bd839a84976e915fb")


# the tube over each top cell's boundary, under the first link's prefix
# and a chain's stamp, and the shrink of each top cell at each of its
# vertices: the new cells in the order they are made, the maps, and the
# shrunken complex's tables with its cells in insertion order
TUBE_AND_SHRINK_DIGESTS = {
    "torus7": "91fd98080c308f48b136b50a2a5195f6124bb4146007ec597c82ba6f8ed846e2",
    "tetrahedron":
        "2bd251a778f5310545351f7c47ec510b68c3924c5cb122d46d0e43e226cfc7ca",
    "sphere3": "f44e2537b16434901fdbeb8f73b0485575028c6cfd19aa399c004e32b5965083",
}


@pytest.mark.parametrize("name", sorted(TUBE_AND_SHRINK_DIGESTS))
def test_golden_tube_and_shrink(name):
    K = {"torus7": torus7, "tetrahedron": tetrahedron,
         "sphere3": _sphere3}[name]()
    texts = []
    for alpha in sorted(c for c in K.cells if K.dim(c) == K.top_dim):
        for prefix in ("tube:", "ua2t:"):
            tube = build_prism_over_boundary(K, alpha, prefix)
            texts.append(repr((
                tube.base_cells,
                [(c.id, c.dim, sorted(c.boundary)) for c in tube.new_cells],
                sorted(tube.top.items()), sorted(tube.prism.items()))))
        for v in K.vertices_of(alpha):
            ic = surgery._shrink_closed_star(K._draft(), alpha, v)
            J = ic.complex
            texts.append(repr((
                list(J.cells), J.records(), sorted(J.coface_table.items()),
                sorted(J._cycles.items()), J.counts(), ic.beta_prime,
                sorted(ic.correspondence.items()))))
    assert _digest(texts) == TUBE_AND_SHRINK_DIGESTS[name]
