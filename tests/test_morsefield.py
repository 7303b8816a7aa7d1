import random

import pytest

from dms.cellcomplex import build_poset, build_simplicial
from dms.errors import (
    InvalidFunction,
    MissingValue,
    MultipleRoots,
    StartIsCritical,
)
from dms.fixtures import random_valid_field, tree_cotree_field
from dms.homology import betti_mod2
from dms.morsefield import (
    MorseFunction,
    VectorField,
    critical_cells,
    induced_field,
    is_perfect,
    make_injective,
    synthesize_function,
    trace_1path_tree,
    trace_2path,
    validate_field,
    validate_function,
)


def dim_function(K):
    return MorseFunction({cid: float(c.dim) for cid, c in K.cells.items()})


def test_dimension_function_is_morse(tetra, torus, pillow_sphere):
    for K in (tetra, torus, pillow_sphere):
        assert validate_function(K, dim_function(K)).ok


def test_flat_triangle_violates():
    K = build_simplicial([(0, 1, 2)], closed=False)
    values = {cid: 1.0 if c.dim == 1 else 0.0 for cid, c in K.cells.items()}
    f = MorseFunction(values)
    rep = validate_function(K, f)
    assert not rep.ok
    assert ("t0-1-2", "faces") in rep.violations


def test_missing_value(tetra):
    with pytest.raises(MissingValue):
        validate_function(tetra, MorseFunction({}))


def test_interval_complex_pairing():
    K = build_poset([("v0", 0, []), ("v1", 0, []), ("e", 1, ["v0", "v1"])])
    f = MorseFunction({"v0": 0.0, "v1": 1.0, "e": 1.0})
    V = induced_field(K, f)
    assert V.pairs() == (("v1", "e"),)
    assert V.critical(K) == ["v0"]


def test_induced_field_of_dimension_function(tetra):
    V = induced_field(tetra, dim_function(tetra))
    assert len(V) == 0
    assert critical_cells(V, tetra).m == (4, 6, 4)


def test_induced_field_rejects_invalid():
    K = build_simplicial([(0, 1, 2)], closed=False)
    bad = MorseFunction({cid: 0.0 for cid in K.cells})
    with pytest.raises(InvalidFunction):
        induced_field(K, bad)


def test_validate_field_empty_and_double(tetra):
    assert validate_field(tetra, VectorField()).ok
    V = VectorField([("e0-1", "t0-1-2"), ("e0-1", "t0-1-3")])
    rep = validate_field(tetra, V)
    assert not rep.ok
    assert any(kind == "double-match" for kind, _ in rep.issues)


def test_validate_field_catches_cycle(pillow_sphere):
    # the two squares of the pillow matched with opposite edges give a
    # closed 2-path q0 -> sqA -> q1 -> sqB -> q0
    V = VectorField([("q0", "sqA"), ("q1", "sqB")])
    rep = validate_field(pillow_sphere, V)
    assert not rep.ok
    assert rep.cycle_witness is not None
    cells = set(rep.cycle_witness)
    assert {"sqA", "sqB"} <= cells


def test_validate_field_incidence_and_dimension(tetra):
    rep = validate_field(tetra, VectorField([("v0", "t1-2-3")]))
    assert not rep.ok
    rep = validate_field(tetra, VectorField([("v0", "e1-2")]))
    assert not rep.ok


def test_critical_cells_and_perfectness(tetra, torus, torus_field):
    empty = VectorField()
    assert critical_cells(empty, tetra).m == (4, 6, 4)
    assert not is_perfect(tetra, empty)
    assert critical_cells(torus_field, torus).m == (1, 2, 1)
    assert is_perfect(torus, torus_field)


def test_two_critical_cells_means_sphere(tetra):
    # a perfect field on the tetrahedron has exactly two critical cells
    V = tree_cotree_field(tetra)
    counts = critical_cells(V, tetra)
    assert sum(counts.m) == 2
    assert betti_mod2(tetra).b == (1, 0, 1)


def test_one_path_tree(tetra, torus, torus_field):
    V = tree_cotree_field(tetra)
    tree = trace_1path_tree(tetra, V)
    assert len(tree.parent) == 3
    tree = trace_1path_tree(torus, torus_field)
    assert len(tree.parent) == 6  # |V| - 1 tree edges
    for v in tree.parent:
        cur = v
        for _ in range(10):
            if cur == tree.root:
                break
            cur = tree.parent[cur]
        assert cur == tree.root


def test_one_path_tree_multiple_roots(torus, torus_field):
    # drop one vertex-edge pair: both cells become critical
    victim = next(p for p in torus_field.pairs()
                  if torus.dim(p[0]) == 0)
    V = torus_field.replace(drop=[victim])
    with pytest.raises(MultipleRoots):
        trace_1path_tree(torus, V)


def test_trace_2path_single_step(torus, torus_field):
    crit2 = critical_cells(torus_field, torus).cells[2][0]
    pm = torus_field.partner_map()
    # a facet matched with an edge of the critical facet gives a length-1 path
    for e in torus.boundary(crit2):
        other = [t for t in torus.cofaces(e) if t != crit2][0]
        if pm.get(other) == e:
            path = trace_2path(torus, torus_field, other, crit2)
            assert path.steps == (e, other)
            break
    else:
        pytest.fail("no facet adjacent to the critical one via its pair")


def test_trace_2path_uniqueness_suite(torus, torus_field):
    crit2 = critical_cells(torus_field, torus).cells[2][0]
    for t in torus.cells_of_dim(2):
        if t == crit2:
            with pytest.raises(StartIsCritical):
                trace_2path(torus, torus_field, t, crit2)
            continue
        path = trace_2path(torus, torus_field, t, crit2)
        assert path.steps[-1] == t
        assert path.steps[0] in torus.boundary(crit2)
        # deterministic: re-run gives the identical tuple
        assert trace_2path(torus, torus_field, t, crit2).steps == path.steps


def test_synthesize_round_trip(tetra, torus, torus_field):
    for K, V in ((tetra, tree_cotree_field(tetra)), (torus, torus_field)):
        f = synthesize_function(K, V)
        assert validate_function(K, f).ok
        assert induced_field(K, f) == V


def test_synthesize_critical_value_order(torus, torus_field):
    f = synthesize_function(torus, torus_field)
    counts = critical_cells(torus_field, torus)
    vmin = f[counts.cells[0][0]]
    vmax = f[counts.cells[2][0]]
    for e in counts.cells[1]:
        assert vmin < f[e] < vmax


@pytest.mark.parametrize("seed", range(25))
def test_round_trip_random_fields(torus, seed):
    V = random_valid_field(torus, seed)
    assert validate_field(torus, V).ok
    f = synthesize_function(torus, V)
    assert induced_field(torus, f) == V


@pytest.mark.parametrize("seed", range(25))
def test_round_trip_random_fields_genus2(genus2, seed):
    K = genus2[0]
    V = random_valid_field(K, seed)
    f = synthesize_function(K, V)
    assert induced_field(K, f) == V


def test_make_injective(tetra, torus, torus_field):
    f = dim_function(tetra)
    g = make_injective(tetra, f)
    vals = list(g.values.values())
    assert len(set(vals)) == len(vals)
    for e in tetra.cells_of_dim(1):
        for v in tetra.boundary(e):
            assert g[v] < g[e]
    assert induced_field(tetra, g) == induced_field(tetra, f)

    f2 = synthesize_function(torus, torus_field)
    g2 = make_injective(torus, f2)
    assert len(set(g2.values.values())) == len(g2.values)
    assert induced_field(torus, g2) == torus_field
    for a, b in torus_field.pairs():
        assert g2[a] > g2[b]  # pair values become strict


def test_morse_inequalities(tetra, torus, genus2):
    for K, V in ((tetra, tree_cotree_field(tetra)),
                 (torus, tree_cotree_field(torus)),
                 (genus2[0], genus2[2])):
        m = critical_cells(V, K).m
        b = betti_mod2(K).b
        assert all(mp >= bp for mp, bp in zip(m, b))
        assert sum((-1) ** p * mp for p, mp in enumerate(m)) \
            == sum((-1) ** p * bp for p, bp in enumerate(b))


@pytest.mark.parametrize("seed", range(20))
def test_replace_matches_a_sorted_rebuild(torus, seed):
    # drops may miss, repeat, or hit duplicated pairs; adds may repeat
    rng = random.Random(seed)
    cells = sorted(torus.cells)
    pairs = [tuple(rng.sample(cells, 2)) for _ in range(rng.randrange(30))]
    pairs += rng.sample(pairs, min(len(pairs), 5))
    V = VectorField(pairs)
    drop = rng.sample(pairs, rng.randrange(len(pairs) + 1))
    drop += [tuple(rng.sample(cells, 2)) for _ in range(3)] + drop[:2]
    add = [tuple(rng.sample(cells, 2)) for _ in range(rng.randrange(6))]
    add += add[:1] + rng.sample(pairs, min(len(pairs), 2))
    dropped = set(drop)
    rebuilt = VectorField([p for p in V.pairs() if p not in dropped] + add)
    out = V.replace(drop=drop, add=add)
    assert out.pairs() == rebuilt.pairs()
    assert V.pairs() == VectorField(pairs).pairs()  # V is unchanged
