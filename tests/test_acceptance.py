"""Acceptance suite: one test per criterion, exact checks, desk scale.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All comparisons are exact; the two timed runs must finish
inside their stated budgets.
"""

import random
import time
from itertools import combinations

import pytest

from dms.cellcomplex import build_simplicial, euler_characteristic, \
    verify_closed_surface
from dms.fixtures import (
    genus_surface,
    random_valid_field,
    tetrahedron,
    torus7,
    tree_cotree_field,
)
from dms.homology import betti_mod2
from dms.morsefield import (
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
from dms.splitter import decompose, find_separating_circle, \
    split_along_circle, _boundary_and_interior
from dms.surgery import bisect_2cell, bisect_edge, compose


def report(criterion, ok):
    print("\nACCEPTANCE %-38s %s" % (criterion, "PASS" if ok else "FAIL"))
    assert ok, criterion


@pytest.fixture(scope="module")
def composed_tori():
    A, B = torus7(), torus7()
    fa = synthesize_function(A, tree_cotree_field(A))
    fb = synthesize_function(B, tree_cotree_field(B))
    t0 = time.perf_counter()
    M, f, V, rep = compose(A, fa, B, fb)
    elapsed = time.perf_counter() - t0
    return M, f, V, rep, elapsed


def suite_fields():
    """Every kind of (complex, field) pair the suite works with:
    fixture fields, independent tree-cotree fields, randomized valid
    fields, and the decomposed pieces of the composed surface."""
    out = []
    for g in (0, 1, 2, 3):
        K, f, V = genus_surface(g)
        out.append((("genus%d" % g), K, V))
        out.append((("genus%d-tc" % g), K, tree_cotree_field(K)))
    T = torus7()
    for seed in range(5):
        out.append(("rand%d" % seed, T, random_valid_field(T, seed)))
    G2 = genus_surface(2)
    res = decompose(G2[0], G2[1], 1, 1)
    out.append(("piece-m1", res.m1_complex, res.m1_field))
    out.append(("piece-m2", res.m2_complex, res.m2_field))
    return out


def test_criterion_01_homology_oracle(genus2):
    ok = betti_mod2(tetrahedron()).b == (1, 0, 1) \
        and betti_mod2(torus7()).b == (1, 2, 1) \
        and betti_mod2(genus2[0]).b == (1, 4, 1)
    report("1 homology oracle", ok)


def test_criterion_02_perfectness_witnesses():
    ok = True
    for g in (0, 1, 2, 3):
        K, f, V = genus_surface(g)
        for field in (V, tree_cotree_field(K)):
            rep = validate_field(K, field)
            ok = ok and rep.ok and rep.cycle_witness is None
            ok = ok and is_perfect(K, field)
            ok = ok and critical_cells(field, K).m == (1, 2 * g, 1)
    report("2 perfectness witnesses", ok)


def test_criterion_03_composition(composed_tori):
    M, f, V, rep, elapsed = composed_tori
    C = rep.constant
    ok = M.is_pseudomanifold and M.is_closed_surface
    ok = ok and euler_characteristic(M) == -2
    ok = ok and critical_cells(V, M).m == (1, 4, 1)
    ok = ok and is_perfect(M, V)
    ok = ok and validate_function(M, f).ok
    # formula structure: tube cells over tau carry f1(tau) + C/2, the
    # first summand stays strictly below C - 2 = f1(alpha), the second
    # sits at f2 + C, i.e. at or above C
    for cid in M.cells:
        if cid.startswith("tube:") and cid.endswith(":top"):
            base = cid[len("tube:"):-len(":top")]
            prism = "tube:%s:prism" % base
            ok = ok and f[cid] == f[base] + C / 2.0
            ok = ok and f[prism] == f[cid]
    m1_plain = [cid for cid in M.cells
                if cid.startswith("m1:") and "~b" not in cid]
    m2_plain = [cid for cid in M.cells
                if cid.startswith("m2:") or cid.startswith("inner:m2:")]
    ok = ok and m1_plain and m2_plain
    ok = ok and max(f[c] for c in m1_plain) < C - 2.0 + 1e-12
    ok = ok and min(f[c] for c in m2_plain) >= C
    ok = ok and induced_field(M, f) == V
    ok = ok and elapsed < 1.0
    report("3 composition (chi, m, formula, <1s)", ok)


def test_criterion_04_morse_inequalities(genus2, genus3):
    ok = True
    for name, K, V in suite_fields():
        m = critical_cells(V, K).m
        b = betti_mod2(K).b
        ok = ok and all(mp >= bp for mp, bp in zip(m, b))
        ok = ok and sum((-1) ** p * mp for p, mp in enumerate(m)) \
            == euler_characteristic(K)
    report("4 Morse inequalities", ok)


def test_criterion_05_path_structure():
    ok = True
    for g in (0, 1, 2, 3):
        K, f, V = genus_surface(g)
        tree = trace_1path_tree(K, V)
        verts = K.cells_of_dim(0)
        ok = ok and len(tree.parent) == len(verts) - 1
        for v in tree.parent:
            cur, steps = v, 0
            while cur != tree.root and steps <= len(verts):
                cur = tree.parent[cur]
                steps += 1
            ok = ok and cur == tree.root
        crit2 = critical_cells(V, K).cells[2][0]
        for t in K.cells_of_dim(2):
            if t == crit2:
                continue
            path = trace_2path(K, V, t, crit2)
            ok = ok and path.steps[-1] == t
            ok = ok and path.steps == trace_2path(K, V, t, crit2).steps
    report("5 path structure (1-path tree, unique 2-paths)", ok)


def test_criterion_06_boundary_condition(genus2, genus3):
    ok = True
    for (K, f, V), (g1, g2) in (((genus2), (1, 1)), ((genus3), (1, 2))):
        K2, V2, circle, region = find_separating_circle(K, f, g1, g2)
        split = split_along_circle(K2, V2, circle, region.facets)
        pm = split.max_field.partner_map()
        n = sum(1 for v in circle[0::2] if v not in pm)
        m = sum(1 for e in circle[1::2] if e not in pm)
        ok = ok and n == m
        ok = ok and euler_characteristic(split.min_complex) == 1 - 2 * g1
        ok = ok and euler_characteristic(split.max_complex) == 1 - 2 * g2
    report("6 boundary condition (n = m, chi = 1-2g)", ok)


def test_criterion_07_decomposition(composed_tori):
    M, f, V, rep, _ = composed_tori
    t0 = time.perf_counter()
    res = decompose(M, f, 1, 1)
    elapsed = time.perf_counter() - t0
    ok = res.report["chi"] == {"m1": 0, "m2": 0}
    ok = ok and res.report["perfect"] == {"m1": True, "m2": True}
    ok = ok and res.report["morseCounts"] == {"m1": (1, 2, 1),
                                              "m2": (1, 2, 1)}
    for cx in (res.m1_complex, res.m2_complex):
        ok = ok and cx.is_closed_surface
    # no-inward-arrow invariant, cell by cell, at the final circle
    K2, V2, circle, region = find_separating_circle(M, f, 1, 1)
    pm = V2.partner_map()
    _, interior = _boundary_and_interior(K2, region.facets)
    for x in circle[0::2]:
        p = pm.get(x)
        ok = ok and p is not None
        if K2.dim(p) == 1:
            ok = ok and not (p in interior and p not in region.path_edges
                             and p not in region.high_edges)
    for e in circle[1::2]:
        p = pm.get(e)
        ok = ok and p is not None
        if p is not None and K2.dim(p) == 2:
            ok = ok and p not in region.facets
    ok = ok and elapsed < 5.0
    report("7 decomposition (tori, invariant, <5s)", ok)


def test_criterion_08_genus_additivity():
    ok = True
    for g1, g2 in ((1, 1), (1, 2), (2, 1)):
        K1, f1, _ = genus_surface(g1)
        K2, f2, _ = genus_surface(g2)
        M, f, V, rep = compose(K1, f1, K2, f2)
        res = decompose(M, f, g1, g2)
        ok = ok and res.report["chi"] == {"m1": 2 - 2 * g1, "m2": 2 - 2 * g2}
        ok = ok and res.report["perfect"] == {"m1": True, "m2": True}
    report("8 round-trip genus additivity", ok)


def test_criterion_09_surgery_neutrality():
    rng = random.Random(20260808)
    g2 = genus_surface(2)
    complexes = [tetrahedron(), torus7(), g2[0]]
    fields = [tree_cotree_field(complexes[0]),
              tree_cotree_field(complexes[1]), g2[2]]
    ok = True
    done = 0
    while done < 500:
        i = rng.randrange(3)
        K, V = complexes[i], fields[i]
        m0 = critical_cells(V, K).m
        if rng.random() < 0.5:
            K, V, _ = bisect_edge(K, V, rng.choice(K.cells_of_dim(1)))
        else:
            t = rng.choice(K.cells_of_dim(2))
            cyc = K.boundary_cycle(t)
            verts = list(cyc[0::2])
            edges = set(cyc[1::2])
            legal = [(u, w) for u, w in combinations(verts, 2)
                     if not any(K.boundary(e) == frozenset({u, w})
                                for e in edges)]
            if not legal:
                continue
            u, w = rng.choice(legal)
            K, V, _ = bisect_2cell(K, V, t, u, w)
        done += 1
        ok = ok and validate_field(K, V).ok
        ok = ok and critical_cells(V, K).m == m0
        complexes[i], fields[i] = K, V
        if not ok:
            break
    report("9 surgery neutrality (500 bisections)", ok and done == 500)


def test_criterion_10_function_field_equivalence():
    ok = True
    for name, K, V in suite_fields():
        f = synthesize_function(K, V)
        ok = ok and induced_field(K, f) == V
        g = make_injective(K, f)
        ok = ok and induced_field(K, g) == induced_field(K, f)
    report("10 function/field equivalence", ok)
