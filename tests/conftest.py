import sys

import pytest

from dms.cellcomplex import Complex
from dms.fixtures import (
    genus_surface,
    pillow,
    projective_plane6,
    tetrahedron,
    torus7,
    tree_cotree_field,
)
from dms.morsefield import synthesize_function


@pytest.fixture(scope="session")
def tetra():
    return tetrahedron()


@pytest.fixture(scope="session")
def torus():
    return torus7()


@pytest.fixture(scope="session")
def rp2():
    return projective_plane6()


@pytest.fixture(scope="session")
def pillow_sphere():
    return pillow()


@pytest.fixture(scope="session")
def genus2():
    return genus_surface(2)


@pytest.fixture(scope="session")
def genus3():
    return genus_surface(3)


@pytest.fixture(scope="session")
def torus_field(torus):
    return tree_cotree_field(torus)


@pytest.fixture(scope="session")
def torus_function(torus, torus_field):
    return synthesize_function(torus, torus_field)


def _rebuild(K, remove=(), add=()):
    """K.replace_cells(remove, add) done the slow way: a Complex built
    from scratch on the new cell list, in the order the edit keeps."""
    remove = set(remove)
    cells = {cid: c for cid, c in K.cells.items() if cid not in remove}
    for cell in add:
        cells[cell.id] = cell
    return Complex(cells.values())


def _assert_same_complex(K, R):
    """K and R agree in cells and their order, top dimension, every
    coface list, every 2-cell walk and both flags, and K's tables keep
    no dropped cell."""
    assert K == R and list(K.cells) == list(R.cells)
    assert K._cofaces.keys() == K.cells.keys()
    assert K._cycles.keys() == set(K.cells_of_dim(2))
    assert K.top_dim == R.top_dim
    for cid in R.cells:
        assert K.cofaces(cid) == R.cofaces(cid), cid
    for t in R.cells_of_dim(2):
        assert K.boundary_cycle(t) == R.boundary_cycle(t), t
    assert K.is_pseudomanifold == R.is_pseudomanifold
    assert K.is_closed_surface == R.is_closed_surface


@pytest.fixture(scope="session")
def rebuild():
    return _rebuild


@pytest.fixture(scope="session")
def assert_same_complex():
    return _assert_same_complex


@pytest.fixture
def spy(monkeypatch):
    """spy(fn) records the calls to fn through every dms module that
    binds it and returns the list of their argument tuples."""
    def install(fn):
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "dms" or name.startswith("dms."):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, attr, wrapper)
        return calls

    return install
