import pytest

from hopfalg import catalog
from hopfalg.cla import CLA


@pytest.fixture(scope="session")
def A000():
    return catalog.make_A(0, 0, 0)


@pytest.fixture(scope="session")
def A100():
    return catalog.make_A(1, 0, 0)


@pytest.fixture(scope="session")
def A001():
    return catalog.make_A(0, 0, 1)


@pytest.fixture(scope="session")
def A111():
    return catalog.make_A(1, 1, 1)


@pytest.fixture(scope="session")
def B0():
    return catalog.make_B(0)


@pytest.fixture(scope="session")
def B1():
    return catalog.make_B(1)


@pytest.fixture(scope="session")
def D01():
    return catalog.make_D(0, 1, 0, 0, 0, 0, 0, 0)


@pytest.fixture(scope="session")
def E110():
    return catalog.make_E(1, 1, 0)


@pytest.fixture(scope="session")
def F010():
    return catalog.make_F(0, 1, 0)


@pytest.fixture(scope="session")
def K():
    return catalog.make_K()


@pytest.fixture(scope="session")
def several_term_clas():
    """CLAs whose kept bases have vectors of several terms, which no
    catalog entry has: delta(z) = x (x) y + y (x) x with [z, x] = x and
    [z, y] = -y, whose U(L) has the primitive z - xy, and a CLA (with
    no U(L)) whose ker delta is span(y, x1 - x2)."""
    return [CLA(["x", "y", "z"], brackets={(2, 0): {0: 1}, (2, 1): {1: -1}},
                delta={2: {(0, 1): 1, (1, 0): 1}}),
            CLA(["x1", "x2", "y"], delta={0: {(2, 2): 1}, 1: {(2, 2): 1}})]
