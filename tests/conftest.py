import os
from pathlib import Path

import pytest

import isodual as iso
from isodual.errors import SingularCurve

# Child processes started by the CLI tests import the package the tests
# import, also when it is not installed.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(iso.__file__).resolve().parents[1]),
                  os.environ.get("PYTHONPATH")]))


def nonsingular_curves(p, count):
    """First `count` nonsingular curves over F_p in lexicographic (a, b) order."""
    F = iso.make_field(p)
    out = []
    for code in range(p * p):
        a, b = code % p, code // p
        try:
            out.append(iso.Curve(F, a, b))
        except SingularCurve:
            continue
        if len(out) == count:
            break
    return out


def cyclic_subgroups(E, orders, points=None):
    """Distinct cyclic subgroups of E(F_q) whose order lies in `orders`."""
    pts = points if points is not None else iso.enumerate_points(E)
    seen = {}
    for P in pts:
        if iso.point_order(P) in orders:
            G = iso.subgroup_from_generator(P)
            seen.setdefault(G.point_set(), G)
    return list(seen.values())


def find_curves_by_trace(p):
    """(ordinary, supersingular) curves over F_p, found by the enumeration
    oracle: supersingular iff #E(F_p) = p + 1."""
    ordinary = supersingular = None
    for E in nonsingular_curves(p, p * p):
        n = len(iso.enumerate_points(E))
        if n == p + 1 and supersingular is None:
            supersingular = E
        elif n != p + 1 and ordinary is None:
            ordinary = E
        if ordinary is not None and supersingular is not None:
            return ordinary, supersingular
    raise AssertionError(f"could not find both curve types over F_{p}")


@pytest.fixture(scope="session")
def e_f5():
    """The degree-2 fixture curve y^2 = x^3 + x over F_5."""
    return iso.Curve(iso.make_field(5), 1, 0)


@pytest.fixture(scope="session")
def e_f5_ss():
    """Supersingular y^2 = x^3 + 1 over F_5 (6 = p + 1 points)."""
    return iso.Curve(iso.make_field(5), 0, 1)
