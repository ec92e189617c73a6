"""The input contract: sizes, vectors and vertex sets, checked in one place."""

from fractions import Fraction

import pytest

from chromaplex.errors import malformed, natural, vector, vertex_set

# none of these is an int by type: a bool, a float, a string, a Fraction
NON_INTEGERS = (True, 1.5, "1", Fraction(1))


def test_natural():
    assert natural(0, "k") == 0
    assert natural(7, "k") == 7
    for bad in NON_INTEGERS:
        with pytest.raises(ValueError, match="k must be integers"):
            natural(bad, "k")
    with pytest.raises(ValueError, match="k must be >= 0"):
        natural(-1, "k")


def test_vector():
    assert vector([2, 0, 1], 3, "multiplicities") == (2, 0, 1)
    assert vector(iter(()), 0, "multiplicities") == ()
    for bad in NON_INTEGERS:
        with pytest.raises(ValueError, match="multiplicities must be integers"):
            vector((1, bad), 2, "multiplicities")
    for bad, n in (((1, -1), 2), ((1, 1), 3), ((1, 1), 1), ((), 1)):
        with pytest.raises(ValueError, match="bad multiplicities"):
            vector(bad, n, "multiplicities")


def test_vertex_set():
    assert vertex_set([3, 1, 3, 2, 1], 3, "special vertices") == (1, 2, 3)
    assert vertex_set((), 0, "special vertices") == ()
    for bad in NON_INTEGERS:
        with pytest.raises(ValueError, match="special vertices must be integers"):
            vertex_set((1, bad), 2, "special vertices")
    for bad in ((0,), (1, 3), (-1, 1)):
        with pytest.raises(ValueError, match=r"outside 1\.\.2"):
            vertex_set(bad, 2, "special vertices")
    with pytest.raises(ValueError, match=r"outside 1\.\.0"):
        vertex_set((1,), 0, "special vertices")


def test_types_are_checked_before_length_and_signs():
    """One pass checks every entry, but a wrong type is reported before a
    wrong length, a negative entry or an entry out of range, wherever in the
    tuple it sits."""
    for bad, n in (((1, 1.5), 3), ((-1, True), 2), ((1.5, -1), 1)):
        with pytest.raises(ValueError, match="multiplicities must be integers"):
            vector(bad, n, "multiplicities")
    for bad in ((5, 1.5), ("1", 0), (-1, True)):
        with pytest.raises(ValueError, match="special vertices must be integers"):
            vertex_set(bad, 2, "special vertices")


def test_malformed_reports_every_input_error():
    for exc in (KeyError("n"), TypeError("not iterable"), ValueError("outside")):
        with pytest.raises(ValueError, match="malformed hypergraph object"):
            with malformed("hypergraph"):
                raise exc
    with pytest.raises(RuntimeError):
        with malformed("hypergraph"):
            raise RuntimeError("not an input error")
