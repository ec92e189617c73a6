"""Exact engines for marked chromatic polynomials of hypergraphs and
subspace arrangements, truncated independence series with integer powers,
characteristic polynomials of arrangements, and a non-negativity scanner
for inverted independence series.

All arithmetic is exact (integers and fractions); every closed form has an
independent brute-force counterpart used by the test suite.
"""

__version__ = "0.1.0"
