"""Exact and statistical verification of centered moments of low-lying-zero
statistics for sign-split orthogonal families.

Subpackages / modules:

- ``exactpoly``  exact piecewise-polynomial algebra over rationals
- ``testfn``     admissible test functions (Fejer family)
- ``moments``    closed-form moment quantities, two exact routes
- ``quadrature`` floating-point oracle recomputations
- ``sop``        brute-force combinatorics (systems of parameters, t-classes)
- ``linfeas``    exact Fourier-Motzkin feasibility
- ``rmt``        Haar Monte Carlo over SO(even)/SO(odd)
- ``arith``      Ramanujan/Gauss/Kloosterman sums and identities
- ``vanishing``  order-of-vanishing bounds
- ``cli``        command line driver
- ``errors``     exception types shared across the package

Importing the package loads none of these; import each module by name
(``from splitmoments import moments``).  The CLI imports only ``errors`` up
front, and each command imports the modules it runs when it runs.
"""

__version__ = "0.1.0"
