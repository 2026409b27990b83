"""Every numerical tolerance of the package.  Each multiplies the magnitude
named in its comment, never an absolute unit, so no decision changes when
the response or the theory column is rescaled."""

# The one rank decision: every singular value is cut at RANK_TOL times
# sigma_1(X), the largest singular value of the design matrix.
RANK_TOL = 1e-10

# Agreement required between the coefficient and projection routes of a
# solve, relative to the magnitudes summed into the fitted values, and of the
# sum-of-squares additivity, relative to y'y.
CROSS_CHECK_TOL = 1e-8

# A residual sum of squares at or below this times y'y is roundoff, not
# error: (64 eps)^2, eps = 2^-52.  An exact fit leaves about eps^2 y'y.
ROUNDOFF_SS_TOL = (64 * 2.0**-52) ** 2

# Agreement required between the residual sum of squares and the sum of its
# pure-error and lack-of-fit parts, relative to sqrt(SS_res * y'y): the
# residuals carry roundoff relative to y, so near an exact fit the parts can
# miss SS_res by much more than a fixed fraction of it.
SS_REL_TOL = 1e-8

# A flow-solver root is accepted where the computed flow-equality residual
# changes sign within this many ulps of it: the isochoric closed form's root
# is within 4 ulps of a four-candidate reference's at the choke points, and
# a bisected root is 1 ulp from its sign change.  It bounds no root's
# distance from the exact one, which nears 4.5 ulps at the critical ratio.
ROOT_ULPS = 4

# The adiabatic bisection starts this many floats each way of a Newton root
# and closes in ceil(log2(16)) = 4 steps, where [p_atm, supply] takes about
# 53.  The accepted root lies at most 4 floats from Newton's on the tests'
# row sets and on 20000 rows with supplies out to 1e300 MPa, and at most 6
# on gauge_sweep seeds 1-40 (the residual's sign is noise that near; python
# tests/test_exact_roots.py prints both).  A row whose window misses its
# root fails the acceptance rule and is bisected again from [p_atm, ps].
BRACKET_ULPS = 8

# The smallest gamma - 1 the flow solvers take.  The adiabatic flow factor's
# G = u (u - c), u = c^(1/gamma), cancels as gamma nears 1: at the critical
# ratio its relative error is about 4 eps gamma / (gamma - 1), 1e-9 here,
# and at gamma - 1 = 1e-12 a root moves in its sixth digit.
MIN_GAMMA_EXCESS = 1e-6
