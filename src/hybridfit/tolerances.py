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

# A flow-solver root must leave a flow-equality residual this small relative
# to the orifice-side flow, unless bisection collapsed its bracket to adjacent
# floats with a sign change: no representable value can do better there.
# Flows that are not finite fail it either way.
RESIDUAL_REL_TOL = 1e-9

# The flow-equality bracket (p_atm, supply) is shrunk by this fraction of its
# width at each end, where the sensor or orifice flow vanishes.
BRACKET_INSET = 1e-9
