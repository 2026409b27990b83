"""Every numerical tolerance of the package.  Each multiplies the magnitude
named in its comment, never an absolute unit, so no decision changes when
the response or the theory column is rescaled."""

# Singular values at or below this times the largest singular value of the
# system are cut as numerically zero: the one rank decision.
RANK_TOL = 1e-10

# Agreement required between the coefficient and projection routes of a
# solve, relative to the magnitudes summed into the fitted values, and of the
# sum-of-squares additivity, relative to y'y.
CROSS_CHECK_TOL = 1e-8

# Slack, relative to the residual sum of squares, before a pure error larger
# than the residual is treated as a genuine inconsistency, not roundoff.
SS_REL_TOL = 1e-8

# A flow-solver root must leave a flow-equality residual this small relative
# to the orifice-side flow, unless bisection collapsed its bracket to adjacent
# floats with a sign change: no representable value can do better there.
RESIDUAL_REL_TOL = 1e-9

# A closed-form isochoric root within this of a ratio-1/2 boundary counts as
# on either side: the flows meet there continuously, and rounding may cross it.
REGIME_SLACK = 1e-12

# The flow-equality bracket (p_atm, supply) is shrunk by this fraction of its
# width at each end, where the sensor or orifice flow vanishes.
BRACKET_INSET = 1e-9
