"""Versioned default parameters, echoed into every verification report.

Tolerance regressions must be attributable to parameter changes, so every
report header carries CONSTANTS_VERSION together with the grid parameters
actually used for that run.
"""

CONSTANTS_VERSION = "uwq-defaults-1"

# Position-space grids: n points on the half-open box [-L, L) per axis.
DEFAULT_N_1D = 128
DEFAULT_L_1D = 10.0
DEFAULT_N_2D = 32
DEFAULT_L_2D = 8.0

# Quantization identity checks run on a tighter box so that polynomial
# symbols stay in a numerically comfortable range.
QUANT_N = 128
QUANT_L = 8.0

# Weight-sequence machinery.
WEIGHTS_TRUNCATION = 64
M2_H_LATTICE = tuple(k / 10 for k in range(10, 81))  # H = 1.0, 1.1, ..., 8.0 exactly
CONDITION_C0_CAP = 10.0
BOUND_K_LADDER = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
BOUND_FLOOR = 1e-8  # smallest constant C of |P(x)| >= C e^{M(|x|/k)} that counts as a bound

# Oscillatory-kernel regularization ladder.
OSC_DELTA_LADDER = (0.4, 0.2, 0.1, 0.05, 0.025)
