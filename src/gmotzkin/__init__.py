"""Exact enumeration toolkit for weighted G-Motzkin paths.

Core pieces: an exact polynomial/series ring (``polyring``), the path word
model with its structural decompositions (``paths``), the exhaustive
enumeration oracle (``enumeration``), closed counting formulas
(``formulas``), generating-function expansions (``series``), the
pattern-swapping bijection with its fixed-point analysis (``bijection``),
and a self-verification suite (``verify``) surfaced through the CLI.
"""

from .polyring import Monomial, Polynomial
from .paths import (
    Decomposition,
    PathError,
    decompose_forward,
    decompose_inverse,
    parse_pattern,
    parse_word,
)
from .enumeration import Constraints, generate, weight_sum
from .bijection import (
    FixedPointCounts,
    fixed_points,
    sigma,
    sigma_inv,
)
from .formulas import (
    binom,
    catalan,
    dyck_weight,
    f_closed,
    fixed_point_sequences,
    g_uvv_closed,
    gbar_uvv_closed,
    motzkin_weight,
    relation_checks,
    schroder_weight,
)
from .series import KINDS, expand

__version__ = "0.1.0"
