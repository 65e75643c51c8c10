"""Sharp weak-type martingale inequality toolkit.

Numerical constructions of the special functions, sharp constants and
extremal processes behind weak-type estimates for differentially
subordinated martingales, together with deterministic and Monte Carlo
verification suites.
"""

__version__ = "0.1.0"

from .constants import (  # noqa: F401
    SharpConstant,
    kp,
    reference_constants,
    strong_constant_nonneg,
    weak_constant_nonneg,
    weak_constant_pth_power,
)
from .extremal import (  # noqa: F401
    AtomicMartingale,
    ExtremalParams,
    build_p_lt1_example,
    build_section_example,
    evaluate_ratio,
    harmonic_1d_example,
    resolve_params,
    section_ratio,
)
from .gfun import GSolution, build_g_bessel, build_g_rk, h_of, h_prime  # noqa: F401
from .mc import Estimate, SimConfig, strip_exit_moment  # noqa: F401
from .orth import OrthContext, u_orth  # noqa: F401
from .uweak import UWContext, build_context, classify, u_value, v_value  # noqa: F401
from .verify import SUITES, run_suite  # noqa: F401
from .wfun import w_bounds_check, w_gradient_ext, w_tangent_check, w_value  # noqa: F401
