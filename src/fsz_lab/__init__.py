"""Exact computations with quadratic residues, Gauss sums, and the block
Sylow subgroups of symplectic groups, including both count-equality and
character-rationality tests for the FSZ property at desk scale."""

from .cyclotomic import CycNum, e_q, gauss_sum, gauss_sum_via_prime
from .fields import FieldElem, FieldSpec, field, field_for_order
from .fsz import (
    BetaValue,
    FszReport,
    PthPowerTarget,
    beta_definitional,
    beta_linear,
    beta_linear_batch,
    beta_via_counts,
    brute_characterization_scan,
    characterization_holds,
    count_solutions,
    fsz_test_at,
    gm_count,
    make_target,
    witness_pair_count,
    solve_pth_power,
    witness_order_search,
)
from .matrices import MatFq, UniTriMat, is_symplectic
from .parallel import DEFAULT_BUDGET, BudgetExceeded
from .residues import (
    FiberCountQuery,
    binom_product_sum_mod,
    power_sum_mod,
    qr_diff_count,
    trace_fiber_qr_count,
)
from .sylow import (
    SylowElem,
    enumerate_sylow,
    kappa,
    sylow_count,
    corner_concentration_check,
    u_witness,
    upsilon,
    xi_lambda,
    y_map,
)

__version__ = "0.1.0"
