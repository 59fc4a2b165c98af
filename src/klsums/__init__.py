"""Generalized Kloosterman sums, complete sum-product sums, and the
stratification / bound experiments built on top of them."""

__version__ = "0.1.0"

from .field import PrimeField, MultChar, build_field, eval_char, eval_additive, gauss_sum
from .chartuples import CharTuple, classify_tuple, is_kummer_induced
from .kloosterman import KlTable, kl_table_fast, kl_table_naive
from .sums import sigma_II
from .strata import is_diagonal, singular_polynomial, z_fiber_count, stratum_scan

__all__ = [
    "PrimeField",
    "MultChar",
    "build_field",
    "eval_char",
    "eval_additive",
    "gauss_sum",
    "CharTuple",
    "classify_tuple",
    "is_kummer_induced",
    "KlTable",
    "kl_table_fast",
    "kl_table_naive",
    "sigma_II",
    "is_diagonal",
    "singular_polynomial",
    "z_fiber_count",
    "stratum_scan",
    "__version__",
]
