"""Numerical classification of Volterra-type integral operators on weighted
spaces of analytic functions on the unit disk."""

__version__ = "0.1.0"

from .criteria import CriterionReport, LadderConfig, Verdict, VerdictTag, classify
from .operators import OperatorKind, apply_sg, apply_tg
from .series import TaylorSeries
from .spaces import DiskGrid, SpacePair, bloch_norm, weighted_sup_norm
from .symbols import SymbolSpec, get_symbol, ground_truth_table, registry

__all__ = [
    "CriterionReport", "DiskGrid", "LadderConfig",
    "OperatorKind", "SpacePair", "SymbolSpec", "TaylorSeries",
    "Verdict", "VerdictTag", "apply_sg", "apply_tg", "bloch_norm", "classify",
    "get_symbol", "ground_truth_table", "registry", "weighted_sup_norm",
    "__version__",
]
