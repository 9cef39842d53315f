"""Branch-predictor substrate.

This subpackage implements the prediction structures the paper builds on:
pattern history tables (Gshare, Tournament), the TAGE family (TAGE, LTAGE,
TAGE-SC-L) with loop predictor and statistical corrector, the set-associative
BTB and the return address stack.  Every table routes its accesses through
:class:`repro.predictors.table.PredictorTable`, the attachment point for the
isolation mechanisms defined in :mod:`repro.core`.
"""

from .base import DirectionPrediction, DirectionPredictor, Flushable, PredictorStats
from .bimodal import BimodalPredictor
from .btb import BranchTargetBuffer, BTBEntry, BTBResult
from .counters import (
    STRONG_NOT_TAKEN,
    STRONG_TAKEN,
    WEAK_NOT_TAKEN,
    WEAK_TAKEN,
    SaturatingCounter,
    counter_is_taken,
    counter_strength,
    saturating_update,
    signed_saturating_update,
)
from .gshare import GsharePredictor
from .history import GlobalHistory, LocalHistoryTable, PathHistory, fold_history
from .loop import LoopPredictor
from .ltage import LTagePredictor
from .ras import ReturnAddressStack
from .statistical_corrector import StatisticalCorrector
from .table import IdentityIsolation, PackedCounterTable, PredictorTable, TableIsolation
from .tage import TageConfig, TagePredictor, geometric_history_lengths
from .tage_sc_l import TageScLPredictor
from .tournament import TournamentPredictor

__all__ = [
    "DirectionPrediction",
    "DirectionPredictor",
    "Flushable",
    "PredictorStats",
    "BimodalPredictor",
    "BranchTargetBuffer",
    "BTBEntry",
    "BTBResult",
    "SaturatingCounter",
    "saturating_update",
    "signed_saturating_update",
    "counter_is_taken",
    "counter_strength",
    "STRONG_NOT_TAKEN",
    "WEAK_NOT_TAKEN",
    "WEAK_TAKEN",
    "STRONG_TAKEN",
    "GsharePredictor",
    "GlobalHistory",
    "PathHistory",
    "LocalHistoryTable",
    "fold_history",
    "LoopPredictor",
    "LTagePredictor",
    "ReturnAddressStack",
    "StatisticalCorrector",
    "IdentityIsolation",
    "PackedCounterTable",
    "PredictorTable",
    "TableIsolation",
    "TageConfig",
    "TagePredictor",
    "TageScLPredictor",
    "geometric_history_lengths",
    "TournamentPredictor",
    "DIRECTION_PREDICTORS",
    "make_direction_predictor",
]

#: Registry of direction predictors evaluated in the paper's SMT study.
DIRECTION_PREDICTORS = {
    "bimodal": BimodalPredictor,
    "gshare": GsharePredictor,
    "tournament": TournamentPredictor,
    "tage": TagePredictor,
    "ltage": LTagePredictor,
    "tage_sc_l": TageScLPredictor,
}


def make_direction_predictor(name, isolation=None, **kwargs):
    """Construct a direction predictor by name.

    Args:
        name: one of ``bimodal``, ``gshare``, ``tournament``, ``tage``,
            ``ltage``, ``tage_sc_l``.
        isolation: isolation policy to attach to all tables.
        **kwargs: forwarded to the predictor constructor.

    Returns:
        A :class:`repro.predictors.base.DirectionPredictor` instance.

    Raises:
        KeyError: when ``name`` is not a known predictor.
    """
    key = name.lower().replace("-", "_")
    if key not in DIRECTION_PREDICTORS:
        raise KeyError(f"unknown direction predictor: {name!r}")
    return DIRECTION_PREDICTORS[key](isolation=isolation, **kwargs)
