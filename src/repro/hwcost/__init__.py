"""Analytic hardware cost model for Noisy-XOR-BP (Table 5)."""

from .estimator import CostEstimate, btb_cost, tage_pht_cost
from .gates import TSMC28_LIKE, TechnologyParameters
from .sram import sram_access_ps, sram_area_um2

__all__ = [
    "CostEstimate",
    "btb_cost",
    "tage_pht_cost",
    "TechnologyParameters",
    "TSMC28_LIKE",
    "sram_access_ps",
    "sram_area_um2",
]
