"""TAGE-SC-L: TAGE + Statistical Corrector + Loop predictor.

TAGE-SC-L (Seznec, CBP-5) is the most accurate predictor in the paper's SMT
study (Table 2 lists a 66.6 KB configuration; Figure 6(b) shows where the
content and index keys attach).  The composition is:

1. TAGE produces a prediction and a confidence estimate;
2. the loop predictor overrides TAGE for confidently captured loops;
3. the statistical corrector may override the combined prediction when its
   signed vote is strong and disagrees.

The batched-engine kernel is the generated TAGE kernel followed by the loop
predictor's and the corrector's inlined lookup and update (see
:class:`repro.predictors.ltage.TageComposite`).
"""

from __future__ import annotations

from typing import List, Optional

from .base import DirectionPrediction
from .counters import counter_strength
from .loop import LoopPredictor
from .ltage import TageComposite
from .statistical_corrector import StatisticalCorrector
from .table import PredictorTable, TableIsolation
from .tage import TageConfig, TagePredictor

__all__ = ["TageScLPredictor"]


class TageScLPredictor(TageComposite):
    """TAGE + SC + L composite predictor.

    Args:
        tage_config: sizing of the TAGE component; defaults to a configuration
            slightly larger than the FPGA TAGE, mirroring Table 2.
        loop_entries: number of loop-table entries.
        sc_entries: entries per statistical-corrector component table.
        isolation: isolation policy applied to every table.
        word_bits: physical word width used for base-PHT packing.
    """

    name = "tage_sc_l"

    def __init__(self, tage_config: Optional[TageConfig] = None,
                 loop_entries: int = 256, sc_entries: int = 1024, *,
                 isolation: Optional[TableIsolation] = None,
                 word_bits: int = 32) -> None:
        if tage_config is None:
            tage_config = TageConfig(n_tables=8, table_entries=4096,
                                     min_history=8, max_history=256)
        super().__init__(TagePredictor(tage_config, isolation=isolation,
                                       word_bits=word_bits), isolation)
        self._loop = LoopPredictor(loop_entries, isolation=isolation)
        self._sc = StatisticalCorrector(sc_entries, isolation=isolation)

    def _kernel_tail(self, arm: str) -> List[str]:
        return self._loop.kernel_lines(arm) + [
            "    if loop_valid:",
            "        sc_pre = loop_taken",
            "        sc_conf = True",
            "    else:",
            "        sc_pre = predicted",
            "        sc_conf = confident",
        ] + self._sc.kernel_lines(arm)

    def _bind_kernel(self, namespace: dict, arm: str, thread_id: int) -> None:
        self._loop.bind_kernel(namespace, arm, thread_id)
        self._sc.bind_kernel(namespace, arm, thread_id)

    def _tage_confident(self, tage_pred: DirectionPrediction) -> bool:
        meta = tage_pred.meta
        if meta["provider"] < 0:
            base = meta["base"]
            return counter_strength(base.meta["counter"]) > 0
        return not meta["use_alt"]

    def lookup(self, pc: int, thread_id: int = 0) -> DirectionPrediction:
        tage_pred = self._tage.lookup(pc, thread_id)
        loop_pred = self._loop.lookup(pc, thread_id)
        if loop_pred.valid:
            pre_sc_taken = loop_pred.taken
            confident = True
        else:
            pre_sc_taken = tage_pred.taken
            confident = self._tage_confident(tage_pred)
        ghr_value = self._tage.global_history.value(thread_id)
        taken = self._sc.correct(pc, ghr_value, pre_sc_taken, confident, thread_id)
        return DirectionPrediction(taken=taken, meta={
            "tage": tage_pred,
            "loop_valid": loop_pred.valid,
            "pre_sc_taken": pre_sc_taken,
            "ghr_value": ghr_value,
        })

    def update(self, pc: int, taken: bool,
               prediction: Optional[DirectionPrediction] = None,
               thread_id: int = 0) -> None:
        if prediction is None or "tage" not in prediction.meta:
            prediction = self.lookup(pc, thread_id)
        meta = prediction.meta
        self._sc.update(pc, taken, meta["ghr_value"], meta["pre_sc_taken"],
                        prediction.taken, thread_id)
        self._loop.update(pc, taken, thread_id)
        self._tage.update(pc, taken, meta["tage"], thread_id)

    def tables(self) -> List[PredictorTable]:
        return self._tage.tables() + [self._loop.table] + self._sc.tables()

    @property
    def loop(self) -> LoopPredictor:
        """The loop-predictor component."""
        return self._loop

    @property
    def statistical_corrector(self) -> StatisticalCorrector:
        """The statistical-corrector component."""
        return self._sc

    def flush(self) -> None:
        super().flush()
        self._loop.flush()
        self._sc.flush()

    def flush_thread(self, thread_id: int) -> None:
        super().flush_thread(thread_id)
        self._loop.flush_thread(thread_id)
        self._sc.flush_thread(thread_id)
