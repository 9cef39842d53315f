"""Common interfaces and statistics for branch predictors.

Two predictor roles exist in the paper's microarchitecture model:

* **Direction predictors** (PHT-style structures: Gshare, Tournament, LTAGE,
  TAGE-SC-L) predict taken/not-taken for conditional branches.
* **Target predictors** (the BTB and the return address stack) predict the
  target address of taken branches.

Both expose a two-phase ``lookup``/``update`` protocol so the CPU timing model
can account for mispredictions, and both expose ``flush``/``flush_thread`` so
flush-based isolation mechanisms can be applied uniformly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .table import PredictorTable, TableIsolation

__all__ = [
    "DirectionPrediction",
    "PredictorStats",
    "DirectionPredictor",
    "Flushable",
]


@dataclass(slots=True)
class DirectionPrediction:
    """Result of a direction-predictor lookup.

    Attributes:
        taken: the predicted direction.
        meta: predictor-specific bookkeeping (provider bank, computed indices,
            alternate prediction, ...) carried from ``lookup`` to ``update``.
    """

    taken: bool
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass(slots=True)
class PredictorStats:
    """Per-thread prediction statistics.

    Attributes:
        lookups: number of predictions made.
        mispredictions: number of incorrect predictions.
    """

    lookups: int = 0
    mispredictions: int = 0

    @property
    def correct(self) -> int:
        """Number of correct predictions."""
        return self.lookups - self.mispredictions

    @property
    def accuracy(self) -> float:
        """Fraction of correct predictions (1.0 when no lookups were made)."""
        if self.lookups == 0:
            return 1.0
        return self.correct / self.lookups

    def record(self, correct: bool) -> None:
        """Record the outcome of one prediction."""
        self.lookups += 1
        if not correct:
            self.mispredictions += 1

    def merge(self, other: "PredictorStats") -> None:
        """Accumulate another statistics object into this one."""
        self.lookups += other.lookups
        self.mispredictions += other.mispredictions


class Flushable(abc.ABC):
    """Anything whose state can be flushed completely or per hardware thread."""

    @abc.abstractmethod
    def flush(self) -> None:
        """Clear all state (Complete Flush)."""

    @abc.abstractmethod
    def flush_thread(self, thread_id: int) -> None:
        """Clear state belonging to one hardware thread (Precise Flush)."""


class DirectionPredictor(Flushable):
    """Abstract conditional-branch direction predictor.

    Concrete predictors construct their tables with the isolation policy they
    are given, compute indices from the PC and their history registers, and
    leave all index remapping and content encoding to the storage layer
    (:class:`repro.predictors.table.PredictorTable`).
    """

    #: Short machine-readable name, e.g. ``"gshare"``.
    name: str = "direction"

    def __init__(self, isolation: Optional[TableIsolation] = None) -> None:
        self._isolation = isolation
        self._stats: Dict[int, PredictorStats] = {}

    # -- prediction protocol --------------------------------------------------
    @abc.abstractmethod
    def lookup(self, pc: int, thread_id: int = 0) -> DirectionPrediction:
        """Predict the direction of the conditional branch at ``pc``."""

    @abc.abstractmethod
    def update(self, pc: int, taken: bool,
               prediction: Optional[DirectionPrediction] = None,
               thread_id: int = 0) -> None:
        """Train the predictor with the resolved direction of ``pc``.

        ``prediction`` should be the object returned by the matching
        ``lookup`` call; when omitted, the predictor re-computes it, which is
        functionally equivalent but slower.
        """

    def predict_and_update(self, pc: int, taken: bool, thread_id: int = 0) -> bool:
        """Convenience: lookup, train, record stats; returns True on mispredict."""
        prediction = self.lookup(pc, thread_id)
        mispredicted = prediction.taken != taken
        self.stats(thread_id).record(not mispredicted)
        self.update(pc, taken, prediction, thread_id)
        return mispredicted

    def execute(self, pc: int, taken: bool, thread_id: int = 0) -> bool:
        """Fused lookup + stats + update for the simulation hot path.

        Returns the *raw* predicted direction (before any front-end
        fall-through override).  State evolution and statistics are identical
        to calling ``lookup``, ``stats(...).record`` and ``update`` in
        sequence; predictors may override this with an allocation-free
        monomorphic version (see :class:`repro.predictors.gshare` and
        :class:`repro.predictors.tage`).
        """
        prediction = self.lookup(pc, thread_id)
        predicted = prediction.taken
        self.stats(thread_id).record(predicted == taken)
        self.update(pc, taken, prediction, thread_id)
        return predicted

    def exec_kernel(self, thread_id: int = 0):
        """Return the thread's execute kernel ``fn(pc, taken)``.

        The batched engines and the attack environment drive every
        direction predictor through this per-thread callable.  Predictors
        with generated kernels override it; this default runs
        :meth:`execute` for ``thread_id``, so a predictor that implements
        only ``lookup``/``update`` runs on both cores unchanged.  Like a
        generated kernel, it accepts (and ignores) a trailing thread id.
        """
        execute = self.execute

        def kernel(pc: int, taken: bool, _thread_id: int = 0) -> bool:
            return execute(pc, taken, thread_id)

        return kernel

    def invalidate_kernel_masks(self) -> None:
        """Drop cached generated kernels (the default kernel caches none)."""

    # -- structure access -----------------------------------------------------
    @property
    def isolation(self) -> Optional[TableIsolation]:
        """The isolation policy the predictor's tables were built with."""
        return self._isolation

    def tables(self) -> List[PredictorTable]:
        """All underlying storage tables (for cost models and entropy tests)."""
        return []

    @property
    def storage_bits(self) -> int:
        """Total table storage in bits."""
        return sum(t.storage_bits for t in self.tables())

    # -- statistics -----------------------------------------------------------
    def stats(self, thread_id: int = 0) -> PredictorStats:
        """Statistics accumulator for one hardware thread."""
        if thread_id not in self._stats:
            self._stats[thread_id] = PredictorStats()
        return self._stats[thread_id]

    def total_stats(self) -> PredictorStats:
        """Statistics aggregated over all hardware threads."""
        total = PredictorStats()
        for stats in self._stats.values():
            total.merge(stats)
        return total

    def reset_stats(self) -> None:
        """Clear all accumulated statistics (state is untouched)."""
        self._stats.clear()

    # -- flush protocol -------------------------------------------------------
    def flush(self) -> None:
        """Flush all tables (Complete Flush)."""
        for table in self.tables():
            table.flush()

    def flush_thread(self, thread_id: int) -> None:
        """Flush entries owned by one hardware thread (Precise Flush)."""
        for table in self.tables():
            table.flush_thread(thread_id)
