#!/usr/bin/env python3
"""Protecting your own predictor: the isolation layer is predictor-agnostic.

The paper's central engineering claim is that XOR-BP / Noisy-XOR-BP attach at
the table-storage layer, so *any* predictor built on
:class:`repro.predictors.table.PredictorTable` picks up the protection without
changing its algorithm.  This example demonstrates that twice:

1. with the bundled TAGE predictor (whose per-entry state is a packed
   tag / prediction-counter / useful-counter word — nothing like a 2-bit
   counter); and
2. with a small custom predictor written right here in the example (a
   PC-indexed table of 3-bit counters), wrapped into a full branch prediction
   unit and attacked.

In both cases the prediction accuracy barely moves under Noisy-XOR isolation,
while the BranchScope-style perception attack collapses to chance level.

Run:  python examples/custom_predictor.py
"""

from typing import List, Optional

from repro.analysis import render_table
from repro.attacks import run_attack
from repro.core import BranchPredictionUnit, KeyManager, NoisyXorIsolation
from repro.predictors import (
    BranchTargetBuffer,
    DirectionPrediction,
    DirectionPredictor,
    PredictorTable,
    ReturnAddressStack,
    TagePredictor,
    counter_is_taken,
    saturating_update,
)
from repro.types import BranchType
from repro.workloads import make_workload


class WideCounterPredictor(DirectionPredictor):
    """A deliberately simple custom predictor: PC-indexed 3-bit counters.

    The point of the example is not prediction quality but that the predictor
    is written once, against :class:`PredictorTable`, and works unchanged with
    any isolation policy passed to it.
    """

    name = "wide_counter"

    def __init__(self, n_entries: int = 1024, *, isolation=None) -> None:
        super().__init__(isolation)
        self._mask = n_entries - 1
        self._table = PredictorTable(n_entries, 3, reset_value=3,
                                     name="wide_counter_pht", isolation=isolation)

    def lookup(self, pc: int, thread_id: int = 0) -> DirectionPrediction:
        index = (pc >> 2) & self._mask
        counter = self._table.read(index, thread_id)
        return DirectionPrediction(taken=counter_is_taken(counter, bits=3),
                                   meta={"index": index})

    def update(self, pc: int, taken: bool,
               prediction: Optional[DirectionPrediction] = None,
               thread_id: int = 0) -> None:
        index = (prediction.meta["index"] if prediction is not None
                 else (pc >> 2) & self._mask)
        counter = self._table.read(index, thread_id)
        self._table.write(index, saturating_update(counter, taken, bits=3), thread_id)

    def tables(self) -> List[PredictorTable]:
        return [self._table]


def build_unit(predictor: DirectionPredictor, isolation) -> BranchPredictionUnit:
    """Wire a direction predictor into a full branch prediction unit."""
    btb = BranchTargetBuffer(n_sets=256, n_ways=2, isolation=isolation)
    ras = ReturnAddressStack(depth=16)
    return BranchPredictionUnit(predictor, btb, ras, isolation=isolation)


def accuracy_of(bpu: BranchPredictionUnit, benchmark: str = "gobmk",
                branches: int = 12_000) -> float:
    """Direction accuracy of a unit on one synthetic benchmark."""
    workload = make_workload(benchmark, seed=11)
    conditional = mispredicted = 0
    for record in workload.segment(branches):
        outcome = bpu.execute_branch(record.pc, record.taken, record.target,
                                     record.branch_type)
        if record.branch_type is BranchType.CONDITIONAL:
            conditional += 1
            mispredicted += outcome.direction_mispredicted
    return 1.0 - mispredicted / conditional


def study(label: str, make_predictor) -> List[List[str]]:
    """Accuracy with and without Noisy-XOR isolation for one predictor."""
    rows = []
    for protected in (False, True):
        keys = KeyManager(seed=42)
        isolation = NoisyXorIsolation(keys) if protected else None
        predictor = make_predictor(isolation)
        bpu = build_unit(predictor, isolation)
        accuracy = accuracy_of(bpu)
        rows.append([label, "Noisy-XOR-BP" if protected else "baseline",
                     f"{accuracy:.3f}"])
    return rows


def attack_comparison() -> None:
    """The same BranchScope attack against baseline and protected units."""
    rows = []
    for mechanism in ("baseline", "noisy_xor_bp"):
        result = run_attack("branchscope", mechanism, iterations=400)
        rows.append([mechanism, f"{100 * result.success_rate:.1f}%",
                     f"{100 * result.chance_level:.0f}%"])
    print(render_table(["mechanism", "BranchScope success", "chance level"], rows))


def main() -> None:
    print("== Prediction accuracy: isolation is predictor-agnostic ==")
    rows = []
    rows += study("tage",
                  lambda isolation: TagePredictor(isolation=isolation))
    rows += study("wide_counter (custom)",
                  lambda isolation: WideCounterPredictor(isolation=isolation))
    print(render_table(["predictor", "configuration", "direction accuracy"], rows))
    print()
    print("== Perception attack against the protected unit ==")
    attack_comparison()


if __name__ == "__main__":
    main()
