"""Ablation studies of the design choices the paper discusses but does not sweep.

Three ablations are provided:

* :func:`encoder_ablation` — Section 5.4 notes that XOR "can be exchanged for
  stronger isolation" (shift/scramble stages, small lookup tables).  The
  ablation confirms the performance cost is identical across encoders — the
  encoding only changes what stale entries decode to, never their accuracy
  for the owning thread.
* :func:`key_refresh_ablation` — Section 5.4 requires key regeneration on
  privilege switches.  The ablation quantifies the (small) performance that
  could be saved by refreshing only at context switches, and demonstrates the
  security consequence: a user-mode attacker can then steer a kernel-mode
  victim branch because both run under the same key.
* :func:`pht_granularity_ablation` — simple 2-bit XOR-PHT versus word-basis
  Enhanced-XOR-PHT (Section 5.2): equal performance, but the calibrated
  BranchScope attack recovers the victim direction through the naive scheme's
  fixed key relationship while the enhanced scheme resists it.
"""

from __future__ import annotations

from typing import List, Optional

from ..attacks.harness import run_attack
from ..attacks.primitives import AttackEnvironment
from ..attacks.spectre_v2 import LEGITIMATE_TARGET, MALICIOUS_TARGET, SHARED_CALL_PC
from ..core.registry import make_bpu
from ..cpu.config import fpga_prototype
from ..types import BranchType, Privilege
from ..workloads.pairs import get_pair
from .base import ExperimentResult
from .executor import CaseSpec, SweepExecutor
from .scaling import ExperimentScale, default_scale

__all__ = ["encoder_ablation", "plan_encoder_ablation",
           "key_refresh_ablation", "plan_key_refresh_ablation",
           "pht_granularity_ablation"]

#: Content encoders compared by :func:`encoder_ablation`.
_ENCODERS = ("xor", "shift_xor", "sbox")


def plan_encoder_ablation(scale: Optional[ExperimentScale] = None,
                          case: str = "case6") -> List[CaseSpec]:
    """Cases for :func:`encoder_ablation`: baseline, then one per encoder."""
    scale = scale or default_scale()
    pair = get_pair(case, "single")
    config = fpga_prototype()
    specs = [CaseSpec("single", pair, config, "baseline", scale,
                      label="baseline")]
    specs.extend(CaseSpec("single", pair, config, "noisy_xor_bp", scale,
                          bpu_overrides={"encoder": encoder}, label=encoder)
                 for encoder in _ENCODERS)
    return specs


def encoder_ablation(scale: Optional[ExperimentScale] = None,
                     case: str = "case6",
                     *, executor: SweepExecutor) -> ExperimentResult:
    """Compare the XOR, shift-XOR and S-box content encoders."""
    scale = scale or default_scale()
    pair = get_pair(case, "single")
    results = executor.run_specs(plan_encoder_ablation(scale, case))
    baseline = results[0]
    rows: List[List] = []
    for encoder, encoded in zip(_ENCODERS, results[1:]):
        overhead = encoded.overhead_vs(baseline, workload=pair.target)
        rows.append([encoder, f"{100 * overhead:+.2f}%"])
    return ExperimentResult(
        name="Ablation: content encoder",
        description=f"Noisy-XOR-BP overhead on {pair.label()} with different "
                    "reversible encoders",
        headers=["encoder", "overhead vs baseline"],
        rows=rows,
        paper_claim="the encoding only needs to be cheaply reversible; stronger "
                    "encodings are drop-in replacements",
        notes="Differences between encoders are run-to-run noise: the encoder "
              "never changes what the owning thread reads back.")


def _cross_privilege_training_rate(rotate_on_privilege: bool,
                                   iterations: int = 400) -> float:
    """Fraction of iterations where user-mode training steers a kernel branch."""
    bpu = make_bpu("bimodal", "noisy_xor_bp",
                   config_overrides={
                       "rotate_on_privilege_switch": rotate_on_privilege})
    env = AttackEnvironment(bpu, smt=False)
    successes = 0
    for _ in range(iterations):
        # Attacker (user mode) trains the shared indirect call site.
        for _ in range(3):
            env.attacker_branch(SHARED_CALL_PC, True, MALICIOUS_TARGET,
                                BranchType.INDIRECT)
        # The same software context enters the kernel, which executes an
        # indirect branch at the aliased address: no context switch occurs,
        # only a privilege switch.
        env.victim_privilege_switch(Privilege.KERNEL)
        result = env.bpu.btb.lookup(SHARED_CALL_PC, env.victim_thread)
        if result.hit and result.target == MALICIOUS_TARGET:
            successes += 1
        env.commit(SHARED_CALL_PC, True, LEGITIMATE_TARGET,
                   BranchType.INDIRECT, env.victim_thread)
        env.victim_privilege_switch(Privilege.USER)
    bpu.release_kernels()
    return successes / iterations


#: Key-refresh policies compared by :func:`key_refresh_ablation`.
_REFRESH_POLICIES = ((True, "context + privilege switches (paper)"),
                     (False, "context switches only"))


def plan_key_refresh_ablation(scale: Optional[ExperimentScale] = None,
                              case: str = "case1") -> List[CaseSpec]:
    """Cases for :func:`key_refresh_ablation`: baseline, then one per policy."""
    scale = scale or default_scale()
    pair = get_pair(case, "single")
    config = fpga_prototype()
    specs = [CaseSpec("single", pair, config, "baseline", scale,
                      label="baseline")]
    specs.extend(
        CaseSpec("single", pair, config, "noisy_xor_bp", scale,
                 bpu_overrides={"rotate_on_privilege_switch": rotate},
                 label=label)
        for rotate, label in _REFRESH_POLICIES)
    return specs


def key_refresh_ablation(scale: Optional[ExperimentScale] = None,
                         case: str = "case1",
                         *, executor: SweepExecutor) -> ExperimentResult:
    """Refresh keys on privilege switches (paper design) vs context switches only."""
    scale = scale or default_scale()
    pair = get_pair(case, "single")
    results = executor.run_specs(plan_key_refresh_ablation(scale, case))
    baseline = results[0]
    rows: List[List] = []
    for (rotate, label), result in zip(_REFRESH_POLICIES, results[1:]):
        overhead = result.overhead_vs(baseline, workload=pair.target)
        steering = _cross_privilege_training_rate(rotate)
        rows.append([label, f"{100 * overhead:+.2f}%", f"{100 * steering:.1f}%"])
    return ExperimentResult(
        name="Ablation: key refresh policy",
        description=f"Cost and consequence of the key-refresh policy on {pair.label()}",
        headers=["key refresh policy", "overhead vs baseline",
                 "user-to-kernel BTB steering success"],
        rows=rows,
        paper_claim="keys must be regenerated on privilege switches to isolate "
                    "privilege levels of the same program (Section 5.4)",
        notes="Skipping privilege-switch refresh recovers a little performance "
              "but lets user-mode training steer kernel-mode indirect branches.")


def pht_granularity_ablation(scale: Optional[ExperimentScale] = None,
                             iterations: int = 250) -> ExperimentResult:
    """Simple 2-bit XOR-PHT versus word-basis Enhanced-XOR-PHT (Section 5.2)."""
    scale = scale or default_scale()
    rows: List[List] = []
    for preset, label in (("xor_pht_simple", "XOR-PHT (2-bit words, fixed key)"),
                          ("xor_pht", "Enhanced-XOR-PHT (32-bit words)"),
                          ("noisy_xor_pht", "Noisy-XOR-PHT")):
        plain = run_attack("branchscope", preset, smt=True, iterations=iterations)
        calibrated = run_attack("branchscope_calibrated", preset, smt=True,
                                iterations=iterations)
        rows.append([label, f"{100 * plain.success_rate:.1f}%",
                     f"{100 * calibrated.success_rate:.1f}%"])
    return ExperimentResult(
        name="Ablation: XOR-PHT granularity",
        description="Direction-perception success against the PHT content-encoding "
                    "variants on an SMT core (chance level 50%)",
        headers=["scheme", "BranchScope success", "calibrated BranchScope success"],
        rows=rows,
        paper_claim="encoding 2-bit entries with a narrow fixed key gives "
                    "insufficient obfuscation; word-basis Enhanced-XOR-PHT (and "
                    "breaking the fixed key mapping) is required",
        notes="The calibrated attack uses a reference branch with a known "
              "direction, the Section 5.5 Scenario 4 corner case.")
