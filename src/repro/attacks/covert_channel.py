"""PHT-based covert channel between two cooperating processes.

Evtyushkin et al. (the paper's reference [11,13]) showed that the shared
pattern history table can carry a covert channel: a *sender* deliberately
trains a set of PHT entries to encode bits and a cooperating *receiver*
recovers them by timing its own congruent branches.  The paper's isolation
mechanisms are meant to close exactly this kind of cross-process channel, so
this module measures the channel's raw capacity under each protection preset:

* the sender transmits a known pseudo-random bit string, one bit per PHT
  entry, by executing congruent branches taken or not-taken;
* the OS switches to the receiver (a context switch, which rotates keys /
  triggers flushes, depending on the mechanism);
* the receiver reads the predicted direction of its congruent branches and
  reconstructs the bit string;
* the bit error rate and the resulting channel capacity (bits per symbol
  times symbols per second) are reported.

Under the baseline the channel is nearly error-free; under XOR/Noisy-XOR
isolation the received bits are uncorrelated with the sent ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..core.registry import make_bpu
from ..security.leakage import binary_entropy
from ..types import BranchType
from .primitives import AttackEnvironment

__all__ = ["CovertChannelResult", "run_covert_channel"]

#: Base address of the branch array shared (in layout) by sender and receiver.
_CHANNEL_BASE_PC = 0x0050_0000
#: Dummy target used by the encoding branches.
_CHANNEL_TARGET = 0x0051_0000


@dataclass
class CovertChannelResult:
    """Outcome of one covert-channel transmission experiment.

    Attributes:
        mechanism: protection preset of the shared predictor.
        smt: concurrent (SMT) scenario instead of time-shared.
        bits_sent: total payload bits transmitted.
        bit_errors: received bits that differed from the sent bits.
        symbols_per_second: assumed signalling rate used for the bandwidth
            estimate (one symbol = one PHT entry probed).
        training_executions: sender branch executions per transmitted bit.
    """

    mechanism: str
    smt: bool
    bits_sent: int
    bit_errors: int
    symbols_per_second: float = 100_000.0
    training_executions: int = 3

    @property
    def bit_error_rate(self) -> float:
        """Fraction of received bits that were wrong (0.5 = useless channel)."""
        if self.bits_sent == 0:
            return 0.5
        return self.bit_errors / self.bits_sent

    @property
    def capacity_bits_per_symbol(self) -> float:
        """Binary-symmetric-channel capacity: ``1 - H(error rate)`` bits."""
        return max(0.0, 1.0 - binary_entropy(min(0.5, self.bit_error_rate)))

    @property
    def bandwidth_bits_per_second(self) -> float:
        """Estimated usable bandwidth at the assumed signalling rate."""
        return self.capacity_bits_per_symbol * self.symbols_per_second


def _entry_pc(index: int, stride: int = 64) -> int:
    """PC of the ``index``-th signalling branch (spread across PHT entries)."""
    return _CHANNEL_BASE_PC + index * stride


def run_covert_channel(mechanism: str = "baseline", *,
                       payload_bits: int = 256,
                       bits_per_burst: int = 32,
                       training_executions: int = 3,
                       smt: bool = False,
                       predictor: str = "bimodal",
                       seed: int = 0xBEEF,
                       btb_sets: int = 256, btb_ways: int = 2
                       ) -> CovertChannelResult:
    """Transmit a pseudo-random payload through the PHT and measure errors.

    Args:
        mechanism: protection preset of the shared branch prediction unit.
        payload_bits: total number of payload bits to transmit.
        bits_per_burst: bits encoded per scheduling quantum; the OS switches
            from sender to receiver after each burst (and back), which is when
            flush- and key-based mechanisms act.
        training_executions: sender executions per bit (stronger training
            makes the baseline channel more reliable).
        smt: if True, sender and receiver run concurrently on two hardware
            threads instead of time-sharing one.
        predictor: direction predictor of the shared unit.
        seed: seed for the payload and the hardware keys.
        btb_sets: BTB geometry of the shared unit.
        btb_ways: BTB associativity.

    Returns:
        A :class:`CovertChannelResult` with the measured bit error rate.
    """
    if payload_bits <= 0:
        raise ValueError("payload_bits must be positive")
    if bits_per_burst <= 0:
        raise ValueError("bits_per_burst must be positive")
    rng = random.Random(seed)
    payload: List[int] = [rng.getrandbits(1) for _ in range(payload_bits)]
    bpu = make_bpu(predictor, mechanism, seed=seed, btb_sets=btb_sets,
                   btb_ways=btb_ways, btb_miss_forces_not_taken=True)
    env = AttackEnvironment(bpu, smt=smt)

    errors = 0
    for burst_start in range(0, payload_bits, bits_per_burst):
        burst = payload[burst_start:burst_start + bits_per_burst]
        # Sender quantum: encode each bit by training its congruent branch.
        env.run_as_victim()
        for offset, bit in enumerate(burst):
            pc = _entry_pc(burst_start + offset)
            for _ in range(training_executions):
                env.victim_branch(pc, bool(bit),
                                  _CHANNEL_TARGET if bit else pc + 4,
                                  BranchType.CONDITIONAL)
        # Receiver quantum: read back the predicted directions.
        env.run_as_attacker()
        for offset, bit in enumerate(burst):
            pc = _entry_pc(burst_start + offset)
            received = int(env.attacker_predicted_direction(pc))
            if received != bit:
                errors += 1
    bpu.release_kernels()
    return CovertChannelResult(mechanism=mechanism, smt=smt,
                               bits_sent=payload_bits, bit_errors=errors,
                               training_executions=training_executions)
