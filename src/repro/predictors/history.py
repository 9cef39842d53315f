"""Branch history registers.

Direction predictors consume several kinds of history:

* a *global history register* (GHR) of recent conditional-branch outcomes,
* a *path history* of recent branch addresses,
* *local history* per static branch (Tournament / TAGE-SC-L local components).

All of them are modelled here as per-hardware-thread structures.  The paper's
threat model (Section 3) notes that commercial SMT cores already keep the RAS
thread-private; we likewise keep the history *registers* thread-private (they
are tiny), while the history *tables* they index are the shared structures
that need isolation.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["GlobalHistory", "PathHistory", "LocalHistoryTable", "fold_history"]


def fold_history(history: int, history_bits: int, folded_bits: int) -> int:
    """Fold a long history register down to ``folded_bits`` bits by XOR.

    TAGE-style predictors use very long global histories (hundreds or
    thousands of bits); indexing a table requires folding the history into the
    index width.  The standard approach XORs successive ``folded_bits``-wide
    chunks together.

    Args:
        history: history register value (unsigned).
        history_bits: number of meaningful bits in ``history``.
        folded_bits: desired output width.

    Returns:
        The folded value in ``[0, 2**folded_bits)``.
    """
    if folded_bits <= 0:
        return 0
    mask = (1 << folded_bits) - 1
    if history_bits <= folded_bits:
        return history & mask
    folded = 0
    remaining = history
    bits_left = history_bits
    while bits_left > 0:
        folded ^= remaining & mask
        remaining >>= folded_bits
        bits_left -= folded_bits
    return folded & mask


class GlobalHistory:
    """Per-hardware-thread global branch history register.

    The register shifts in one bit per conditional branch outcome (1 = taken).
    Arbitrarily long histories are supported so that the same class serves the
    12-bit Tournament global history and the 3000-bit TAGE-SC-L history.
    """

    def __init__(self, bits: int) -> None:
        if bits < 1:
            raise ValueError("history length must be positive")
        self._bits = bits
        self._mask = (1 << bits) - 1
        self._values: Dict[int, int] = {}

    @property
    def bits(self) -> int:
        """Length of the history register in bits."""
        return self._bits

    def value(self, thread_id: int = 0) -> int:
        """Current history register value for a hardware thread."""
        return self._values.get(thread_id, 0)

    def low_bits(self, n: int, thread_id: int = 0) -> int:
        """Return the ``n`` most recent outcome bits."""
        return self.value(thread_id) & ((1 << n) - 1)

    def folded(self, n: int, thread_id: int = 0) -> int:
        """Return the full history folded down to ``n`` bits."""
        return fold_history(self.value(thread_id), self._bits, n)

    def push(self, taken: bool, thread_id: int = 0) -> None:
        """Shift a resolved branch outcome into the history register."""
        current = self._values.get(thread_id, 0)
        self._values[thread_id] = ((current << 1) | int(taken)) & self._mask

    def set(self, value: int, thread_id: int = 0) -> None:
        """Force the history register to an absolute value (tests / recovery)."""
        self._values[thread_id] = value & self._mask

    def clear(self, thread_id: int | None = None) -> None:
        """Clear the history of one thread, or of all threads when ``None``."""
        if thread_id is None:
            self._values.clear()
        else:
            self._values.pop(thread_id, None)


class PathHistory:
    """Per-hardware-thread path history (recent branch address bits).

    Each retired branch contributes a few low-order PC bits; the Tournament
    predictor and TAGE use the path history to decorrelate table indices.
    """

    def __init__(self, bits: int, pc_bits_per_branch: int = 2) -> None:
        if bits < 1:
            raise ValueError("path history length must be positive")
        self._bits = bits
        self._mask = (1 << bits) - 1
        self._pc_bits = pc_bits_per_branch
        self._values: Dict[int, int] = {}

    @property
    def bits(self) -> int:
        """Length of the path history register in bits."""
        return self._bits

    def value(self, thread_id: int = 0) -> int:
        """Current path history value for a hardware thread."""
        return self._values.get(thread_id, 0)

    def folded(self, n: int, thread_id: int = 0) -> int:
        """Return the path history folded down to ``n`` bits."""
        return fold_history(self.value(thread_id), self._bits, n)

    def push(self, pc: int, thread_id: int = 0) -> None:
        """Shift low-order PC bits of a retired branch into the register."""
        current = self._values.get(thread_id, 0)
        contribution = (pc >> 2) & ((1 << self._pc_bits) - 1)
        self._values[thread_id] = ((current << self._pc_bits) | contribution) & self._mask

    def clear(self, thread_id: int | None = None) -> None:
        """Clear the path history of one thread, or of all threads when ``None``."""
        if thread_id is None:
            self._values.clear()
        else:
            self._values.pop(thread_id, None)


class LocalHistoryTable:
    """First-level local history table (per static branch pattern history).

    The Alpha-21264-style Tournament predictor keeps an 11-bit pattern of
    recent outcomes for up to 2048 branches; TAGE-SC-L's statistical corrector
    uses several smaller local history tables.  The table itself is a shared
    structure indexed by PC bits, so unlike the history *registers* it is a
    candidate for isolation; however, because its contents feed a second-level
    table rather than being interpreted directly, the paper treats the
    second-level tables as the encoding targets.  We therefore model it as a
    plain (unencoded) array but give it ``flush`` support so flush-based
    mechanisms cover it.
    """

    def __init__(self, n_entries: int, history_bits: int) -> None:
        if n_entries < 1 or n_entries & (n_entries - 1):
            raise ValueError("n_entries must be a positive power of two")
        self._n_entries = n_entries
        self._index_mask = n_entries - 1
        self._bits = history_bits
        self._mask = (1 << history_bits) - 1
        self._entries = [0] * n_entries

    @property
    def n_entries(self) -> int:
        """Number of local history entries."""
        return self._n_entries

    @property
    def history_bits(self) -> int:
        """Width of each local history pattern."""
        return self._bits

    def index_of(self, pc: int) -> int:
        """Table index for a branch PC."""
        return (pc >> 2) & self._index_mask

    def read(self, pc: int) -> int:
        """Return the local history pattern for a branch."""
        return self._entries[self.index_of(pc)]

    def push(self, pc: int, taken: bool) -> None:
        """Shift a resolved outcome into the branch's local history."""
        idx = self.index_of(pc)
        self._entries[idx] = ((self._entries[idx] << 1) | int(taken)) & self._mask

    def flush(self) -> None:
        """Clear all local histories (used by flush-based isolation).

        Reset in place: generated predictor kernels bind the entry list.
        """
        self._entries[:] = [0] * self._n_entries
