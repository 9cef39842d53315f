"""Set-associative Branch Target Buffer (BTB).

The BTB stores, per entry, a valid bit, a branch-type field, a partial tag
taken from the upper PC bits and the predicted target address.  It is the
structure attacked by Spectre-V2-style malicious training, Branch Shadowing
and the contention-based SBPA / Jump-over-ASLR attacks, and the structure
protected by **XOR-BTB** and **Noisy-XOR-BTB** (Section 5.1, Figure 4(a)):

* the *tag* and the *target address* are XORed with the thread-private
  content key before being written and after being read;
* with Noisy-XOR-BTB the *set index* is additionally XORed with the
  thread-private index key.

Both transformations are delegated to the attached
:class:`repro.predictors.table.TableIsolation` policy so that the same BTB
code serves the Baseline, flush-based and XOR-based configurations.

Hot-path layout
---------------

The simulation hot path works on **flat packed parallel arrays** rather than
per-way entry objects: one contiguous list per field (``valid``, ``tag``,
``target``, ``branch type``, ``owner``, ``LRU stamp``), each of length
``n_sets * n_ways`` with a per-set stride of ``n_ways``.  A set probe is a
``range(base, base + n_ways)`` walk over machine ints — no attribute loads,
no entry-object indirection.

On top of the arrays, the conditional and the indirect probes are served by
a **per-thread pair of generated kernels**
(:meth:`BranchTargetBuffer.exec_conditional_kernel` and the one behind
:meth:`BranchTargetBuffer.execute_indirect_fast`), emitted by one source
generator on the storage arm :func:`repro.predictors.kernelgen.storage_arm`
picks from the BTB's ``arm``: the geometry constants are inlined, and the
field arrays and the thread's decode masks are bound in the pair's shared
globals, so a branch pays no mask-cache lookup and no isolation-arm
branching.  The fused per-(thread, table) XOR masks of the XOR-family
presets are re-randomised only at switch time via the mask-cache
registration protocol on :class:`repro.core.isolation.XorContentIsolation`;
Precise Flush's owner check is emitted inline on the ``owner`` field.
Kernels follow the same protocol as the generated direction-predictor
kernels — the batched engines fetch them via the ``exec_*_kernel`` entry
point and re-fetch after every switch notification.  Key re-randomisation
marks a thread's pair stale through the registered mask cache, and the next
fetch writes the new masks into the pair's globals (no re-exec).

The scalar protocol (:meth:`lookup` / :meth:`update`) shares no arm code
with the kernels: it always goes through the policy's ``map_index`` /
``encode`` / ``decode`` and the owner check, and is the oracle the kernels
are tested against.  It, the attack framework and the flush machinery see
the exact same bits through the same arrays, and :class:`BTBEntry` remains
as the introspection value object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .kernelgen import make_kernel, storage_arm
from .table import (IdentityIsolation, TableIsolation, isolation_arm,
                    reset_template, row_diversifier_vector)
from ..types import BranchType

__all__ = ["BTBEntry", "BTBResult", "BranchTargetBuffer"]

_NO_OWNER = -1
_CONDITIONAL_INT = int(BranchType.CONDITIONAL)
_DIRECT_INT = int(BranchType.DIRECT)


@dataclass(slots=True)
class BTBEntry:
    """One BTB way, as a detached introspection snapshot.

    The ``tag`` and ``target`` fields hold the *stored* (possibly encoded)
    values; decoding happens on lookup with the key of the requesting thread.
    Since the storage itself lives in flat packed parallel arrays, instances
    of this class are value copies — mutating one does not write the BTB.
    """

    valid: bool = False
    tag: int = 0
    target: int = 0
    branch_type: int = _DIRECT_INT
    owner: int = _NO_OWNER
    last_use: int = 0


@dataclass(slots=True)
class BTBResult:
    """Result of a BTB lookup.

    Attributes:
        hit: True when a way's decoded tag matched the lookup PC.
        target: decoded predicted target (``None`` on a miss).
        set_index: physical set index that was probed.
        way: hitting way (``None`` on a miss).
    """

    hit: bool
    target: Optional[int]
    set_index: int
    way: Optional[int]


class BranchTargetBuffer:
    """Set-associative branch target buffer with pluggable isolation.

    Args:
        n_sets: number of sets (power of two).
        n_ways: associativity.
        tag_bits: width of the stored partial tag.
        target_bits: width of the stored target address.
        isolation: isolation policy (index mapping + tag/target encoding).
    """

    def __init__(self, n_sets: int = 512, n_ways: int = 2, *, tag_bits: int = 16,
                 target_bits: int = 32,
                 isolation: Optional[TableIsolation] = None) -> None:
        if n_sets < 1 or n_sets & (n_sets - 1):
            raise ValueError("n_sets must be a positive power of two")
        if n_ways < 1:
            raise ValueError("n_ways must be positive")
        self._n_sets = n_sets
        self._n_ways = n_ways
        self._index_bits = n_sets.bit_length() - 1
        self._index_mask = n_sets - 1
        self._tag_bits = tag_bits
        self._tag_mask = (1 << tag_bits) - 1
        self._target_bits = target_bits
        self._target_mask = (1 << target_bits) - 1
        self._tag_shift = 2 + self._index_bits
        self._isolation = isolation if isolation is not None else IdentityIsolation()
        #: The kernels' storage arm (see :func:`isolation_arm`); forced
        #: generic dispatch sets it to ``"generic"``.
        self.arm = isolation_arm(self._isolation)
        # Flat packed parallel arrays: one list per field, ``n_ways`` stride
        # per set.  All access paths (kernels, scalar protocol, flushes,
        # introspection) share these lists; they are reset in place so bound
        # references never go stale.
        total = n_sets * n_ways
        self._valid: List[bool] = [False] * total
        self._tags: List[int] = [0] * total
        self._targets: List[int] = [0] * total
        self._types: List[int] = [_DIRECT_INT] * total
        self._owners: List[int] = [_NO_OWNER] * total
        self._last: List[int] = [0] * total
        # Per-thread (index_key, tag_key, target_key) masks of the kernels'
        # fused-XOR arm, re-randomised at switch time via the isolation
        # policy's mask-cache protocol; the per-set row-diversifier vectors
        # are thread-independent and built lazily.
        self._xor_masks: dict = {}
        self._tag_row_keys: Optional[Tuple[int, ...]] = None
        self._target_row_keys: Optional[Tuple[int, ...]] = None
        # Per-thread (conditional, indirect) probe kernel pairs (generated,
        # way walk unrolled) and the compiled kernel code objects, keyed by
        # isolation arm.  ``_kernels`` holds the pairs whose masks are
        # current; it is registered as a second mask cache under XOR
        # policies, so key re-randomisation evicts a thread's pair from it
        # while ``_kernel_pool`` keeps it for the next fetch to rebind in
        # place.
        self._kernels: Dict[int, tuple] = {}
        self._kernel_pool: Dict[int, tuple] = {}
        self._kernel_code: Dict[tuple, object] = {}
        self._clock = 0
        self.name = "btb"
        self.lookups = 0
        self.hits = 0
        if self.arm == "fused-xor":
            self._isolation.register_fast_mask_cache(self, self._xor_masks,
                                                     self._build_xor_masks)
            self._kernel_token = object()
            self._isolation.register_fast_mask_cache(self._kernel_token,
                                                     self._kernels,
                                                     self._build_kernels)
        self._isolation.register_flushable(self)

    # -- geometry -------------------------------------------------------------
    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self._n_sets

    @property
    def n_ways(self) -> int:
        """Associativity."""
        return self._n_ways

    @property
    def index_bits(self) -> int:
        """Number of set-index bits."""
        return self._index_bits

    @property
    def tag_bits(self) -> int:
        """Width of the partial tag."""
        return self._tag_bits

    @property
    def target_bits(self) -> int:
        """Width of the stored target."""
        return self._target_bits

    @property
    def entry_bits(self) -> int:
        """Bits per entry (valid + type + tag + target), for the cost model."""
        return 1 + 3 + self._tag_bits + self._target_bits

    @property
    def storage_bits(self) -> int:
        """Total storage in bits."""
        return self._n_sets * self._n_ways * self.entry_bits

    @property
    def isolation(self) -> TableIsolation:
        """The attached isolation policy."""
        return self._isolation

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (1.0 when no lookups were made)."""
        if self.lookups == 0:
            return 1.0
        return self.hits / self.lookups

    # -- fused-XOR mask maintenance -------------------------------------------
    def _row_diversifier_keys(self) -> None:
        """Bind the per-set row-diffusion vectors (thread-independent,
        shared by every BTB of the same geometry)."""
        if self._tag_row_keys is not None:
            return
        diversified = getattr(self._isolation, "_row_diversified", False)
        self._tag_row_keys = row_diversifier_vector(
            self._n_sets, self._tag_mask if diversified else 0)
        self._target_row_keys = row_diversifier_vector(
            self._n_sets, self._target_mask if diversified else 0)

    def _build_xor_masks(self, thread_id: int) -> tuple:
        """(Re)compute the fused-XOR masks for one hardware thread."""
        self._row_diversifier_keys()
        isolation = self._isolation
        masks = (isolation.fused_index_key(thread_id, self._index_bits, self),
                 isolation.fused_content_key(thread_id, self._tag_bits, self),
                 isolation.fused_content_key(thread_id, self._target_bits, self))
        self._xor_masks[thread_id] = masks
        return masks

    # -- address decomposition ------------------------------------------------
    def logical_set_of(self, pc: int) -> int:
        """Set index derived from the PC before any index encoding."""
        return (pc >> 2) & self._index_mask

    def set_of(self, pc: int, thread_id: int = 0) -> int:
        """Physical set index actually probed for a PC by a given thread."""
        logical = self.logical_set_of(pc)
        mapped = self._isolation.map_index(logical, self._index_bits, thread_id, self)
        return mapped & self._index_mask

    def tag_of(self, pc: int) -> int:
        """Partial tag derived from the upper PC bits."""
        return (pc >> self._tag_shift) & self._tag_mask

    # -- probe kernels --------------------------------------------------------
    def exec_conditional_kernel(self, thread_id: int = 0):
        """Return the thread's fused conditional probe ``fn(pc, target, taken)``.

        The kernel binds the packed field arrays, the geometry constants
        and — under a plain-XOR policy — the thread's precomputed decode
        masks; it performs :meth:`execute_conditional_fast` for one
        hardware thread with no per-call mask lookups or isolation-arm
        branching.  After a key re-randomisation the next fetch returns the
        *same* kernel with the thread's new masks written into its globals;
        :meth:`invalidate_kernels` drops every kernel.  The batched engines
        re-fetch after every switch notification.  The callable accepts
        (and ignores) a trailing ``thread_id`` argument so engines can drive
        the kernel and the bound method through one call shape.
        """
        pair = self._kernels.get(thread_id)
        if pair is None:
            pair = self._build_kernels(thread_id)
        return pair[0]

    def invalidate_kernels(self) -> None:
        """Drop every cached probe kernel (tests / manual flag flips)."""
        self._kernels.clear()
        self._kernel_pool.clear()

    def _build_kernels(self, thread_id: int) -> tuple:
        """Return one thread's current (conditional, indirect) kernel pair.

        A pair evicted by a key re-randomisation is reused: only the mask
        globals the two kernels share are rewritten.  Otherwise a new pair
        is built.
        """
        pair = self._kernel_pool.get(thread_id)
        if pair is None:
            pair = self._kernel_pool[thread_id] = self._new_kernels(thread_id)
        elif pair[0].arm == "fused-xor":
            self._bind_masks(pair[0].__globals__, thread_id)
        self._kernels[thread_id] = pair
        return pair

    def _bind_masks(self, namespace: dict, thread_id: int) -> None:
        """Bind one thread's fused-XOR masks as kernel globals."""
        masks = self._xor_masks.get(thread_id)
        if masks is None:
            masks = self._build_xor_masks(thread_id)
        namespace["IK"], namespace["TK"], namespace["GK"] = masks

    def _new_kernels(self, thread_id: int) -> tuple:
        """Build one thread's (conditional, indirect) probe kernel pair.

        The passthrough, fused-XOR and owner arms are *generated* into one
        namespace: the way walk is unrolled with the geometry constants
        inlined as literals, while the field arrays and the thread's masks
        are bound in the shared globals, so key rotation swaps namespace
        entries instead of recompiling.  Non-XOR encoders (and forced
        generic dispatch) get the exact generic lookup + update sequences.
        """
        arm = storage_arm([self])
        if arm == "generic":
            btb = self
            owner = thread_id

            def conditional(pc, target, taken, _thread_id=0):
                result = btb.lookup(pc, owner)
                if taken:
                    btb.update(pc, target, owner, BranchType.CONDITIONAL)
                return result.hit, result.target

            def indirect(pc, target, branch_type, _thread_id=0):
                result = btb.lookup(pc, owner)
                btb.update(pc, target, owner, branch_type)
                return result.hit, result.target

            conditional.arm = indirect.arm = arm
            return conditional, indirect
        diversified = arm == "fused-xor" and bool(
            getattr(self._isolation, "_row_diversified", False))
        namespace = {
            "valid": self._valid, "tags": self._tags,
            "targets": self._targets, "types": self._types,
            "owners": self._owners, "last": self._last,
            "btb": self, "OWNER": thread_id,
        }
        if arm == "fused-xor":
            self._bind_masks(namespace, thread_id)
            if diversified:
                namespace["TRK"] = self._tag_row_keys
                namespace["GRK"] = self._target_row_keys

        def kernel(conditional: bool):
            key = ("btb" if conditional else "btb-indirect", arm, diversified)
            return make_kernel(
                self._kernel_code, key,
                lambda: self._cond_kernel_source(arm, diversified, conditional),
                namespace, arm)

        return kernel(True), kernel(False)

    def _cond_kernel_source(self, arm: str, diversified: bool,
                            conditional: bool = True) -> str:
        """Generate the source of one probe kernel arm.

        The conditional kernel ``fn(pc, target, taken)`` updates only taken
        branches and installs them as conditional; the indirect kernel
        (``conditional=False``) ``fn(pc, target, branch_type)`` always
        updates and installs ``branch_type``.  Statement order mirrors
        :meth:`lookup` + :meth:`update` exactly — the differential-parity
        suite holds the generated kernels, the generic dispatch and the
        scalar protocol bit-identical.

        On the owner arm a hit also needs the way to belong to the probing
        thread, while a taken branch's update re-finds the first valid way
        with a matching tag *whatever its owner* (:meth:`update`'s rule):
        the thread's own hit in way 1 does not rule out the same tag,
        installed by another thread, in way 0.
        """
        encoded = arm == "fused-xor"
        owned = arm == "owner"
        ways = self._n_ways
        idx = [f"i{w}" for w in range(ways)]
        lines = []
        emit = lines.append
        emit("def _kernel(pc, target, taken, _thread_id=0):" if conditional
             else "def _kernel(pc, target, branch_type, _thread_id=0):")
        emit("    btb.lookups += 1")
        emit("    clock = btb._clock + 1")
        if encoded:
            emit(f"    set_index = ((pc >> 2) ^ IK) & {self._index_mask}")
            if diversified:
                emit("    dec_tag = TK ^ TRK[set_index]")
                emit("    dec_target = GK ^ GRK[set_index]")
                emit(f"    enc_tag = ((pc >> {self._tag_shift})"
                     f" & {self._tag_mask}) ^ dec_tag")
            else:
                emit(f"    enc_tag = ((pc >> {self._tag_shift})"
                     f" & {self._tag_mask}) ^ TK")
        else:
            emit(f"    set_index = (pc >> 2) & {self._index_mask}")
            emit(f"    enc_tag = (pc >> {self._tag_shift}) & {self._tag_mask}")
        emit(f"    i0 = set_index * {ways}" if ways > 1
             else "    i0 = set_index")
        for w in range(1, ways):
            emit(f"    i{w} = i0 + {w}")
        if encoded and diversified:
            read = "(targets[{i}] ^ dec_target) & " + str(self._target_mask)
            write = f"(target & {self._target_mask}) ^ dec_target"
        elif encoded:
            read = "(targets[{i}] ^ GK) & " + str(self._target_mask)
            write = f"(target & {self._target_mask}) ^ GK"
        else:
            read = "targets[{i}] & " + str(self._target_mask)
            write = f"target & {self._target_mask}"
        emit("    hit = False")
        emit("    btb_target = None")
        emit("    victim = -1")
        mine = " and owners[{i}] == OWNER" if owned else ""
        for w, i in enumerate(idx):
            emit(f"    {'if' if w == 0 else 'elif'} valid[{i}]"
                 f" and tags[{i}] == enc_tag{mine.format(i=i)}:")
            emit(f"        last[{i}] = clock")
            emit("        btb.hits += 1")
            emit("        hit = True")
            emit(f"        btb_target = {read.format(i=i)}")
            emit(f"        victim = {i}")
        if conditional:
            emit("    if taken:")
        pad = "        " if conditional else "    "
        emit(f"{pad}clock += 1")
        if owned:
            for w, i in enumerate(idx):
                emit(f"{pad}{'if' if w == 0 else 'elif'} valid[{i}]"
                     f" and tags[{i}] == enc_tag:")
                emit(f"{pad}    victim = {i}")
            emit(f"{pad}else:")
            emit(f"{pad}    victim = -1")
        emit(f"{pad}if victim < 0:")
        for w, i in enumerate(idx):
            emit(f"{pad}    {'if' if w == 0 else 'elif'} not valid[{i}]:")
            emit(f"{pad}        victim = {i}")
        emit(f"{pad}    else:")
        emit(f"{pad}        victim = {idx[0]}")
        if ways > 1:
            emit(f"{pad}        low = last[{idx[0]}]")
            for i in idx[1:]:
                emit(f"{pad}        if last[{i}] < low:")
                emit(f"{pad}            low = last[{i}]")
                emit(f"{pad}            victim = {i}")
        emit(f"{pad}valid[victim] = True")
        emit(f"{pad}tags[victim] = enc_tag")
        emit(f"{pad}targets[victim] = {write}")
        emit(f"{pad}types[victim] = "
             + (str(_CONDITIONAL_INT) if conditional else "int(branch_type)"))
        emit(f"{pad}owners[victim] = OWNER")
        emit(f"{pad}last[victim] = clock")
        emit("    btb._clock = clock")
        emit("    return hit, btb_target")
        return "\n".join(lines) + "\n"

    # -- prediction protocol --------------------------------------------------
    def execute_conditional_fast(self, pc: int, target: int, taken: bool,
                                 thread_id: int = 0) -> tuple:
        """Fused conditional-branch probe: lookup plus update-if-taken.

        Behaviourally identical to :meth:`lookup` followed by :meth:`update`
        (for taken branches), returning ``(hit, target)``; runs the thread's
        conditional kernel (see :meth:`exec_conditional_kernel`).
        """
        pair = self._kernels.get(thread_id)
        if pair is None:
            pair = self._build_kernels(thread_id)
        return pair[0](pc, target, taken)

    def execute_indirect_fast(self, pc: int, target: int,
                              branch_type: BranchType,
                              thread_id: int = 0) -> tuple:
        """Fused unconditional/indirect probe: lookup plus unconditional update.

        Behaviourally identical to :meth:`lookup` followed by :meth:`update`
        (unconditional branches always train the BTB), returning
        ``(hit, target)``; runs the indirect kernel of the thread's pair
        (see :meth:`exec_conditional_kernel`).
        """
        pair = self._kernels.get(thread_id)
        if pair is None:
            pair = self._build_kernels(thread_id)
        return pair[1](pc, target, branch_type)

    def lookup(self, pc: int, thread_id: int = 0) -> BTBResult:
        """Predict the target of the branch at ``pc`` for a hardware thread."""
        self.lookups += 1
        self._clock += 1
        set_index = self.set_of(pc, thread_id)
        lookup_tag = self.tag_of(pc)
        base = set_index * self._n_ways
        tracks_owner = self._isolation.tracks_owner
        for way in range(self._n_ways):
            i = base + way
            if not self._valid[i]:
                continue
            if tracks_owner and self._owners[i] != thread_id:
                # Thread-ID-tagged BTB (Precise Flush): entries are only
                # visible to the hardware thread that installed them.
                continue
            stored_tag = self._isolation.decode(self._tags[i], self._tag_bits,
                                                thread_id, self, set_index)
            if stored_tag == lookup_tag:
                target = self._isolation.decode(self._targets[i], self._target_bits,
                                                thread_id, self, set_index)
                self._last[i] = self._clock
                self.hits += 1
                return BTBResult(hit=True, target=target & self._target_mask,
                                 set_index=set_index, way=way)
        return BTBResult(hit=False, target=None, set_index=set_index, way=None)

    def update(self, pc: int, target: int, thread_id: int = 0,
               branch_type: BranchType = BranchType.DIRECT) -> int:
        """Install or refresh the entry for a *taken* branch.

        Following the BTB update rule exploited by SBPA (Section 2.1), the BTB
        is only updated for taken branches; the caller enforces that.  The
        set and the stored tag and target always come from the policy's
        ``map_index``/``encode`` (the oracle of the probe kernels, which
        emit the storage arm inline).

        Returns:
            The way that was written (useful for tests and attack analysis).
        """
        self._clock += 1
        set_index = self.set_of(pc, thread_id)
        encoded_tag = self._isolation.encode(self.tag_of(pc), self._tag_bits,
                                             thread_id, self,
                                             set_index) & self._tag_mask
        encoded_target = self._isolation.encode(
            target & self._target_mask, self._target_bits, thread_id, self,
            set_index) & self._target_mask
        valid = self._valid
        tags = self._tags
        last = self._last
        base = set_index * self._n_ways
        end = base + self._n_ways

        # Re-use a way whose stored tag matches (same branch, same thread),
        # else an invalid way, else the LRU way (first minimum, matching the
        # original ``min()`` tie-break).
        victim = -1
        for i in range(base, end):
            if valid[i] and tags[i] == encoded_tag:
                victim = i
                break
        if victim < 0:
            for i in range(base, end):
                if not valid[i]:
                    victim = i
                    break
        if victim < 0:
            victim = base
            low = last[base]
            for i in range(base + 1, end):
                if last[i] < low:
                    low = last[i]
                    victim = i

        valid[victim] = True
        tags[victim] = encoded_tag
        self._targets[victim] = encoded_target
        self._types[victim] = int(branch_type)
        self._owners[victim] = thread_id
        last[victim] = self._clock
        return victim - base

    # -- flush protocol -------------------------------------------------------
    def flush(self) -> None:
        """Invalidate every entry (Complete Flush).

        Fields are reset in place so references bound by the probe kernels
        stay valid.
        """
        total = self._n_sets * self._n_ways
        self._valid[:] = reset_template(False, total)
        self._owners[:] = reset_template(_NO_OWNER, total)

    def flush_thread(self, thread_id: int) -> None:
        """Invalidate entries installed by one hardware thread (Precise Flush).

        The thread's ways are found by ``list.index`` (one C scan in all),
        so the Python work is proportional to the ways it owns.
        """
        valid = self._valid
        owners = self._owners
        i = -1
        try:
            while True:
                i = owners.index(thread_id, i + 1)
                if valid[i]:
                    valid[i] = False
                    owners[i] = _NO_OWNER
        except ValueError:  # no way past the last one found
            pass

    # -- introspection (tests, attacks, cost model) ---------------------------
    def _entry_at(self, i: int) -> BTBEntry:
        return BTBEntry(self._valid[i], self._tags[i], self._targets[i],
                        self._types[i], self._owners[i], self._last[i])

    def entries_in_set(self, set_index: int) -> List[BTBEntry]:
        """Raw (stored/encoded) entry snapshots of a physical set."""
        base = (set_index & self._index_mask) * self._n_ways
        return [self._entry_at(base + way) for way in range(self._n_ways)]

    def valid_entry_count(self, thread_id: Optional[int] = None) -> int:
        """Number of valid entries, optionally restricted to one owner."""
        if thread_id is None:
            return sum(1 for v in self._valid if v)
        return sum(1 for v, owner in zip(self._valid, self._owners)
                   if v and owner == thread_id)

    def snapshot(self) -> List[List[BTBEntry]]:
        """Deep copy of all entries (attack framework uses it to diff state)."""
        return [self.entries_in_set(s) for s in range(self._n_sets)]

    def raw_sets(self) -> List[List[tuple]]:
        """Raw stored ``(valid, tag, target)`` triples per set (tests)."""
        return [[(self._valid[i], self._tags[i], self._targets[i])
                 for i in range(s * self._n_ways, (s + 1) * self._n_ways)]
                for s in range(self._n_sets)]

    def reset_stats(self) -> None:
        """Clear lookup/hit counters (state is untouched)."""
        self.lookups = 0
        self.hits = 0
