"""NumPy-vectorized execution backend.

The scalar reference kernels (:mod:`repro.predictors.tage`,
:mod:`repro.predictors.gshare`, :mod:`repro.predictors.btb`) spend most
of their time on *per-branch bookkeeping that only depends on the PC and
outcome stream*: folding global/path history into table indices, hashing
tags, and locating packed counter words.  Those quantities form closed
trajectories over a known upcoming record stream — nothing in them reads
table *contents* — so they can be batch-computed with NumPy ahead of
time.  What cannot be hoisted is the sequential dependency through the
tables themselves (a branch's update changes the word the next branch
may read) and through the adaptive state (``use_alt``, the useful-reset
counter, LRU clocks); those stay scalar, exactly mirroring the reference
kernel statement order, so results are **bit-identical** by
construction.

Mechanics
---------

The engines announce the upcoming record stream through the advisory
``feed(buf, pos)`` protocol (see :mod:`repro.engine.backends`).  A fed
kernel builds a *window*: it scans the buffer for conditional records,
vectorizes every stream-dependent quantity for up to ``_WINDOW_MAX`` of
them, and then consumes the window one branch at a time with a generated
scalar kernel that replaces the history/hash arithmetic with list
indexing.  Every consume call verifies the ``(pc, taken)`` it was handed
against the window cursor; any deviation (or a call with no window)
falls back to the reference kernel, which reads the live history state
and is therefore always correct.  Windows die with their underlying
reference kernel: flushes, key rotation and stats resets drop the
reference kernel through the existing mask-cache protocol, and the fetch
wrapper rebuilds against fresh masks on the next fetch.

Everything here is an execution strategy only: ``ENGINE_VERSION``,
cache keys and store payloads are untouched, and the golden-trace and
differential suites hold this backend bit-identical to ``python``.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional

import numpy as np

from ..predictors.btb import BranchTargetBuffer
from ..predictors.gshare import GsharePredictor
from ..predictors.tage import TagePredictor
from ..types import BranchType
from .backends import ExecutionBackend

__all__ = ["NumpyBackend"]

_COND = BranchType.CONDITIONAL

#: Reference-kernel arms the window kernels reproduce.  Every other arm
#: (owner tracking, generic dispatch) keeps the reference kernel.
_VECTOR_ARMS = ("passthrough", "fused-xor")

#: Maximum conditional branches vectorized per window refill.
_WINDOW_MAX = 4096


# ---------------------------------------------------------------------------
# History trajectory helpers
# ---------------------------------------------------------------------------

def _bit_ext(value: int, cap: int, outcomes: np.ndarray) -> np.ndarray:
    """Outcome-bit timeline: ``cap`` prior bits of ``value``, then outcomes.

    ``ext[cap - 1 - m]`` is bit ``m`` of the prior register (the outcome
    ``m + 1`` branches ago); ``ext[cap + k]`` is window outcome ``k``.
    """
    n = outcomes.shape[0]
    ext = np.empty(cap + n, dtype=np.int64)
    ext[:cap] = [(value >> m) & 1 for m in range(cap - 1, -1, -1)]
    ext[cap:] = outcomes
    return ext


def _fold_trajectory(width: int, lengths: np.ndarray, f0: np.ndarray,
                     outcomes: np.ndarray, ext: np.ndarray,
                     cap: int) -> np.ndarray:
    """All-lane folded-register trajectory under the SWAR push.

    The reference push (:meth:`TagePredictor._push_history`) advances
    each width-``w`` lane as ``f' = rotl1(f) ^ outcome ^ (old << (L % w))``
    where ``old`` is the bit leaving the lane's ``L``-deep history
    window.  Rotation commutes into a closed form::

        f_i = rotl(i % w, f_0 ^ XOR_{j<i} rotr((j+1) % w, b_j)),
        b_j = outcome_j ^ (old_j << (L % w)),  old_j = ext[cap + j - L]

    which vectorizes to one ``bitwise_xor.accumulate`` over the window.
    Returns shape ``(n_branches + 1, n_lanes)``: row 0 is the pre-window
    state, row ``i`` the state entering branch ``i``.
    """
    n = outcomes.shape[0]
    wmask = (1 << width) - 1
    ins = lengths % width
    idx = np.arange(n, dtype=np.int64)[:, None] + (cap - lengths)[None, :]
    b = outcomes[:, None] ^ (ext[idx] << ins[None, :])
    s1 = (np.arange(1, n + 1, dtype=np.int64) % width)[:, None]
    d = ((b >> s1) | (b << (width - s1))) & wmask
    c = np.empty((n + 1, lengths.shape[0]), dtype=np.int64)
    c[0] = f0
    np.bitwise_xor(f0[None, :], np.bitwise_xor.accumulate(d, axis=0),
                   out=c[1:])
    s2 = (np.arange(n + 1, dtype=np.int64) % width)[:, None]
    return ((c << s2) | (c >> (width - s2))) & wmask


def _lane_groups(n_lanes: int, pitch: int, width: int):
    """Partition SWAR lanes into int64-safe groups for bulk writeback.

    Lane ``t`` sits at absolute offset ``t * pitch``; a group ``[a, b)``
    is rebased to lane ``a`` and must keep its top bit below bit 63 so
    the packed trajectory fits a signed int64 array.
    """
    groups = []
    start = 0
    while start < n_lanes:
        end = start + 1
        while end < n_lanes and (end - start) * pitch + width <= 63:
            end += 1
        groups.append((start, end))
        start = end
    return groups


# ---------------------------------------------------------------------------
# Window state machine (shared by all consume kernels)
# ---------------------------------------------------------------------------

class _Window:
    """Vectorized lookahead over one trace buffer's conditional branches.

    Owns the cursor ``ns["W"] = [cursor, limit]`` read by the generated
    consume kernel and the miss handler the kernel bails to.  ``feed``
    is idempotent for in-stream positions, rebuilds otherwise; ``miss``
    refills when the window is merely exhausted and otherwise invalidates
    and delegates to the reference kernel for the rest of the buffer.
    """

    __slots__ = ("ns", "base", "precompute", "kernel", "buf",
                 "scan_from", "cond_pos", "__weakref__")

    def __init__(self, ns: dict, base, precompute) -> None:
        self.ns = ns
        self.base = base
        self.precompute = precompute
        self.kernel = None
        self.buf = None
        self.scan_from = 0
        self.cond_pos: List[int] = []
        ns["W"] = [0, 0]
        # The consume kernel owns the window (through ``kernel.feed``); the
        # links back from its globals and from the window are weak, so a
        # dropped kernel dies by reference counting.
        miss = weakref.WeakMethod(self.miss)
        ns["_miss"] = lambda *args: miss()(*args)

    def bind(self, code, arm: str):
        """Run the compiled consume ``code`` in the window's namespace and
        return its kernel, wired to this window."""
        exec(code, self.ns)
        fn = self.ns.pop("_kernel")
        self.kernel = weakref.ref(fn)
        fn.feed = self.feed
        fn.arm = arm
        fn.backend = "numpy"
        return fn

    def feed(self, buf, pos: int) -> None:
        w = self.ns["W"]
        if buf is self.buf and pos <= self.scan_from:
            cur = w[0]
            if cur >= w[1] or pos <= self.cond_pos[cur]:
                return  # already covering this position
        self.buf = buf
        self.scan_from = pos
        w[0] = 0
        w[1] = 0
        self._refill()

    def _refill(self) -> bool:
        buf = self.buf
        cond = _COND
        items: List[int] = []
        pcs: List[int] = []
        tks: List[bool] = []
        add_pos = items.append
        add_pc = pcs.append
        add_tk = tks.append
        for j in range(self.scan_from, len(buf)):
            rec = buf[j]
            if rec[3] is cond:
                add_pos(j)
                add_pc(rec[0])
                add_tk(rec[1])
        if len(items) > _WINDOW_MAX:
            del items[_WINDOW_MAX:]
            del pcs[_WINDOW_MAX:]
            del tks[_WINDOW_MAX:]
            self.scan_from = items[-1] + 1
        else:
            self.scan_from = len(buf)
        if not items:
            return False
        self.cond_pos = items
        ns = self.ns
        ns["PCS"] = pcs
        ns["TKN"] = tks
        self.precompute(pcs, tks, ns)
        w = ns["W"]
        w[0] = 0
        w[1] = len(items)
        return True

    def miss(self, *args):
        ns = self.ns
        w = ns["W"]
        if (w[0] >= w[1] and self.buf is not None
                and self.scan_from < len(self.buf)):
            # Window exhausted mid-buffer: vectorize the next stretch.
            if self._refill():
                return self.kernel()(*args)
        # Stream deviation (or no feed): run the rest of the buffer on
        # the reference kernel, which reads the live history state.
        self.buf = None
        w[0] = 0
        w[1] = 0
        return self.base(*args)


def _chunk_fold(values: np.ndarray, total_bits: int, width: int,
                mask: int) -> np.ndarray:
    """Vectorized ``fold_history``: XOR of ``width``-bit chunks."""
    folded = np.zeros_like(values)
    for shift in range(0, total_bits, width):
        folded ^= values >> shift
    return folded & mask


# ---------------------------------------------------------------------------
# TAGE
# ---------------------------------------------------------------------------

class _TagePre:
    """Per-(predictor, thread) window precompute for the TAGE kernel."""

    def __init__(self, p: TagePredictor, thread_id: int, bundle) -> None:
        cfg = p.config
        self.tid = thread_id
        self.n = cfg.n_tables
        self.ibits = p._index_bits
        self.imask = (1 << self.ibits) - 1
        self.tmask = p._tag_mask
        self.lengths = np.asarray(p._history_lengths, dtype=np.int64)
        self.cap = p._ghr._bits
        self.gmask = p._ghr._mask
        self.tshift = np.arange(self.n, dtype=np.int64) & 3
        encoded = bundle[0] == "fused-xor"
        self.encoded = encoded
        # Per-table fused index keys (passthrough: the bare hash constant
        # ``t * 0x1F``); entry layout is shared by both bundle shapes.
        self.mk = np.asarray([entry[2] for entry in bundle[1]],
                             dtype=np.int64)
        # Path history geometry.
        path = p._path
        self.pbits = path._bits
        self.pmask = path._mask
        self.pcb = path._pc_bits
        self.pcmask = (1 << self.pcb) - 1
        self.pchunks = -(-self.pbits // self.pcb)
        # Base (bimodal) word coordinates.
        self.bimask = p._base_index_mask
        self.cpw = p._base_cpw
        self.cbits = p._base_counter_bits
        self.pow2 = self.cpw & (self.cpw - 1) == 0
        self.brshift = self.cpw.bit_length() - 1
        self.bik = bundle[2] if encoded else 0
        self.bwindex = p._base_words._index_mask
        # The three folded SWAR register files and their writeback groups.
        self.files = []
        for swar in (p._swar_i, p._swar_t0, p._swar_t1):
            width = swar.width
            offsets = swar.lane_offsets
            self.files.append((width, offsets,
                               _lane_groups(self.n, width + 1, width)))

    def __call__(self, pcs_list, tks_list, ns: dict) -> None:
        pcs = np.asarray(pcs_list, dtype=np.int64)
        outc = np.asarray(tks_list, dtype=np.int64)
        nbr = pcs.shape[0]
        tid = self.tid
        regs = ns["regs"]
        ghr0 = ns["ghr_values"].get(tid, 0)
        path0 = ns["path_values"].get(tid, 0)

        # Folded-register trajectories (shape (nbr + 1, n_tables) each).
        ext = _bit_ext(ghr0, self.cap, outc)
        trajs = []
        for k, (width, offsets, _groups) in enumerate(self.files):
            wmask = (1 << width) - 1
            f0 = np.asarray([(regs[k] >> off) & wmask for off in offsets],
                            dtype=np.int64)
            trajs.append(_fold_trajectory(width, self.lengths, f0, outc,
                                          ext, self.cap))

        # Path-history trajectory and its per-branch fold.
        K = self.pchunks
        pcb = self.pcb
        pext = np.empty(K + nbr, dtype=np.int64)
        pext[:K] = [(path0 >> ((K - 1 - j) * pcb)) & self.pcmask
                    for j in range(K)]
        pext[K:] = (pcs >> 2) & self.pcmask
        pv = np.zeros(nbr + 1, dtype=np.int64)
        for m in range(K):
            pv |= pext[K - 1 - m: K - 1 - m + nbr + 1] << (m * pcb)
        pv &= self.pmask
        pf = _chunk_fold(pv[:nbr], self.pbits, self.ibits, self.imask)

        # Per-table rows and tags (lookup *and* allocation reuse these).
        pc2 = pcs >> 2
        pc_bits = pc2 ^ (pcs >> (2 + self.ibits))
        fI, fT0, fT1 = trajs
        rows = (pc_bits[:, None] ^ fI[:nbr]
                ^ (pf[:, None] >> self.tshift[None, :])
                ^ self.mk[None, :]) & self.imask
        tags = (pc2[:, None] ^ fT0[:nbr] ^ (fT1[:nbr] << 1)) & self.tmask
        rows_t = rows.T.tolist()
        tags_t = tags.T.tolist()
        for t in range(self.n):
            ns[f"CR{t}"] = rows_t[t]
            ns[f"CT{t}"] = tags_t[t]

        # Base PHT word coordinates.
        bidx = pc2 & self.bimask
        if self.pow2:
            bshift = (bidx & (self.cpw - 1)) * self.cbits
            brow = bidx >> self.brshift
        else:
            bshift = (bidx % self.cpw) * self.cbits
            brow = bidx // self.cpw
        if self.encoded:
            brow = (brow ^ self.bik) & self.bwindex
        ns["CBR"] = brow.tolist()
        ns["CBS"] = bshift.tolist()

        # Post-push register writebacks, packed per int64-safe lane group.
        for k, (_width, offsets, groups) in enumerate(self.files):
            post = trajs[k][1:]
            for a, b in groups:
                base_off = offsets[a]
                acc = post[:, a].copy()
                for t in range(a + 1, b):
                    acc |= post[:, t] << (offsets[t] - base_off)
                ns[f"RG{k}_{a}"] = acc.tolist()
        ns["PV"] = pv[1:].tolist()


def _tage_consume_source(p: TagePredictor, encoded: bool,
                         diversified: bool) -> str:
    """Generate the window-consuming arm of the TAGE kernel.

    Statement order mirrors :meth:`TagePredictor._kernel_source` exactly;
    the history folds, index/tag hashes and base-word coordinates are
    replaced by precomputed-array reads, and the SWAR history push by the
    precomputed post-push register values.  Everything that threads
    sequential state (table words, ``use_alt``, the useful-reset counter,
    allocation) is byte-for-byte the reference arithmetic.
    """
    cfg = p.config
    n = cfg.n_tables
    ibits = p._index_bits
    imask = (1 << ibits) - 1
    tmask = p._tag_mask
    ubits = cfg.useful_bits
    cmask = p._ctr_mask
    umask = p._u_mask
    ctr_shift = ubits + cfg.counter_bits
    weak = p._ctr_weak_taken
    thresh = 1 << (cfg.counter_bits - 1)
    entries = cfg.table_entries
    boff = p._base_words._offset
    bcmask = (1 << p._base_counter_bits) - 1
    gmask = p._ghr._mask

    lines = []
    emit = lines.append
    emit("def _kernel(pc, taken, thread_id=0):")
    emit("    i = W[0]")
    emit("    if i >= W[1] or PCS[i] != pc or TKN[i] != taken:")
    emit("        return _miss(pc, taken)")
    emit("    W[0] = i + 1")
    emit("    provider = -1")
    emit("    alt = -1")
    emit("    provider_ctr = 0")
    for t in range(n):
        toff = t * entries
        emit(f"    row = CR{t}[i]")
        cell = f"flat[{toff} + row]" if toff else "flat[row]"
        if encoded:
            decode = f" ^ CK{t}" + (f" ^ RK{t}[row]" if diversified else "")
            emit(f"    word = {cell}{decode}")
        else:
            emit(f"    word = {cell}")
        emit("    if word:")
        emit(f"        tag = CT{t}[i]")
        emit(f"        if ((word >> {ctr_shift}) & {tmask}) == tag:")
        emit("            alt = provider")
        emit("            alt_ctr = provider_ctr")
        emit(f"            provider = {t}")
        emit("            provider_row = row")
        emit("            provider_tag = tag")
        emit(f"            provider_ctr = (word >> {ubits}) & {cmask}")
        emit(f"            provider_useful = word & {umask}")
        emit(f"            provider_base = {toff}")
        if encoded:
            emit(f"            provider_ck = CK{t}")
            if diversified:
                emit(f"            provider_rk = RK{t}")
            emit(f"            provider_ik = IK{t}")
    emit("    base_row = CBR[i]")
    emit("    base_shift = CBS[i]")
    base_cell = (f"base_data[{boff} + base_row]" if boff
                 else "base_data[base_row]")
    base_decode = ""
    if encoded:
        base_decode = " ^ BCK" + (" ^ BRK[base_row]" if diversified else "")
    emit(f"    base_word = {base_cell}{base_decode}")
    emit(f"    base_counter = (base_word >> base_shift) & {bcmask}")
    emit(f"    base_taken = base_counter >= {p._base_threshold}")
    emit(f"    alt_taken = (alt_ctr >= {thresh}) if alt >= 0 else base_taken")
    emit("    if provider >= 0:")
    emit(f"        provider_taken = provider_ctr >= {thresh}")
    emit("        use_alt = (provider_useful == 0")
    emit(f"                   and {weak - 1} <= provider_ctr <= {weak}")
    emit(f"                   and predictor._use_alt >= "
         f"{1 << (cfg.use_alt_bits - 1)})")
    emit("        predicted = alt_taken if use_alt else provider_taken")
    emit("    else:")
    emit("        use_alt = False")
    emit("        predicted = base_taken")
    emit("    pstats.lookups += 1")
    emit("    mispredicted = predicted != taken")
    emit("    if mispredicted:")
    emit("        pstats.mispredictions += 1")
    emit("    count = predictor._update_count + 1")
    emit("    predictor._update_count = count")
    emit(f"    reset_fired = count % {cfg.useful_reset_period} == 0")
    emit("    if reset_fired:")
    emit("        predictor._graceful_useful_reset(TID)")
    emit("    if provider >= 0:")
    emit("        ctr = provider_ctr")
    emit("        useful = provider_useful")
    emit("        if reset_fired:")
    if encoded:
        emit("            word = predictor._tables[provider].read("
             f"(provider_row ^ provider_ik) & {imask}, TID)")
    else:
        emit("            word = predictor._tables[provider].read("
             "provider_row, TID)")
    emit(f"            ctr = (word >> {ubits}) & {cmask}")
    emit(f"            useful = word & {umask}")
    emit(f"        provider_taken = ctr >= {thresh}")
    emit(f"        if use_alt or (useful == 0 and {weak - 1} <= ctr <= {weak}):")
    emit("            if provider_taken != alt_taken:")
    emit("                if alt_taken == taken:")
    emit("                    ua = predictor._use_alt + 1")
    emit(f"                    if ua <= {p._use_alt_max}:")
    emit("                        predictor._use_alt = ua")
    emit("                else:")
    emit("                    ua = predictor._use_alt - 1")
    emit("                    if ua >= 0:")
    emit("                        predictor._use_alt = ua")
    emit("        if taken:")
    emit(f"            new_ctr = ctr + 1 if ctr < {cmask} else {cmask}")
    emit("        else:")
    emit("            new_ctr = ctr - 1 if ctr > 0 else 0")
    emit("        new_useful = useful")
    emit("        if provider_taken != alt_taken:")
    emit("            if provider_taken == taken:")
    emit(f"                new_useful = useful + 1 if useful < {umask}"
         f" else {umask}")
    emit("            else:")
    emit("                new_useful = useful - 1 if useful > 0 else 0")
    packed = (f"(provider_tag << {ctr_shift}) | (new_ctr << {ubits})"
              " | new_useful")
    if encoded:
        encode = " ^ provider_ck" + (" ^ provider_rk[provider_row]"
                                     if diversified else "")
        emit(f"        flat[provider_base + provider_row] = ({packed}){encode}")
    else:
        emit(f"        flat[provider_base + provider_row] = {packed}")
    emit("    if provider < 0 or alt < 0:")
    emit("        if taken:")
    emit(f"            new_base = base_counter + 1 if base_counter < {bcmask}"
         f" else {bcmask}")
    emit("        else:")
    emit("            new_base = base_counter - 1 if base_counter > 0 else 0")
    new_word = (f"((base_word & ~({bcmask} << base_shift))"
                f" | (new_base << base_shift))"
                f" & {p._base_words._value_mask}")
    if encoded:
        emit(f"        {base_cell} = ({new_word}){base_decode}")
    else:
        emit(f"        {base_cell} = {new_word}")
    emit(f"    if mispredicted and provider < {n - 1}:")
    if encoded:
        idx_items = ", ".join(f"CR{t}[i] ^ IK{t}" for t in range(n))
    else:
        idx_items = ", ".join(f"CR{t}[i]" for t in range(n))
    tag_items = ", ".join(f"CT{t}[i]" for t in range(n))
    emit("        predictor._allocate(pc, taken, provider,")
    emit(f"                            [{idx_items}],")
    emit(f"                            [{tag_items}], TID)")
    # History push: registers and path come from the precomputed
    # trajectories; the (arbitrary-width) GHR shifts scalar.
    for k, (_width, offsets, groups) in enumerate(
            (s.width, s.lane_offsets,
             _lane_groups(p.config.n_tables, s.width + 1, s.width))
            for s in (p._swar_i, p._swar_t0, p._swar_t1)):
        terms = []
        for a, _b in groups:
            name = f"RG{k}_{a}[i]"
            terms.append(name if offsets[a] == 0
                         else f"({name} << {offsets[a]})")
        emit(f"    regs[{k}] = " + " | ".join(terms))
    emit("    ghr_value = ghr_values.get(TID, 0)")
    emit("    if taken:")
    emit(f"        ghr_values[TID] = ((ghr_value << 1) | 1) & {gmask}")
    emit("    else:")
    emit(f"        ghr_values[TID] = (ghr_value << 1) & {gmask}")
    emit("    path_values[TID] = PV[i]")
    emit("    return predicted")
    return "\n".join(lines) + "\n"


class _Fetch:
    """Backend fetch wrapper for one structure.

    Caches one window kernel per thread, keyed to the identity of the
    reference kernel it shadows and to ``_stamp(thread_id)`` — every
    event that invalidates the reference kernel (flush, rekey, stats
    reset, forced generic dispatch) therefore invalidates the window
    kernel too, including a rekey that rebinds the reference kernel's
    masks in place.  A wrapper lives as long as the run that fetched it;
    nothing outside the run keeps the structure alive.  Subclasses
    supply ``_build(thread_id, base)``.
    """

    def __init__(self, structure, reference) -> None:
        self._s = structure
        self._reference = reference
        self._kernels: Dict[int, tuple] = {}

    def __call__(self, thread_id: int = 0):
        base = self._reference(thread_id)
        stamp = self._stamp(thread_id)
        cached = self._kernels.get(thread_id)
        if cached is not None and cached[0] is base and cached[1] is stamp:
            return cached[2]
        fn = self._build(thread_id, base)
        self._kernels[thread_id] = (base, stamp, fn)
        return fn

    def _stamp(self, thread_id: int):
        """What, besides the reference kernel's identity, the window
        kernel was built from (nothing, unless overridden)."""
        return None


class _TageFetch(_Fetch):
    """Fetch wrapper for one :class:`TagePredictor`."""

    def __init__(self, predictor: TagePredictor) -> None:
        super().__init__(predictor, predictor.exec_kernel)

    def _build(self, thread_id: int, base):
        if getattr(base, "arm", "generic") not in _VECTOR_ARMS:
            return base
        p = self._s
        bundle = p._kernel_masks.get(thread_id)
        if bundle is None:
            bundle = p._build_kernel_masks(thread_id)
        encoded = bundle[0] == "fused-xor"
        diversified = encoded and bool(
            getattr(p._tables[0].isolation, "_row_diversified", False))
        key = ("tage-numpy", encoded, diversified)
        code = p._kernel_code.get(key)
        if code is None:
            code = p._kernel_code[key] = compile(
                _tage_consume_source(p, encoded, diversified),
                f"<kernel {key}>", "exec")
        ns = p._kernel_namespace(thread_id, base.arm, bundle)
        window = _Window(ns, base, _TagePre(p, thread_id, bundle))
        return window.bind(code, base.arm)


# ---------------------------------------------------------------------------
# Gshare
# ---------------------------------------------------------------------------

class _GsharePre:
    """Per-(predictor, thread) window precompute for the gshare kernel."""

    def __init__(self, p: GsharePredictor, thread_id: int,
                 encoded: bool) -> None:
        words = p._pht.word_table
        cpw = p._pht.counters_per_word
        self.tid = thread_id
        self.hbits = p._history_bits
        self.gmask = p._ghr._mask
        self.index_bits = p._index_bits
        self.index_mask = p._index_mask
        self.word_shift = cpw.bit_length() - 1
        self.slot_mask = cpw - 1
        self.offset = words._offset
        self.encoded = encoded
        if encoded:
            masks = words._xor_masks.get(thread_id)
            if masks is None:
                masks = words._build_xor_masks(thread_id)
            self.index_key, self.content_key, row_keys = masks
            self.windex_mask = words._index_mask
            self.row_keys = np.asarray(row_keys, dtype=np.int64)

    def __call__(self, pcs_list, tks_list, ns: dict) -> None:
        pcs = np.asarray(pcs_list, dtype=np.int64)
        outc = np.asarray(tks_list, dtype=np.int64)
        nbr = pcs.shape[0]
        ghr0 = ns["ghr_values"].get(self.tid, 0)
        hbits = self.hbits
        ext = _bit_ext(ghr0, hbits, outc)
        hv = np.zeros(nbr + 1, dtype=np.int64)
        for m in range(hbits):
            hv |= ext[hbits - 1 - m: hbits - 1 - m + nbr + 1] << m
        folded = _chunk_fold(hv[:nbr], hbits, self.index_bits,
                             self.index_mask)
        index = ((pcs >> 2) ^ folded) & self.index_mask
        shift = (index & self.slot_mask) * 2
        if self.encoded:
            row = ((index >> self.word_shift) ^ self.index_key) \
                & self.windex_mask
            ns["DK"] = (self.content_key ^ self.row_keys[row]).tolist()
            row = row + self.offset
        else:
            row = (index >> self.word_shift) + self.offset
        ns["GR"] = row.tolist()
        ns["GS"] = shift.tolist()
        ns["GH"] = hv[1:].tolist()


def _gshare_consume_source(encoded: bool, vmask: int) -> str:
    """Generate the window-consuming arm of the gshare kernel."""
    lines = []
    emit = lines.append
    emit("def _kernel(pc, taken, _thread_id=0):")
    emit("    i = W[0]")
    emit("    if i >= W[1] or PCS[i] != pc or TKN[i] != taken:")
    emit("        return _miss(pc, taken)")
    emit("    W[0] = i + 1")
    emit("    row = GR[i]")
    emit("    shift = GS[i]")
    if encoded:
        emit("    decode_key = DK[i]")
        emit("    word = data[row] ^ decode_key")
    else:
        emit("    word = data[row]")
    emit("    counter = (word >> shift) & 3")
    emit("    predicted = counter >= 2")
    emit("    pstats.lookups += 1")
    emit("    if predicted != taken:")
    emit("        pstats.mispredictions += 1")
    emit("    if taken:")
    emit("        new_counter = counter + 1 if counter < 3 else 3")
    emit("    else:")
    emit("        new_counter = counter - 1 if counter > 0 else 0")
    emit("    ghr_values[TID] = GH[i]")
    word = f"((word & ~(3 << shift)) | (new_counter << shift)) & {vmask}"
    if encoded:
        emit(f"    data[row] = ({word}) ^ decode_key")
    else:
        emit(f"    data[row] = {word}")
    emit("    return predicted")
    return "\n".join(lines) + "\n"


class _GshareFetch(_Fetch):
    """Fetch wrapper for one :class:`GsharePredictor`."""

    def __init__(self, predictor: GsharePredictor) -> None:
        super().__init__(predictor, predictor.exec_kernel)
        self._code: Dict[bool, object] = {}

    def _build(self, thread_id: int, base):
        arm = getattr(base, "arm", "generic")
        p = self._s
        # History registers wider than an int64 lane stay scalar.
        if arm not in _VECTOR_ARMS or p._history_bits > 63:
            return base
        encoded = arm == "fused-xor"
        code = self._code.get(encoded)
        if code is None:
            source = _gshare_consume_source(
                encoded, p._pht.word_table._value_mask)
            code = compile(source, f"<gshare-numpy-kernel {encoded}>", "exec")
            self._code[encoded] = code
        ns = {
            "data": p._pht.word_table._data,
            "ghr_values": p._ghr._values,
            "pstats": p.stats(thread_id),
            "TID": thread_id,
        }
        window = _Window(ns, base, _GsharePre(p, thread_id, encoded))
        return window.bind(code, arm)


# ---------------------------------------------------------------------------
# BTB conditional probe
# ---------------------------------------------------------------------------

class _BtbPre:
    """Per-(btb, thread) window precompute for the conditional probe.

    Only PC-derived coordinates are hoisted (set index, encoded tag,
    diversified decode keys); entry contents, LRU clocks and the install
    path read live state, so interleaved indirect/call traffic — which
    mutates entry contents but never the set geometry — cannot stale a
    window.
    """

    def __init__(self, btb: BranchTargetBuffer, thread_id: int,
                 encoded: bool, diversified: bool) -> None:
        self.index_mask = btb._index_mask
        self.tag_shift = btb._tag_shift
        self.tag_mask = btb._tag_mask
        self.ways = btb._n_ways
        self.encoded = encoded
        self.diversified = diversified
        if encoded:
            masks = btb._xor_masks.get(thread_id)
            if masks is None:
                masks = btb._build_xor_masks(thread_id)
            self.index_key, self.tag_key, self.target_key = masks
            if diversified:
                self.tag_row_keys = np.asarray(btb._tag_row_keys,
                                               dtype=np.int64)
                self.target_row_keys = np.asarray(btb._target_row_keys,
                                                  dtype=np.int64)

    def __call__(self, pcs_list, tks_list, ns: dict) -> None:
        pcs = np.asarray(pcs_list, dtype=np.int64)
        pc2 = pcs >> 2
        ptag = (pcs >> self.tag_shift) & self.tag_mask
        if self.encoded:
            set_index = (pc2 ^ self.index_key) & self.index_mask
            if self.diversified:
                dec_tag = self.tag_key ^ self.tag_row_keys[set_index]
                ns["ET"] = (ptag ^ dec_tag).tolist()
                ns["DTG"] = (self.target_key
                             ^ self.target_row_keys[set_index]).tolist()
            else:
                ns["ET"] = (ptag ^ self.tag_key).tolist()
        else:
            set_index = pc2 & self.index_mask
            ns["ET"] = ptag.tolist()
        ns["I0"] = (set_index * self.ways).tolist()


def _btb_consume_source(btb: BranchTargetBuffer, encoded: bool,
                        diversified: bool) -> str:
    """Generate the window-consuming arm of the BTB conditional probe.

    Statement order mirrors :meth:`BranchTargetBuffer._cond_kernel_source`
    exactly, with the PC-derived coordinates read from the window arrays.
    """
    from ..predictors.btb import _CONDITIONAL_INT

    ways = btb._n_ways
    target_mask = btb._target_mask
    idx = [f"i{w}" for w in range(ways)]
    lines = []
    emit = lines.append
    emit("def _kernel(pc, target, taken, _thread_id=0):")
    emit("    i = W[0]")
    emit("    if i >= W[1] or PCS[i] != pc:")
    emit("        return _miss(pc, target, taken)")
    emit("    W[0] = i + 1")
    emit("    btb.lookups += 1")
    emit("    clock = btb._clock + 1")
    emit("    enc_tag = ET[i]")
    if encoded and diversified:
        emit("    dec_target = DTG[i]")
        read = "(targets[{i}] ^ dec_target) & " + str(target_mask)
        write = f"(target & {target_mask}) ^ dec_target"
    elif encoded:
        read = "(targets[{i}] ^ GK) & " + str(target_mask)
        write = f"(target & {target_mask}) ^ GK"
    else:
        read = "targets[{i}] & " + str(target_mask)
        write = f"target & {target_mask}"
    emit("    i0 = I0[i]")
    for w in range(1, ways):
        emit(f"    i{w} = i0 + {w}")
    emit("    hit = False")
    emit("    btb_target = None")
    emit("    victim = -1")
    for w, iw in enumerate(idx):
        emit(f"    {'if' if w == 0 else 'elif'} valid[{iw}]"
             f" and tags[{iw}] == enc_tag:")
        emit(f"        last[{iw}] = clock")
        emit("        btb.hits += 1")
        emit("        hit = True")
        emit(f"        btb_target = {read.format(i=iw)}")
        emit(f"        victim = {iw}")
    emit("    if taken:")
    emit("        clock += 1")
    emit("        if victim < 0:")
    for w, iw in enumerate(idx):
        emit(f"            {'if' if w == 0 else 'elif'} not valid[{iw}]:")
        emit(f"                victim = {iw}")
    if ways > 1:
        emit("            else:")
        emit(f"                victim = {idx[0]}")
        emit(f"                low = last[{idx[0]}]")
        for iw in idx[1:]:
            emit(f"                if last[{iw}] < low:")
            emit(f"                    low = last[{iw}]")
            emit(f"                    victim = {iw}")
    else:
        emit("            else:")
        emit(f"                victim = {idx[0]}")
    emit("        valid[victim] = True")
    emit("        tags[victim] = enc_tag")
    emit(f"        targets[victim] = {write}")
    emit(f"        types[victim] = {_CONDITIONAL_INT}")
    emit("        owners[victim] = OWNER")
    emit("        last[victim] = clock")
    emit("    btb._clock = clock")
    emit("    return hit, btb_target")
    return "\n".join(lines) + "\n"


class _BtbFetch(_Fetch):
    """Fetch wrapper for one :class:`BranchTargetBuffer`."""

    def __init__(self, btb: BranchTargetBuffer) -> None:
        super().__init__(btb, btb.exec_conditional_kernel)

    def _stamp(self, thread_id: int):
        # The reference kernel survives a rekey with new masks bound, and
        # the window precompute captures the masks: key on them too.
        return self._s._xor_masks.get(thread_id)

    def _build(self, thread_id: int, base):
        arm = getattr(base, "arm", "generic")
        if arm not in _VECTOR_ARMS:
            return base
        b = self._s
        encoded = arm == "fused-xor"
        diversified = encoded and bool(
            getattr(b._isolation, "_row_diversified", False))
        key = ("btb-numpy", encoded, diversified)
        code = b._kernel_code.get(key)
        if code is None:
            code = b._kernel_code[key] = compile(
                _btb_consume_source(b, encoded, diversified),
                f"<btb-kernel {key}>", "exec")
        ns = {
            "valid": b._valid, "tags": b._tags, "targets": b._targets,
            "types": b._types, "owners": b._owners, "last": b._last,
            "btb": b, "OWNER": thread_id,
        }
        if encoded and not diversified:
            masks = b._xor_masks.get(thread_id)
            if masks is None:
                masks = b._build_xor_masks(thread_id)
            ns["GK"] = masks[2]
        window = _Window(ns, base, _BtbPre(b, thread_id, encoded,
                                           diversified))
        return window.bind(code, arm)


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------

class NumpyBackend(ExecutionBackend):
    """NumPy-vectorized execution backend (bit-identical to ``python``).

    Accelerates exactly three hot paths — the TAGE table walk, the
    gshare fast paths and the BTB conditional probe — for the *exact*
    predictor classes it knows; subclasses and every other predictor
    fall through to the reference kernels untouched.
    """

    name = "numpy"

    def direction_kernel_fetch(self, direction):
        if type(direction) is TagePredictor:
            return _TageFetch(direction)
        if type(direction) is GsharePredictor:
            return _GshareFetch(direction)
        return super().direction_kernel_fetch(direction)

    def conditional_kernel_fetch(self, btb):
        if type(btb) is BranchTargetBuffer:
            return _BtbFetch(btb)
        return super().conditional_kernel_fetch(btb)
