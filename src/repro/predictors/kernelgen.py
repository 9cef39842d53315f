"""Source-generation helpers shared by the generated predictor kernels.

The batched engines drive every direction predictor through a per-thread
*kernel* ``fn(pc, taken)`` that fuses lookup, statistics and update (see
:meth:`repro.predictors.tage.TagePredictor.exec_kernel`).  Kernels are
generated Python source with the geometry inlined as literals and the
thread's storage lists and isolation masks bound in the function globals.

Each :class:`repro.predictors.table.PredictorTable` access is emitted on one
of four *arms*, chosen from the tables' ``arm`` (set from the attached
policy by :func:`repro.predictors.table.isolation_arm`).  The kernels are
the only place the arms are implemented; the tables' scalar
``read``/``write`` always dispatch through the policy and are the oracle:

* ``passthrough`` (baseline / Complete Flush): plain list indexing;
* ``fused-xor`` (plain-XOR XOR-BP / Noisy-XOR-BP): the thread's precomputed
  index and content masks applied inline;
* ``owner`` (Precise Flush): plain list indexing plus an inline owner
  check on reads (another thread's entry reads as the reset value) and an
  owner stamp on writes;
* ``generic`` (non-XOR encoders, forced generic dispatch): the table's own
  ``read``/``write`` dispatch.

The helpers below emit one table read or write on a given arm and bind the
names those emitted lines use, so composite predictors (LTAGE, TAGE-SC-L,
Tournament) describe each access once and get every arm; the counter
helpers build the read and the saturating train of one packed counter
(Tournament, bimodal, gshare) on top of them.

A kernel's fused-XOR masks are plain globals, so a predictor that keeps its
kernel across a key re-randomisation rebinds them with :func:`bind_table`
on the kernel's ``__globals__`` instead of building a new kernel.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, List

from .table import PackedCounterTable, PredictorTable

__all__ = ["storage_arm", "bind_table", "emit_read", "emit_write",
           "emit_counter_read", "emit_counter_train", "fold_expr",
           "make_kernel"]


def storage_arm(tables: Iterable[PredictorTable]) -> str:
    """The one arm every table in ``tables`` can run on: their common
    ``arm``, or ``"generic"`` when they differ."""
    arms = {table.arm for table in tables}
    return arms.pop() if len(arms) == 1 else "generic"


def bind_table(namespace: dict, name: str, table: PredictorTable, arm: str,
               thread_id: int) -> None:
    """Bind the globals that :func:`emit_read`/:func:`emit_write` use."""
    if arm == "generic":
        namespace[f"{name}_R"] = table.read
        namespace[f"{name}_W"] = table.write
        return
    namespace[f"{name}_D"] = table._data
    if arm == "owner":
        namespace[f"{name}_O"] = table._owner
    elif arm == "fused-xor":
        (namespace[f"{name}_IK"], namespace[f"{name}_CK"],
         namespace[f"{name}_RK"]) = table.xor_masks(thread_id)


def _cell(name: str, table: PredictorTable, row: str) -> str:
    offset = table._offset
    return f"{name}_D[{offset} + {row}]" if offset else f"{name}_D[{row}]"


def emit_read(arm: str, name: str, table: PredictorTable, index: str,
              word: str, pad: str = "    ") -> List[str]:
    """Lines reading ``table``'s decoded word at logical ``index``.

    ``index`` must already lie in ``[0, n_entries)``.  The fused-XOR arm
    leaves the physical row and decode key in ``{name}_row``/``{name}_key``
    for a later :func:`emit_write` to the same index.
    """
    if arm == "generic":
        return [f"{pad}{word} = {name}_R({index}, TID)"]
    if arm == "passthrough":
        return [f"{pad}{word} = {_cell(name, table, index)}"]
    if arm == "owner":
        owner = f"{name}_owner"
        return [f"{pad}{owner} = {name}_O[{index}]",
                f"{pad}{word} = {_cell(name, table, index)}"
                f" if {owner} == TID or {owner} == -1"
                f" else {table._reset_value}"]
    row = f"{name}_row"
    return [f"{pad}{row} = ({index}) ^ {name}_IK",
            f"{pad}{name}_key = {name}_CK ^ {name}_RK[{row}]",
            f"{pad}{word} = {_cell(name, table, row)} ^ {name}_key"]


def emit_write(arm: str, name: str, table: PredictorTable, index: str,
               value: str, pad: str = "    ") -> List[str]:
    """Lines writing ``value`` (already within the entry width) at ``index``.

    On the fused-XOR arm the write must follow an :func:`emit_read` of the
    same index in the same kernel.
    """
    if arm == "generic":
        return [f"{pad}{name}_W({index}, {value}, TID)"]
    if arm == "passthrough":
        return [f"{pad}{_cell(name, table, index)} = {value}"]
    if arm == "owner":
        return [f"{pad}{_cell(name, table, index)} = {value}",
                f"{pad}{name}_O[{index}] = TID"]
    return [f"{pad}{_cell(name, table, f'{name}_row')} = ({value}) ^ {name}_key"]


def emit_counter_read(arm: str, name: str, pht: PackedCounterTable,
                      index: str) -> List[str]:
    """Lines reading the packed counter at counter index ``index`` into
    ``{name}_ctr``, leaving its word in ``{name}_word`` and its coordinates
    in ``{name}_index``/``{name}_shift`` for :func:`emit_counter_train`."""
    bits = pht.counter_bits
    cpw = pht.counters_per_word  # a power of two (see PackedCounterTable)
    return ([f"    {name}_index = {index} >> {cpw.bit_length() - 1}",
             f"    {name}_shift = ({index} & {cpw - 1}) * {bits}"]
            + emit_read(arm, name, pht.word_table, f"{name}_index",
                        f"{name}_word")
            + [f"    {name}_ctr = ({name}_word >> {name}_shift)"
               f" & {(1 << bits) - 1}"])


def emit_counter_train(arm: str, name: str, pht: PackedCounterTable,
                       direction: str, pad: str) -> List[str]:
    """Lines saturating ``{name}_ctr`` up when ``direction`` holds (down
    otherwise) and writing its word back; follows
    :func:`emit_counter_read` of the same ``name``."""
    top = (1 << pht.counter_bits) - 1
    vmask = pht.word_table._value_mask
    new = (f"(({name}_word & ~({top} << {name}_shift))"
           f" | ({name}_new << {name}_shift)) & {vmask}")
    return [f"{pad}if {direction}:",
            f"{pad}    {name}_new = {name}_ctr + 1 if {name}_ctr < {top}"
            f" else {top}",
            f"{pad}else:",
            f"{pad}    {name}_new = {name}_ctr - 1 if {name}_ctr > 0"
            " else 0"] + emit_write(arm, name, pht.word_table,
                                    f"{name}_index", new, pad)


def fold_expr(value: str, history_bits: int, folded_bits: int,
              value_bits: int = 0) -> str:
    """Expression folding the low ``history_bits`` of ``value`` like
    ``fold_history(value & mask, history_bits, folded_bits)``.

    ``value`` is a name holding at most ``value_bits`` bits (default:
    ``history_bits``); chunk masks drop any bits above ``history_bits``.
    """
    value_bits = max(value_bits, history_bits)
    terms = []
    for shift in range(0, history_bits, folded_bits):
        width = min(folded_bits, history_bits - shift)
        term = f"({value} >> {shift})" if shift else value
        if shift + width < value_bits:
            term = f"({term} & {(1 << width) - 1})"
        terms.append(term)
    return "(" + " ^ ".join(terms) + ")"


# Distinct sources are few (predictor geometry x arm); the bound only guards
# against unbounded growth in a long-lived process.
@lru_cache(maxsize=256)
def _compile(source: str, label: str):
    return compile(source, label, "exec")


def make_kernel(cache: dict, key: tuple, source: Callable[[], str],
                namespace: dict, arm: str) -> Callable:
    """Bind one generated kernel, compiling its source only when needed.

    ``cache`` is the predictor's own ``key -> code`` map, so a rebuild
    after a rekey neither regenerates nor recompiles; on a miss,
    ``source()`` (which defines ``_kernel``) is compiled once per distinct
    text, shared by every predictor of the same geometry.  The returned
    function runs with ``namespace`` as its globals and carries its arm in
    ``.arm`` so benchmarks and tests can assert no silent generic fallback.
    ``_kernel`` is taken back out of the namespace: a function reachable
    from its own globals is a reference cycle, and kernels must die by
    reference counting once their owner drops them.
    """
    code = cache.get(key)
    if code is None:
        code = cache[key] = _compile(source(), f"<kernel {key}>")
    exec(code, namespace)
    fn = namespace.pop("_kernel")
    fn.arm = arm
    return fn
