"""Named configurations of predictors × isolation mechanisms.

The paper's experiments are described by configuration names such as
``XOR-BP-8M``, ``Gshare-CF`` or ``TAGE_SC_L-Noisy-XOR-BP``.  This module
provides the factory that turns such names into fully wired
:class:`repro.core.secure.BranchPredictionUnit` instances:

* a *protection preset* chooses which structures are protected (BTB only,
  PHT only, or both) and with which mechanism (flush-based or XOR-based);
* a *predictor name* chooses the direction predictor (Gshare, Tournament,
  LTAGE, TAGE-SC-L, ...);
* geometry keyword arguments size the BTB and the predictor.

Both protected structures share a single :class:`repro.core.keys.KeyManager`,
mirroring the paper's single per-thread hardware random number whose portions
serve as content and index keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..predictors import make_direction_predictor
from ..predictors.btb import BranchTargetBuffer
from ..predictors.ras import ReturnAddressStack
from .encoding import make_encoder
from .isolation import (
    BaselineIsolation,
    CompleteFlushIsolation,
    IsolationMechanism,
    NoisyXorIsolation,
    PreciseFlushIsolation,
    XorContentIsolation,
)
from .keys import KeyManager
from .secure import BranchPredictionUnit

__all__ = [
    "ProtectionConfig",
    "PROTECTION_PRESETS",
    "MECHANISMS",
    "make_isolation",
    "make_bpu",
    "preset_names",
]

#: Isolation mechanism constructors by short name.
MECHANISMS = {
    "baseline": BaselineIsolation,
    "complete_flush": CompleteFlushIsolation,
    "precise_flush": PreciseFlushIsolation,
    "xor": XorContentIsolation,
    "noisy_xor": NoisyXorIsolation,
}


def make_isolation(name: str, key_manager: Optional[KeyManager] = None,
                   **kwargs) -> IsolationMechanism:
    """Construct an isolation mechanism by short name.

    Args:
        name: one of ``baseline``, ``complete_flush``, ``precise_flush``,
            ``xor``, ``noisy_xor``.
        key_manager: shared key manager; created when omitted.
        **kwargs: forwarded to the mechanism constructor.

    Raises:
        KeyError: when ``name`` is not a known mechanism.
    """
    key = name.lower().replace("-", "_")
    if key not in MECHANISMS:
        raise KeyError(f"unknown isolation mechanism: {name!r}")
    return MECHANISMS[key](key_manager, **kwargs)


@dataclass
class ProtectionConfig:
    """Which structures are protected and how.

    Attributes:
        name: preset name.
        btb_mechanism: mechanism applied to the BTB.
        pht_mechanism: mechanism applied to the direction predictor tables.
        pht_word_bits: physical word width of the packed PHT.  ``32`` models
            Enhanced-XOR-PHT (word-basis encoding), ``2`` models the simple
            per-counter XOR-PHT whose obfuscation the paper calls
            insufficient.
        encoder: content encoder name (``xor``, ``shift_xor``, ``sbox``).
        row_diversified: mix the physical row into the content key so nearby
            entries use different key bits (Section 5.5's countermeasure to
            the reference-branch corner case).  The naive 2-bit XOR-PHT the
            paper calls insufficient disables this.
        rotate_on_privilege_switch: regenerate keys on privilege switches.
        flush_on_privilege_switch: flush-based mechanisms also flush on
            privilege switches.
    """

    name: str = "baseline"
    btb_mechanism: str = "baseline"
    pht_mechanism: str = "baseline"
    pht_word_bits: int = 32
    encoder: str = "xor"
    row_diversified: bool = True
    rotate_on_privilege_switch: bool = True
    flush_on_privilege_switch: bool = False


#: Protection presets corresponding to the configurations named in the paper.
PROTECTION_PRESETS: Dict[str, ProtectionConfig] = {
    "baseline": ProtectionConfig("baseline"),
    "complete_flush": ProtectionConfig("complete_flush", "complete_flush",
                                       "complete_flush"),
    "precise_flush": ProtectionConfig("precise_flush", "precise_flush",
                                      "precise_flush"),
    "xor_btb": ProtectionConfig("xor_btb", btb_mechanism="xor"),
    "noisy_xor_btb": ProtectionConfig("noisy_xor_btb", btb_mechanism="noisy_xor"),
    "xor_pht": ProtectionConfig("xor_pht", pht_mechanism="xor"),
    "xor_pht_simple": ProtectionConfig("xor_pht_simple", pht_mechanism="xor",
                                       pht_word_bits=2, row_diversified=False),
    "noisy_xor_pht": ProtectionConfig("noisy_xor_pht", pht_mechanism="noisy_xor"),
    "xor_bp": ProtectionConfig("xor_bp", btb_mechanism="xor", pht_mechanism="xor"),
    "noisy_xor_bp": ProtectionConfig("noisy_xor_bp", btb_mechanism="noisy_xor",
                                     pht_mechanism="noisy_xor"),
}

#: Aliases used in the paper's figure labels.
_PRESET_ALIASES = {
    "cf": "complete_flush",
    "pf": "precise_flush",
    "xor-bp": "xor_bp",
    "noisy-xor-bp": "noisy_xor_bp",
    "xor-btb": "xor_btb",
    "noisy-xor-btb": "noisy_xor_btb",
    "xor-pht": "xor_pht",
    "noisy-xor-pht": "noisy_xor_pht",
}


def preset_names() -> list:
    """Names of all protection presets."""
    return sorted(PROTECTION_PRESETS)


def resolve_preset(preset: str) -> ProtectionConfig:
    """Resolve a preset name or alias to its :class:`ProtectionConfig`."""
    key = preset.lower()
    key = _PRESET_ALIASES.get(key, key).replace("-", "_")
    if key not in PROTECTION_PRESETS:
        raise KeyError(f"unknown protection preset: {preset!r}")
    return PROTECTION_PRESETS[key]


def _build_mechanism(name: str, config: ProtectionConfig,
                     key_manager: KeyManager) -> IsolationMechanism:
    if name in ("xor", "noisy_xor"):
        return make_isolation(name, key_manager,
                              encoder=make_encoder(config.encoder),
                              row_diversified=config.row_diversified)
    if name in ("complete_flush", "precise_flush"):
        return make_isolation(
            name, key_manager,
            flush_on_privilege_switch=config.flush_on_privilege_switch)
    return make_isolation(name, key_manager)


def make_bpu(predictor: str = "gshare", preset: str = "baseline", *,
             seed: int = 0xC0FFEE,
             btb_sets: int = 256, btb_ways: int = 2,
             btb_tag_bits: int = 16, btb_target_bits: int = 32,
             ras_depth: int = 16,
             btb_miss_forces_not_taken: bool = True,
             predictor_kwargs: Optional[dict] = None,
             config_overrides: Optional[dict] = None) -> BranchPredictionUnit:
    """Build a fully wired branch prediction unit.

    Args:
        predictor: direction predictor name (``gshare``, ``tournament``,
            ``ltage``, ``tage_sc_l``, ...).
        preset: protection preset name (see :data:`PROTECTION_PRESETS`).
        seed: seed of the modelled hardware key generator.
        btb_sets: BTB sets (the FPGA prototype uses 256 sets × 2 ways).
        btb_ways: BTB associativity.
        btb_tag_bits: BTB partial-tag width.
        btb_target_bits: BTB stored-target width.
        ras_depth: return-address-stack depth per hardware thread.
        btb_miss_forces_not_taken: front-end fall-through policy on BTB miss.
        predictor_kwargs: extra keyword arguments for the predictor
            constructor (table sizes, history lengths, ...).
        config_overrides: field overrides applied to the resolved
            :class:`ProtectionConfig` (used by ablation studies, e.g.
            ``{"encoder": "sbox"}`` or
            ``{"rotate_on_privilege_switch": False}``).

    Returns:
        A :class:`repro.core.secure.BranchPredictionUnit`.
    """
    config = resolve_preset(preset)
    if config_overrides:
        from dataclasses import replace as _replace
        config = _replace(config, **config_overrides)
    key_manager = KeyManager(
        seed=seed, rotate_on_privilege_switch=config.rotate_on_privilege_switch)
    btb_isolation = _build_mechanism(config.btb_mechanism, config, key_manager)
    pht_isolation = _build_mechanism(config.pht_mechanism, config, key_manager)

    kwargs = dict(predictor_kwargs or {})
    kwargs.setdefault("word_bits", config.pht_word_bits)
    if predictor in ("bimodal",):
        kwargs.pop("word_bits", None)
        kwargs["word_bits"] = config.pht_word_bits
    direction = make_direction_predictor(predictor, isolation=pht_isolation, **kwargs)
    btb = BranchTargetBuffer(btb_sets, btb_ways, tag_bits=btb_tag_bits,
                             target_bits=btb_target_bits, isolation=btb_isolation)
    ras = ReturnAddressStack(ras_depth)
    bpu = BranchPredictionUnit(direction, btb, ras, isolation=btb_isolation,
                               btb_miss_forces_not_taken=btb_miss_forces_not_taken)
    # The BPU forwards switch notifications to a single isolation object; use
    # a small dispatcher when the BTB and PHT mechanisms are distinct objects.
    bpu.isolation = _IsolationGroup([btb_isolation, pht_isolation], key_manager,
                                    config)
    return bpu


@dataclass
class _IsolationGroup:
    """Fan-out of switch notifications to several isolation mechanisms.

    The group presents the same notification interface as a single mechanism
    so that :class:`repro.core.secure.BranchPredictionUnit` and the CPU model
    stay agnostic of how many mechanisms are active.
    """

    mechanisms: list
    key_manager: KeyManager
    config: ProtectionConfig = field(default_factory=ProtectionConfig)

    def __post_init__(self) -> None:
        # Each distinct mechanism is notified once, in first-seen order.
        self._unique = list({id(m): m for m in self.mechanisms}.values())

    @property
    def name(self) -> str:
        """Preset name of the grouped configuration."""
        return self.config.name

    def on_context_switch(self, thread_id: int) -> None:
        for mechanism in self._unique:
            mechanism.on_context_switch(thread_id)

    def on_privilege_switch(self, thread_id: int, privilege: int) -> None:
        for mechanism in self._unique:
            mechanism.on_privilege_switch(thread_id, privilege)
