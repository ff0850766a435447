"""Plugin interfaces of the composable scheduler-policy pipeline.

The memory controller used to hard-wire three decisions into one class;
they are now three independently pluggable roles (paper Fig. 9 letters
in parentheses):

* **Candidate selector** (B) — scans the pending queue and proposes the
  single best next DRAM command as a :data:`Candidate`. FR-FCFS is the
  paper's baseline; FCFS and FR-FCFS-with-streak-cap are comparison
  baselines (cf. the staged/decomposed scheduler designs of
  Ausavarungnirun et al.).
* **Activation gate** (C) — may defer the command that commits to
  opening a new row. The paper's DMS unit is the canonical gate.
* **Drop policy** (D/E) — may answer a row's pending requests with
  predicted values instead of opening the row. The paper's AMS unit is
  the canonical drop policy.

Each role has a string-keyed registry so new policies compose with the
existing ones declaratively (``SchedulerConfig.arbiter`` /
``harness.schemes``) without touching the controller's hot path.

A candidate is a plain tuple — the selector runs once per issued DRAM
command, on the simulator's hottest loop, so no wrapper object is worth
its allocation::

    (key, kind, bank, request)

``key = (ready_time, priority, enqueue_time)`` orders candidates
(earliest ready first, row hits before row switches, oldest first);
``kind`` is one of ``"col"``, ``"pre"``, ``"act"``, ``"close"``;
``request`` is ``None`` for ``"close"`` (close-row sweep) candidates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, ClassVar, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.config.scheduler import AMSConfig, DMSConfig, SchedulerConfig
    from repro.config.tenants import TenantMixSpec
    from repro.dram.channel import Channel
    from repro.dram.request import MemoryRequest
    from repro.sched.pending_queue import PendingQueue

#: (key, kind, bank, request) — see module docstring.
Candidate = tuple  # type: ignore[type-arg]

#: FR-FCFS priority classes used in candidate keys: row hits (column
#: commands) strictly before row switches. PRE and ACT are the two
#: halves of a row switch, issued as independent commands so other
#: banks can use the command bus during tRP/tRRD windows.
COL_PRIORITY = 0
SWITCH_PRIORITY = 1


class CandidateSelector(ABC):
    """Scans the pending queue and proposes the next DRAM command.

    Lifecycle: constructed from the :class:`SchedulerConfig`, then
    :meth:`bind`-ed once to its controller's queue/channel/gate (bound
    methods are hoisted to attributes there — ``select`` runs once per
    issued command). ``select`` must be read-only: it may not mutate
    the queue, the banks, or the gate.
    """

    #: Registry key; also the ``SchedulerConfig.arbiter`` value.
    name: ClassVar[str] = ""

    def __init__(self, config: "SchedulerConfig") -> None:
        self.config = config
        self._close_row = config.row_policy == "close"

    def bind(
        self,
        *,
        queue: "PendingQueue",
        channel: "Channel",
        gate: "ActivationGate",
    ) -> None:
        """Attach to one controller; hoist the hot-path state.

        ``select`` folds candidates straight over the queue/channel
        internals: the per-bank and per-row index dicts, the bank-group
        column windows, and the flattened
        :class:`~repro.dram.timing.TimingTable` floats. Those containers
        are mutated in place by their owners, so the aliases hoisted
        here stay live; the channel's scalar windows (command bus, data
        bus, last ACT) are rebound per issue and are re-read inside each
        ``select`` call instead.
        """
        # ``select`` folds the gate inline, as ``enqueue_time +
        # current_delay`` (or not at all when disabled): hold the bound
        # gate to that rule once here.
        probe = 1.0
        expected = probe + gate.current_delay if gate.enabled else probe
        if gate.earliest_eligible(probe) != expected:
            raise ConfigError(
                f"gate {type(gate).__name__}: earliest_eligible(t) must be "
                "t + current_delay when enabled and t when disabled"
            )
        self._channel = channel
        self._banks = channel.banks
        self._gate = gate
        #: The gate's OFF mode maps enqueue_time -> enqueue_time, and a
        #: visible request always enqueued at or before ``now`` — below
        #: every ready time — so a disabled gate is skipped entirely.
        #: ``enabled`` is mode-derived and constant for a run.
        self._gate_enabled = gate.enabled
        self._oldest_hit_for = queue.oldest_hit_for
        self._precharge_ready_time = channel.precharge_ready_time
        # Live internal indexes (aliases; read-only in select).
        self._pending_banks = queue.banks_with_pending()
        self._by_bank = queue._by_bank
        self._by_row = queue._by_row
        self._group_earliest_col = channel._group_earliest_col
        table = channel.table
        self._tCL = table.tCL
        self._tCWL = table.tCWL
        self._tRRD = table.tRRD

    @abstractmethod
    def select(self, now: float) -> Optional[Candidate]:
        """The best candidate at ``now``, or None when nothing pends."""

    def on_issue(
        self, kind: str, bank: int, request: Optional["MemoryRequest"]
    ) -> None:
        """Issue notification for stateful selectors (e.g. streak caps).

        The controller skips this call entirely when a selector does not
        override it, so stateless selectors pay nothing.
        """

    # ------------------------------------------------------------------
    def _consider_close_rows(
        self, best: Optional[Candidate], now: float
    ) -> Optional[Candidate]:
        """Close-row policy sweep: fold in a PRE for any open bank with
        no pending hits, without waiting for a row-opening request."""
        oldest_hit_for = self._oldest_hit_for
        precharge_ready_time = self._precharge_ready_time
        for bank in self._banks:
            if not bank.is_open:
                continue
            if oldest_hit_for(bank.index, bank.open_row) is not None:
                continue
            ready = precharge_ready_time(bank, now)
            key = (ready, SWITCH_PRIORITY, float("inf"))
            if best is None or key < best[0]:
                best = (key, "close", bank, None)
        return best


class ActivationGate(ABC):
    """Decides *when* a row-opening command becomes eligible.

    The contract mirrors the paper's DMS unit: the gate maps a pending
    request's enqueue time to the earliest simulation time at which the
    command that would open its row (PRE on an open bank, ACT on a
    closed one) may be considered. Row hits are never gated.
    """

    name: ClassVar[str] = ""

    @property
    @abstractmethod
    def enabled(self) -> bool:
        """Whether the gate constrains anything at all."""

    @property
    @abstractmethod
    def current_delay(self) -> float:
        """The delay currently enforced (telemetry probe)."""

    @property
    @abstractmethod
    def wants_ams_halted(self) -> bool:
        """True while the gate needs the drop policy paused (Dyn-DMS
        samples its no-delay baseline with AMS halted)."""

    @abstractmethod
    def earliest_eligible(self, enqueue_time: float) -> float:
        """Earliest time a row-opening request enqueued at
        ``enqueue_time`` may be considered for scheduling.

        This must be ``enqueue_time + current_delay`` for an enabled
        gate and ``enqueue_time`` for a disabled one: the selectors fold
        that sum inline, reading :attr:`current_delay` once per call, and
        :meth:`CandidateSelector.bind` rejects a gate that breaks it.
        """

    def on_window(self, bwutil: float) -> None:
        """Consume one profiling window's bus utilisation."""


class DropPolicy(ABC):
    """Decides whether a prospective row activation should be elided by
    dropping its pending requests (answered by the value predictor).
    """

    name: ClassVar[str] = ""

    @property
    @abstractmethod
    def enabled(self) -> bool:
        """Whether the policy can ever drop."""

    @property
    @abstractmethod
    def coverage(self) -> float:
        """Cumulative dropped / arrived reads (the paper's coverage)."""

    @abstractmethod
    def may_drop(
        self, queue: "PendingQueue", bank: int, row: int
    ) -> bool:
        """Whether the activation of ``(bank, row)`` should be elided."""

    def set_halted(self, halted: bool) -> None:
        """Pause/resume dropping (driven by the gate's baseline probe)."""

    def on_read_arrival(self) -> None:
        """Count an arriving global read (the coverage denominator)."""

    def on_drop(self, count: int = 1) -> None:
        """Count ``count`` dropped reads."""

    def on_window(self) -> None:
        """Close one profiling window (dynamic threshold control)."""


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
_SELECTORS: dict[str, type[CandidateSelector]] = {}
_GATES: dict[str, Callable[["DMSConfig"], ActivationGate]] = {}
_DROP_POLICIES: dict[str, Callable[["AMSConfig"], DropPolicy]] = {}
#: Multi-tenant arbiters: selectors constructed with (config, mix) that
#: share one controller among N tenant streams. The fourth registry,
#: keyed by ``TenantMixSpec.arbiter`` (``SchedulerConfig.arbiter`` keeps
#: naming a plain *selector* for single-tenant runs).
_ARBITERS: dict[str, type[CandidateSelector]] = {}


def register_selector(
    cls: type[CandidateSelector],
) -> type[CandidateSelector]:
    """Register a selector class under its ``name`` (decorator-friendly)."""
    if not cls.name:
        raise ConfigError(f"selector {cls.__name__} has no name")
    _SELECTORS[cls.name] = cls
    return cls


def make_selector(
    name: str, config: "SchedulerConfig"
) -> CandidateSelector:
    """Instantiate the registered selector ``name`` for ``config``."""
    try:
        cls = _SELECTORS[name]
    except KeyError:
        raise ConfigError(
            f"unknown candidate selector {name!r}; "
            f"registered: {', '.join(sorted(_SELECTORS))}"
        ) from None
    return cls(config)


def selector_names() -> list[str]:
    """Sorted names of every registered candidate selector."""
    return sorted(_SELECTORS)


def register_gate(
    name: str, factory: Callable[["DMSConfig"], ActivationGate]
) -> None:
    """Register an activation-gate factory under ``name``."""
    _GATES[name] = factory


def make_gate(name: str, config: "DMSConfig") -> ActivationGate:
    """Instantiate the registered activation gate ``name``."""
    try:
        factory = _GATES[name]
    except KeyError:
        raise ConfigError(
            f"unknown activation gate {name!r}; "
            f"registered: {', '.join(sorted(_GATES))}"
        ) from None
    return factory(config)


def gate_names() -> list[str]:
    """Sorted names of every registered activation gate."""
    return sorted(_GATES)


def register_drop_policy(
    name: str, factory: Callable[["AMSConfig"], DropPolicy]
) -> None:
    """Register a drop-policy factory under ``name``."""
    _DROP_POLICIES[name] = factory


def make_drop_policy(name: str, config: "AMSConfig") -> DropPolicy:
    """Instantiate the registered drop policy ``name``."""
    try:
        factory = _DROP_POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown drop policy {name!r}; "
            f"registered: {', '.join(sorted(_DROP_POLICIES))}"
        ) from None
    return factory(config)


def drop_policy_names() -> list[str]:
    """Sorted names of every registered drop policy."""
    return sorted(_DROP_POLICIES)


def register_arbiter(
    cls: type[CandidateSelector],
) -> type[CandidateSelector]:
    """Register a multi-tenant arbiter class under its ``name``."""
    if not cls.name:
        raise ConfigError(f"arbiter {cls.__name__} has no name")
    _ARBITERS[cls.name] = cls
    return cls


def make_arbiter(
    name: str, config: "SchedulerConfig", mix: "TenantMixSpec"
) -> CandidateSelector:
    """Instantiate the registered arbiter ``name`` for one controller."""
    try:
        cls = _ARBITERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown arbiter {name!r}; "
            f"registered: {', '.join(sorted(_ARBITERS))}"
        ) from None
    return cls(config, mix)


def arbiter_names() -> list[str]:
    """Sorted names of every registered multi-tenant arbiter."""
    return sorted(_ARBITERS)
