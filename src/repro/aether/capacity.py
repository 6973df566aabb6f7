"""An explicit capacity model for the scaled Aether control plane.

Scaling ``repro.aether`` to ~10^6 concurrent sessions is a memory and
table-sizing exercise before it is a speed exercise: every session owns
session-table rows, termination rows, and checker dictionary rows on
each UPF leaf, and the behavioural switches hold all of them in Python
object form.  :class:`AetherCapacity` makes those budgets explicit — it
sizes the UPF program's tables, declares the hard wire-format ceiling
(``app_id`` is an 8-bit field) and the UE address plan, and bounds the
per-switch digest log window — and :class:`CapacityError` is raised
when an attach would exceed the declared session budget instead of
silently degrading.  Resident memory is measured (the soak benchmark's
``peak_rss_mb``), not estimated.
"""

from __future__ import annotations

from dataclasses import dataclass

# Wire-format ceiling from the UPF program's metadata declarations.
MAX_APP_IDS = (1 << 8) - 1        # app_id is bit<8>; 0 means "unknown"
UE_PREFIX_LEN = 12                # 172.16.0.0/12 -> 2^20 UE addresses
MAX_UE_INDEX = (1 << (32 - UE_PREFIX_LEN)) - 1


class CapacityError(RuntimeError):
    """An attach would exceed the deployment's declared session budget."""


@dataclass(frozen=True)
class AetherCapacity:
    """Declared budgets for one Aether deployment.

    ``max_sessions``
        Concurrent attached subscribers the control plane accepts;
        attach number ``max_sessions + 1`` raises :class:`CapacityError`.
    ``rules_per_session``
        Expected filtering rules delivered per client (sizes the
        terminations table).
    ``digest_log_window``
        Per-switch bounded-log capacity for checker digests: the sized
        register window that keeps switch-side memory flat regardless
        of how many packets a soak replays.
    """

    max_sessions: int
    rules_per_session: int = 4
    digest_log_window: int = 1024

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.max_sessions > MAX_UE_INDEX:
            raise ValueError(
                f"max_sessions {self.max_sessions} exceeds the "
                f"172.16.0.0/{UE_PREFIX_LEN} UE address plan "
                f"({MAX_UE_INDEX} addresses)")
        if self.rules_per_session < 1:
            raise ValueError("rules_per_session must be >= 1")

    # -- table sizing ------------------------------------------------------

    @property
    def session_table_size(self) -> int:
        return self.max_sessions

    @property
    def terminations_table_size(self) -> int:
        return self.max_sessions * self.rules_per_session

    @property
    def applications_table_size(self) -> int:
        # Shared (interned) entries: bounded by the 8-bit app_id space,
        # not by the subscriber count.
        return MAX_APP_IDS

