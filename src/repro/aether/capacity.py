"""An explicit capacity model for the scaled Aether control plane.

Scaling ``repro.aether`` to ~10^6 concurrent sessions is a memory and
table-sizing exercise before it is a speed exercise: every session owns
session-table rows, termination rows, and checker dictionary rows on
each UPF leaf, and the behavioural switches hold all of them in Python
object form.  :class:`AetherCapacity` makes those budgets explicit — it
sizes the UPF program's tables, declares the hard wire-format ceilings
(``app_id`` is an 8-bit field; ``client_id`` is 32-bit), bounds the
per-switch digest log window, and estimates resident memory — and
:class:`CapacityError` is raised when an attach would exceed the
declared session budget instead of silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

# Wire-format ceilings from the UPF program's metadata declarations.
MAX_APP_IDS = (1 << 8) - 1        # app_id is bit<8>; 0 means "unknown"
MAX_CLIENT_IDS = (1 << 32) - 1    # client_id is bit<32>
UE_PREFIX_LEN = 12                # 172.16.0.0/12 -> 2^20 UE addresses
MAX_UE_INDEX = (1 << (32 - UE_PREFIX_LEN)) - 1

# Rough per-row resident cost of one installed TableEntry (object +
# match/args tuples) plus its slot in the engine's hash index, measured
# on CPython 3.11.  Used for the estimate only — never enforced.
_BYTES_PER_ENTRY = 400
_BYTES_PER_SESSION_STATE = 700    # ClientRecord + its rows + portal rows


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
        terminations and checker-dictionary tables).
    ``edge_only_filtering``
        Install the checker's ``filtering_actions`` rows only on edge
        switches.  The compiled checker evaluates at the last hop — an
        edge — so spine copies of the dictionary are never consulted;
        skipping them halves filtering-row memory on the 2x2 fabric.
    ``digest_log_window``
        Per-switch bounded-log capacity for checker digests: the sized
        register window that keeps switch-side memory flat regardless
        of how many packets a soak replays.
    """

    max_sessions: int
    rules_per_session: int = 4
    edge_only_filtering: bool = True
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

    @property
    def filtering_table_size(self) -> int:
        return self.max_sessions * self.rules_per_session

    # -- memory model ------------------------------------------------------

    def estimate_bytes(self, upf_switches: int = 2,
                       filtering_switches: int = 2) -> int:
        """Estimated resident bytes for a fully attached deployment:
        per-switch table rows plus per-session controller state."""
        per_switch_rows = (2 * self.max_sessions          # sessions up+down
                           + self.terminations_table_size)
        rows = upf_switches * per_switch_rows
        if self.edge_only_filtering:
            rows += filtering_switches * self.filtering_table_size
        else:
            # Checker rows also land on the spines.
            rows += 2 * filtering_switches * self.filtering_table_size
        return (rows * _BYTES_PER_ENTRY
                + self.max_sessions * _BYTES_PER_SESSION_STATE)

    def describe(self) -> Dict[str, Any]:
        """The capacity model as a JSON-ready dict."""
        return {
            "max_sessions": self.max_sessions,
            "rules_per_session": self.rules_per_session,
            "edge_only_filtering": self.edge_only_filtering,
            "digest_log_window": self.digest_log_window,
            "max_app_ids": MAX_APP_IDS,
            "ue_prefix_len": UE_PREFIX_LEN,
            "max_ue_index": MAX_UE_INDEX,
            "session_table_size": self.session_table_size,
            "terminations_table_size": self.terminations_table_size,
            "applications_table_size": self.applications_table_size,
            "filtering_table_size": self.filtering_table_size,
            "estimated_bytes": self.estimate_bytes(),
        }
