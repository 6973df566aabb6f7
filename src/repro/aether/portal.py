"""The Aether operator portal: slice configuration.

Operators define slices, each with a prioritized list of application
filtering rules of the form ``priority: ip-prefix : ip-proto : l4-port :
action`` (Section 5.2), and assign clients (IMSIs) to slices.  Updating
a slice's rules takes effect for *subsequently attaching* clients — the
portal itself does not re-program previously attached clients, which is
the precondition for the bug Hydra catches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

ALLOW = "allow"
DENY = "deny"

ANY_PORT: Tuple[int, int] = (0, 0xFFFF)
ANY_PROTO: Optional[int] = None
ANY_PREFIX: Tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class FilterRule:
    """One application filtering rule.

    ``ip_prefix`` is (address, prefix_len); ``proto`` is an IP protocol
    number or None for any; ``l4_port`` is an inclusive (lo, hi) range.
    Each must fit the key it is installed under (a 32-bit address, an
    8-bit protocol, 16-bit ports), or the rule is refused here, before
    any attach can half-apply it.
    """

    priority: int
    ip_prefix: Tuple[int, int] = ANY_PREFIX
    proto: Optional[int] = ANY_PROTO
    l4_port: Tuple[int, int] = ANY_PORT
    action: str = DENY

    def __post_init__(self) -> None:
        if self.action not in (ALLOW, DENY):
            raise ValueError(f"bad action {self.action!r}")
        addr, plen = self.ip_prefix
        if not (0 <= addr <= 0xFFFFFFFF and 0 <= plen <= 32):
            raise ValueError(f"bad IPv4 prefix {self.ip_prefix}")
        if self.proto is not None and not 0 <= self.proto <= 0xFF:
            raise ValueError(f"bad IP protocol {self.proto}")
        lo, hi = self.l4_port
        if not 0 <= lo <= hi <= 0xFFFF:
            raise ValueError(f"bad port range {self.l4_port}")

    def addr_range(self) -> Tuple[int, int]:
        """The prefix as an inclusive address range."""
        addr, plen = self.ip_prefix
        if plen == 0:
            return (0, 0xFFFFFFFF)
        mask = ((1 << plen) - 1) << (32 - plen)
        base = addr & mask
        return (base, base | (~mask & 0xFFFFFFFF))

    def proto_range(self) -> Tuple[int, int]:
        if self.proto is None:
            return (0, 0xFF)
        return (self.proto, self.proto)

    def matches(self, app_addr: int, proto: int, port: int) -> bool:
        lo, hi = self.addr_range()
        if not lo <= app_addr <= hi:
            return False
        plo, phi = self.proto_range()
        if not plo <= proto <= phi:
            return False
        rlo, rhi = self.l4_port
        return rlo <= port <= rhi


@dataclass
class SliceConfig:
    """A slice: a name, filtering rules, and member clients."""

    name: str
    rules: List[FilterRule] = field(default_factory=list)
    members: List[str] = field(default_factory=list)  # IMSIs

    def decide(self, app_addr: int, proto: int, port: int) -> str:
        """The intended action for an application key (highest priority
        matching rule wins; default deny)."""
        best: Optional[FilterRule] = None
        for rule in self.rules:
            if rule.matches(app_addr, proto, port):
                if best is None or rule.priority > best.priority:
                    best = rule
        return best.action if best is not None else DENY


class OperatorPortal:
    """Slice configuration state, as the operator sees it.

    Membership is held both as each slice's ``members`` list (the
    operator-facing view) and as an imsi -> slice reverse index, kept
    consistent by :meth:`add_member` / :meth:`remove_member`, so
    :meth:`slice_of` — on the hot attach path — is a dict lookup
    instead of a scan over every slice's member list.
    """

    def __init__(self):
        self.slices: Dict[str, SliceConfig] = {}
        self._member_slice: Dict[str, str] = {}

    def create_slice(self, name: str,
                     rules: Optional[List[FilterRule]] = None) -> SliceConfig:
        if name in self.slices:
            raise ValueError(f"slice {name!r} already exists")
        config = SliceConfig(name=name, rules=list(rules or []))
        self.slices[name] = config
        return config

    def add_member(self, slice_name: str, imsi: str) -> None:
        config = self._require(slice_name)
        if imsi in self._member_slice:
            raise ValueError(f"IMSI {imsi} is already in a slice")
        config.members.append(imsi)
        self._member_slice[imsi] = slice_name

    def add_members(self, slice_name: str, imsis: List[str]) -> None:
        """Bulk enrolment: one validation pass, then one extend."""
        config = self._require(slice_name)
        for imsi in imsis:
            if imsi in self._member_slice:
                raise ValueError(f"IMSI {imsi} is already in a slice")
        config.members.extend(imsis)
        for imsi in imsis:
            self._member_slice[imsi] = slice_name

    def remove_member(self, imsi: str) -> None:
        slice_name = self._member_slice.pop(imsi, None)
        if slice_name is None:
            raise ValueError(f"IMSI {imsi} is not in a slice")
        self.slices[slice_name].members.remove(imsi)

    def update_rules(self, slice_name: str,
                     rules: List[FilterRule]) -> None:
        """Replace a slice's rules.

        Note: this only changes portal state.  Rules reach the switches
        via the mobile core's per-client PFCP messages, i.e. only when a
        client attaches — already-attached clients keep their old rules.
        """
        self._require(slice_name).rules = list(rules)

    def slice_of(self, imsi: str) -> Optional[str]:
        return self._member_slice.get(imsi)

    def rules_for(self, imsi: str) -> List[FilterRule]:
        slice_name = self.slice_of(imsi)
        if slice_name is None:
            raise ValueError(f"IMSI {imsi} is not assigned to a slice")
        return list(self.slices[slice_name].rules)

    def _require(self, name: str) -> SliceConfig:
        if name not in self.slices:
            raise ValueError(f"unknown slice {name!r}")
        return self.slices[name]
