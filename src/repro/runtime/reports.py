"""Decoding of data-plane reports (digests) back into structured form."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..compiler.lower import CompiledChecker
from ..p4.bmv2 import DigestMessage


@dataclass
class HydraReport:
    """A decoded report delivered to the control plane."""

    site_id: int
    block: str
    payload: Optional[Tuple[int, ...]]
    switch_name: str = ""
    checker: str = ""

    def __str__(self) -> str:
        payload = "" if self.payload is None else f" payload={self.payload}"
        return (f"report(checker={self.checker}, site={self.site_id}, "
                f"block={self.block}, switch={self.switch_name}{payload})")


def decode_report(compiled: CompiledChecker,
                  message: DigestMessage) -> HydraReport:
    """Decode one digest emitted by a compiled checker."""
    if message.name != compiled.report_digest:
        raise ValueError(f"not a report digest of checker "
                         f"{compiled.name!r}: {message.name!r}")
    if not message.values:
        raise ValueError("malformed report digest (no site id)")
    site_id = message.values[0]
    site = compiled.report_sites.get(site_id)
    block = site.block if site is not None else "unknown"
    payload: Optional[Tuple[int, ...]] = None
    if site is not None and site.has_payload:
        payload = tuple(message.values[1:1 + len(site.field_widths)])
    return HydraReport(site_id=site_id, block=block, payload=payload,
                       switch_name=message.switch_name,
                       checker=compiled.name)


class ReportCollector:
    """Accumulates decoded reports from every switch in a deployment and
    fans them out to subscribed control-plane apps."""

    def __init__(self, compileds: Union[CompiledChecker,
                                        Sequence[CompiledChecker]]):
        if isinstance(compileds, CompiledChecker):
            compileds = [compileds]
        self._by_digest: Dict[str, CompiledChecker] = {
            c.report_digest: c for c in compileds
        }
        self.reports: List[HydraReport] = []
        self._subscribers: List = []

    def subscribe(self, callback) -> None:
        """Register a callback invoked with each decoded HydraReport."""
        self._subscribers.append(callback)

    def on_digest(self, message: DigestMessage) -> None:
        compiled = self._by_digest.get(message.name)
        if compiled is not None:
            report = decode_report(compiled, message)
            self.reports.append(report)
            for callback in self._subscribers:
                callback(report)

    def payloads(self) -> List[Tuple[int, ...]]:
        return [r.payload for r in self.reports if r.payload is not None]

    def clear(self) -> None:
        self.reports.clear()

    def __len__(self) -> int:
        return len(self.reports)
