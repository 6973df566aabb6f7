"""P4 substrate: a P4-16–like IR, a behavioral model (bmv2 stand-in),
and a pretty-printer to P4-16 source text."""

from . import ir
from .bmv2 import (Bmv2Switch, BoundedLog, DigestMessage, DROP_PORT, ENGINES,
                   PacketContext, P4RuntimeError, StandardMetadata)
from .pretty import count_loc, format_expr, render

__all__ = [
    "Bmv2Switch", "BoundedLog", "DigestMessage", "DROP_PORT", "ENGINES",
    "P4RuntimeError", "PacketContext", "StandardMetadata", "count_loc",
    "format_expr", "ir", "render",
]
