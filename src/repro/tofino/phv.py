"""Packet Header Vector (PHV) allocation model.

Tofino-1 exposes 4096 bits of normal PHV per pipeline (64 8-bit, 96
16-bit and 64 32-bit containers).  Every header field and metadata field
live in the program must be placed in containers; small fields can share
a container.

The model packs a program's fields into containers with a greedy
first-fit-decreasing allocator and reports the container bits consumed.
For Table 1 we report *deltas* against the forwarding-only program,
anchored at the paper's measured baseline of 44.53% — see
:mod:`repro.tofino.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..p4 import ir

# Tofino-1 normal PHV: container inventory (width -> count).
CONTAINER_INVENTORY: Dict[int, int] = {8: 64, 16: 96, 32: 64}
TOTAL_PHV_BITS = sum(width * count
                     for width, count in CONTAINER_INVENTORY.items())  # 4096


@dataclass
class PhvAllocation:
    """Result of packing a program's fields into PHV containers."""

    containers_used: Dict[int, int] = field(default_factory=dict)
    field_bits: int = 0

    @property
    def container_bits(self) -> int:
        return sum(width * count
                   for width, count in self.containers_used.items())


def allocate(fields: List[Tuple[str, int]]) -> PhvAllocation:
    """Pack fields into containers (first-fit decreasing).

    Fields wider than 32 bits are split into 32-bit chunks, which is how
    compilers slice MAC addresses and the like.  Fields from the same
    header may share containers; we do not model the cross-header packing
    constraints, which makes the model slightly optimistic — consistently
    so for baseline and checkers, which is what the delta needs.
    """
    chunks: List[int] = []
    for _, width in fields:
        while width > 32:
            chunks.append(32)
            width -= 32
        if width:
            chunks.append(width)
    chunks.sort(reverse=True)
    # Open containers: list of (size, free_bits).
    open_containers: List[List[int]] = []
    used: Dict[int, int] = {8: 0, 16: 0, 32: 0}
    for chunk in chunks:
        placed = False
        for container in open_containers:
            if container[1] >= chunk:
                container[1] -= chunk
                placed = True
                break
        if placed:
            continue
        size = 8 if chunk <= 8 else 16 if chunk <= 16 else 32
        if used[size] >= CONTAINER_INVENTORY[size]:
            # Fall back to the next-larger class when one is exhausted.
            for bigger in (16, 32):
                if bigger >= size and used[bigger] < CONTAINER_INVENTORY[bigger]:
                    size = bigger
                    break
        used[size] += 1
        open_containers.append([size, size - chunk])
    return PhvAllocation(
        containers_used={k: v for k, v in used.items() if v},
        field_bits=sum(chunks),
    )


def phv_bits(program: ir.P4Program) -> int:
    """Container bits a program's fields
    (:meth:`~repro.p4.ir.P4Program.fields`: header binds, metadata and
    the standard metadata it always carries) occupy under the
    allocation model."""
    return allocate(list(program.fields().items())).container_bits
