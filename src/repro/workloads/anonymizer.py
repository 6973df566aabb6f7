"""Prefix-preserving traffic anonymization (the paper's ONTAS step).

The campus traffic feeding the Figure 12/13 evaluation was anonymized at
line rate by a P4 program that hashes personally identifiable
information (MAC and IP addresses) in a prefix-preserving manner using a
one-way salted hash, discarding payloads.  This module reimplements that
sanitization for our synthetic traces.

Prefix preservation (Crypto-PAn style): bit i of the anonymized address
is the original bit XOR a pseudo-random function of the original i-bit
prefix.  Two addresses sharing a k-bit prefix therefore share exactly a
k-bit anonymized prefix, so subnet structure (and LPM routing behaviour)
survives anonymization.

The anonymizer keeps the trie that definition implies: one dict of
anonymized prefixes, keyed ``(1 << length) | prefix`` (the root, the
empty prefix, is ``{1: 0}``).  The PRF is a pure function of ``(salt,
length, prefix)``, so a node's image never changes once computed, and an
address only pays for the nodes below its longest known prefix — one
evaluation per new trie node, not 32 per address.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from ..net.packet import Packet


class PrefixPreservingAnonymizer:
    """One-way, salted, prefix-preserving anonymization of addresses."""

    def __init__(self, salt: bytes = b"hydra-p4campus"):
        self.salt = salt
        self._cache: Dict[int, int] = {1: 0}
        self._mac_cache: Dict[int, int] = {}

    def _prf_bit(self, prefix_bits: int, length: int) -> int:
        digest = hashlib.sha256(
            self.salt + length.to_bytes(1, "big")
            + prefix_bits.to_bytes(5, "big")
        ).digest()
        return digest[0] & 1

    def anonymize_ipv4(self, addr: int) -> int:
        """Prefix-preserving anonymization of one IPv4 address."""
        if not 0 <= addr < 1 << 32:
            raise ValueError(f"not an IPv4 address: {addr!r}")
        cache = self._cache
        node = (1 << 32) | addr     # node >> (32 - i) keys the i-bit prefix
        known = 32
        while (out := cache.get(node >> (32 - known))) is None:
            known -= 1
        for i in range(known, 32):
            original_bit = (addr >> (31 - i)) & 1
            flip = self._prf_bit(addr >> (32 - i), i)
            out = (out << 1) | (original_bit ^ flip)
            cache[node >> (31 - i)] = out
        return out

    def anonymize_mac(self, mac: int) -> int:
        """Hash a MAC address (one-way, salted; OUI not preserved)."""
        cached = self._mac_cache.get(mac)
        if cached is not None:
            return cached
        digest = hashlib.sha256(self.salt + mac.to_bytes(6, "big")).digest()
        out = int.from_bytes(digest[:6], "big")
        # Keep it a locally administered unicast address.
        out = (out | 0x020000000000) & ~0x010000000000
        self._mac_cache[mac] = out
        return out

    def anonymize_packet(self, packet: Packet) -> Packet:
        """Anonymize addresses in-place conventions of the paper:
        IP and MAC addresses hashed, payload discarded (packets carry
        only lengths in this substrate, so payloads are already gone)."""
        out = packet.copy()
        for header in out.headers:
            if header.name == "ipv4":
                anonymize = self.anonymize_ipv4
            elif header.name == "ethernet":
                anonymize = self.anonymize_mac
            else:
                continue
            for name in ("src_addr", "dst_addr"):
                header.set(name, anonymize(header.get(name)))
        out.meta.pop("flow_id", None)
        return out

    def shares_prefix(self, a: int, b: int) -> int:
        """Length of the common prefix of two addresses (helper)."""
        for i in range(32, -1, -1):
            if i == 0 or (a >> (32 - i)) == (b >> (32 - i)):
                return i
        return 0
