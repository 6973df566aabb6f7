"""The P4 substrate's error type, in a module that imports nothing.

:mod:`repro.p4.ir` and :mod:`repro.p4.bmv2` both raise it, and ``ir``
imports :mod:`repro.net.packet`, whose package loads the simulator and
so ``bmv2``: keeping the class here lets ``bmv2`` load while ``ir`` is
still half-initialized, in whichever order ``repro.p4`` and
``repro.net`` are first imported.
"""


class P4RuntimeError(Exception):
    """Raised on malformed control-plane operations or broken programs."""
