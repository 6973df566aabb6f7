"""Flow-level fast-forwarding support for the batched network mode.

The batched :class:`~repro.net.simulator.Network` skips per-hop events
for uncontended traffic by walking a packet's whole path eagerly (see
``Network._walk``) and, when the fabric is *stateless*, by memoizing
the resulting transit record on the source template packet so repeat
emissions replay with pure float arithmetic — no pipeline execution at
all (``Network._drain``).

This module holds the admission rule: a switch program may be skipped
on replay only when re-running it could not observe or produce
anything a skipped run would miss.  That means no register reads or
writes and no digests.  Extern calls qualify: an
:class:`~repro.p4.ir.ExternCall` sees only its declared arguments, so
it is a deterministic function of the packet with no side effects
(e.g. the fabric-upf ECMP flow hash).

The check reads each statement's declared effect
(:func:`~repro.p4.ir.stmt_effect`) over the ingress/egress bodies and
every action body (tables dispatch only into actions, so
that covers all reachable statements regardless of which entries are
installed).  Control-plane *table* changes do not affect the verdict —
they change which memoized routes are valid, which the network handles
by drawing a new memo generation on any config change — but they never
make a stateless program stateful.
"""

from __future__ import annotations

from ..p4 import ir


def stateless_program(program: ir.P4Program) -> bool:
    """True iff every statement reachable in ``program`` is stateless.

    Walks ingress, egress, and *all* action bodies — actions are the
    only other statement containers, and which ones run depends on
    runtime table entries, so all of them must qualify.
    """
    effects = (ir.stmt_effect(stmt) for body in ir.program_bodies(program)
               for stmt in ir.walk_stmts(body))
    return not any(effect.reads_regs or effect.writes_regs
                   or effect.emits_digest for effect in effects)
