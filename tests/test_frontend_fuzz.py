"""Front-end robustness fuzzing.

Two properties:

1. **No crash on garbage** — random mutations of valid programs either
   parse/check fine or raise a proper ``IndusError`` with a source span;
   the front end never throws anything else.
2. **Generated well-typed programs round-trip** — randomly generated
   (grammar-directed) programs type-check, compile, and give the *same
   verdict* on the interpreter and the compiled pipeline: a generalized
   differential test over a much wider program space than the
   hand-written cases.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_program, standalone_program
from repro.difftest.genprog import gen_program
from repro.indus import HopContext, IndusError, Monitor, check, parse
from repro.net.packet import ip, make_udp
from repro.p4.bmv2 import Bmv2Switch
from repro.properties import load_source, property_names

SOURCES = [load_source(name) for name in property_names()]

_MUTATION_CHARS = list("{}();=<>!&|+-*/%[],.@ \n") + ["bit", "tele", "if",
                                                      "reject", "0", "x"]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_programs_never_crash_the_front_end(data):
    source = data.draw(st.sampled_from(SOURCES))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    text = list(source)
    for _ in range(rng.randint(1, 6)):
        op = rng.randrange(3)
        pos = rng.randrange(max(len(text), 1))
        if op == 0 and text:
            del text[pos % len(text)]
        elif op == 1:
            text.insert(pos, rng.choice(_MUTATION_CHARS))
        elif text:
            text[pos % len(text)] = rng.choice(_MUTATION_CHARS)
    mutated = "".join(text)
    try:
        check(parse(mutated))
    except IndusError:
        pass  # a diagnostic is the correct outcome
    # Any other exception type propagates and fails the test.


# ---------------------------------------------------------------------------
# Grammar-directed generation of well-typed programs
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2**32),
       sport=st.integers(0, 65535), dport=st.integers(0, 65535))
@settings(max_examples=60, deadline=None)
def test_generated_programs_differential(seed, sport, dport):
    source = gen_program(seed)
    checked = check(parse(source))

    # Interpreter verdict.
    monitor = Monitor(checked)
    ctx = HopContext(headers={"sport": sport, "dport": dport},
                     first_hop=True, last_hop=True)
    state = monitor.run_path([ctx])
    interp_ok = not state.rejected

    # Compiled verdict.
    compiled = compile_program(checked, name="fuzz")
    sw = Bmv2Switch(standalone_program(compiled), name="s1")
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    sw.insert_entry(compiled.inject_table, [1], compiled.mark_first_action)
    sw.insert_entry(compiled.strip_table, [2], compiled.mark_last_action)
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), sport, dport)
    compiled_ok = len(sw.process(packet, 1)) == 1

    assert interp_ok == compiled_ok, f"divergence on:\n{source}"


@given(seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_generated_programs_render_to_p4(seed):
    from repro.p4 import count_loc, render

    source = gen_program(seed)
    compiled = compile_program(source, name="fuzz")
    text = render(standalone_program(compiled))
    assert count_loc(text) > 50


# ---------------------------------------------------------------------------
# The dataflow analyzer over the generated-program space
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_analyzer_never_crashes_and_is_deterministic(seed):
    """Lint runs on every generated program without raising, and two
    runs over the same program produce byte-identical diagnostics."""
    from repro.analysis import lint_compiled

    source = gen_program(seed)
    first = [d.format() for d in
             lint_compiled(compile_program(source, name="fuzz"))]
    second = [d.format() for d in
              lint_compiled(compile_program(source, name="fuzz"))]
    assert first == second


@given(seed=st.integers(0, 2**32), data=st.data())
@settings(max_examples=40, deadline=None)
def test_generated_multihop_programs_differential(seed, data):
    """Telemetry-accumulating generated programs agree between the
    interpreter and a chain of compiled switches over random paths."""
    from repro.difftest.genprog import gen_multihop_program

    source = gen_multihop_program(seed)
    checked = check(parse(source))
    hops = data.draw(st.lists(
        st.tuples(st.integers(0, 65535), st.integers(0, 65535)),
        min_size=1, max_size=5))

    # Interpreter.
    monitor = Monitor(checked)
    state = monitor.new_state()
    for i, (sport, dport) in enumerate(hops):
        ctx = HopContext(headers={"sport": sport, "dport": dport},
                         first_hop=(i == 0), last_hop=(i == len(hops) - 1))
        monitor.run_hop(state, ctx)
    interp_ok = not state.rejected

    # Compiled: one switch instance per hop.  Header values vary per hop
    # by rewriting the packet's ports before each traversal.
    compiled = compile_program(checked, name="mh")
    program = standalone_program(compiled)
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), *hops[0])
    for i, (sport, dport) in enumerate(hops):
        udp = packet.find("udp")
        udp.set("src_port", sport)
        udp.set("dst_port", dport)
        sw = Bmv2Switch(program, name=f"s{i}")
        sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
        if i == 0:
            sw.insert_entry(compiled.inject_table, [1],
                            compiled.mark_first_action)
        if i == len(hops) - 1:
            sw.insert_entry(compiled.strip_table, [2],
                            compiled.mark_last_action)
        out = sw.process(packet, 1)
        if not out:
            packet = None
            break
        packet = out[0][1]
    compiled_ok = packet is not None
    assert compiled_ok == interp_ok, f"divergence on:\n{source}\n{hops}"
