"""A control variable is written where it is read.

``HydraDeployment.control_sites`` takes each variable's (switch, table)
sites from the linked programs, and every control-plane write goes
through it: a table of the variable gets rows, or a default other than
its program's, only on a switch whose linked program applies it.  These
tests read the linked programs themselves (every ``ApplyTable`` in every
body) and hold each deployment the repo builds to that.
"""

import pytest

from repro.aether import SERVER_HOST, AetherTestbed
from repro.aether.portal import ALLOW, DENY, FilterRule
from repro.experiments.fig12 import ALL_CHECKERS, Fig12Config, build_fabric
from repro.net.topology import leaf_spine
from repro.p4 import ir
from repro.p4.programs import l2_port_forwarding
from repro.properties import compile_property
from repro.runtime.deployment import HydraDeployment
from repro.runtime.scenarios import SourceRoutingTestbed


def applied(program):
    return {stmt.table for body in ir.program_bodies(program)
            for stmt in ir.walk_stmts(body)
            if isinstance(stmt, ir.ApplyTable)}


def written_control_tables(deployment):
    """``(switch, table)`` for each control table holding an entry, or a
    default other than its program's static one."""
    out = set()
    for name, bmv2 in deployment.switches.items():
        tables = deployment.linked[name].tables
        for compiled in deployment.compileds:
            for control_tables in compiled.control_tables.values():
                for table in control_tables:
                    static = tables[table].default_action
                    static = static and (static[0], list(static[1]))
                    if (bmv2.entries[table]
                            or bmv2.default_actions[table] != static):
                        out.add((name, table))
    return out


def aether_after_an_attach():
    tb = AetherTestbed()
    server = tb.topology.hosts[SERVER_HOST].ipv4
    tb.provision_slice("phones", [
        FilterRule(priority=10, ip_prefix=(server, 32), proto=17,
                   l4_port=(80, 80), action=ALLOW),
        FilterRule(priority=1, action=DENY)])
    tb.portal.add_member("phones", "ue1")
    tb.attach("ue1", 1)
    return tb.deployment


DEPLOYMENTS = {
    "aether": aether_after_an_attach,
    "fig12_all_checkers":
        lambda: build_fabric(ALL_CHECKERS, Fig12Config())[1],
    "srcroute_last_hop": lambda: SourceRoutingTestbed().deployment,
    "srcroute_per_hop":
        lambda: SourceRoutingTestbed(check_mode="per_hop").deployment,
}


@pytest.mark.parametrize("build", list(DEPLOYMENTS.values()),
                         ids=list(DEPLOYMENTS))
def test_every_control_write_sits_where_it_is_read(build):
    deployment = build()
    written = written_control_tables(deployment)
    assert written, "the scenario configures no control"
    unread = {(name, table) for name, table in written
              if table not in applied(deployment.linked[name])}
    assert unread == set()


def tenancy(check_mode):
    topology = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
    forwarding = dict.fromkeys(topology.switches, l2_port_forwarding("l2"))
    return HydraDeployment(topology, compile_property("multi_tenancy"),
                           forwarding, check_mode=check_mode)


def tenant_rows(deployment):
    return {(name, table): len(bmv2.entries[table])
            for name, bmv2 in deployment.switches.items()
            for table in ("ih_tenants_tbl1", "ih_tenants_tbl2")
            if bmv2.entries[table]}


def test_per_hop_checking_writes_the_checkers_lookup_on_core_switches():
    """``tenants`` is read at the first hop (table 1) and by the checker
    (table 2).  Under per-hop checking a spine runs the checker, so a
    put lands in its second table; under last-hop checking it runs
    neither block and gets nothing."""
    leaves = {(leaf, table): 1 for leaf in ("leaf1", "leaf2")
              for table in ("ih_tenants_tbl1", "ih_tenants_tbl2")}
    per_hop = tenancy("per_hop")
    per_hop.dict_put("tenants", 3, 7)
    assert tenant_rows(per_hop) == {**leaves,
                                    ("spine1", "ih_tenants_tbl2"): 1,
                                    ("spine2", "ih_tenants_tbl2"): 1}
    assert per_hop.control_sites("tenants", switch="spine1") == [
        ("spine1", "ih_tenants_tbl2", "ih_tenants_set2")]
    last_hop = tenancy("last_hop")
    last_hop.dict_put("tenants", 3, 7)
    assert tenant_rows(last_hop) == leaves


def test_a_write_to_a_switch_that_reads_nothing_is_refused():
    deployment = tenancy("last_hop")
    deployment.dict_put("tenants", 3, 7, switch="leaf1")
    before = tenant_rows(deployment)
    with pytest.raises(ValueError, match="no table on switch 'spine1'"):
        deployment.dict_put("tenants", 4, 7, switch="spine1")
    with pytest.raises(ValueError, match="no table on switch 'spine1'"):
        deployment.control_sites("tenants", switch="spine1")
    assert tenant_rows(deployment) == before
    assert all(not entries for bmv2 in deployment.switches.values()
               for entries in bmv2.entries.values()
               if bmv2.name.startswith("spine"))
