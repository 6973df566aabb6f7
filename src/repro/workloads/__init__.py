"""Workloads: synthetic campus traces and the iperf/ping traffic
processes of the Figure 12 experiment.

The trace is synthetic and the replay re-addresses every packet onto the
fabric, so it carries no real addresses: the paper's prefix-preserving
anonymizing step (ONTAS) has no counterpart here."""

from .campus import (CAMPUS_SUBNET_A, CAMPUS_SUBNET_B, CampusTraceGenerator,
                     Flow, TraceStats)
from .traffic import (ECHO_PORT, EchoResponder, LOAD_PORT, Pinger, RttSample,
                      UdpLoadGenerator)

__all__ = [
    "CAMPUS_SUBNET_A", "CAMPUS_SUBNET_B", "CampusTraceGenerator",
    "ECHO_PORT", "EchoResponder", "Flow", "LOAD_PORT", "Pinger",
    "RttSample", "TraceStats",
    "UdpLoadGenerator",
]
