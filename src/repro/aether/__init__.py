"""Aether substrate: the UPF P4 program, operator portal, mobile core,
ONOS-like controller, and the testbed for the Section 5.2 case study."""

from .capacity import AetherCapacity, CapacityError, MAX_APP_IDS, MAX_UE_INDEX
from .core import ALLOW_ACTION, DENY_ACTION, HydraControlApp, MobileCore
from .onos import AttachSpec, ClientRecord, OnosController
from .portal import (ALLOW, ANY_PORT, ANY_PREFIX, ANY_PROTO, DENY,
                     FilterRule, OperatorPortal, SliceConfig)
from .testbed import (AetherTestbed, CELL_HOST, INTERNET_HOST, SERVER_HOST,
                      ue_address)
from .upf import (APP_ID_UNKNOWN, DIRECTION_DOWNLINK, DIRECTION_UPLINK,
                  upf_program)

__all__ = [
    "ALLOW", "ALLOW_ACTION", "ANY_PORT", "ANY_PREFIX", "ANY_PROTO",
    "APP_ID_UNKNOWN", "AetherCapacity", "AetherTestbed", "AttachSpec",
    "CELL_HOST", "CapacityError", "ClientRecord", "DENY", "DENY_ACTION",
    "DIRECTION_DOWNLINK", "DIRECTION_UPLINK", "FilterRule",
    "HydraControlApp", "INTERNET_HOST", "MAX_APP_IDS", "MAX_UE_INDEX",
    "MobileCore", "OnosController", "OperatorPortal", "SERVER_HOST",
    "SliceConfig", "ue_address", "upf_program",
]
