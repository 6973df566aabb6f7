"""The Indus compiler: lowering to P4 IR and linking with
forwarding programs."""

from .layout import (HOP_COUNT_FIELD, HYDRA_HEADER_NAME, HydraLayout,
                     NEXT_ETH_TYPE_FIELD, TeleArray, TeleScalar, build_layout)
from .linker import link, standalone_program
from .lower import (CompiledChecker, DEFAULT_BINDINGS, IndusCompiler,
                    ReportSite, compile_program)

__all__ = [
    "CompiledChecker", "DEFAULT_BINDINGS", "HOP_COUNT_FIELD",
    "HYDRA_HEADER_NAME", "HydraLayout", "IndusCompiler",
    "NEXT_ETH_TYPE_FIELD", "ReportSite", "TeleArray", "TeleScalar",
    "build_layout", "compile_program", "link", "standalone_program",
]
