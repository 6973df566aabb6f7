"""The Indus compiler: lowering to P4 IR and linking with
forwarding programs."""

from .layout import (HOP_COUNT_FIELD, HYDRA_HEADER_NAME, HydraLayout,
                     NEXT_ETH_TYPE_FIELD, TeleArray, TeleScalar, build_layout)
from .linker import link, standalone_program
from .lower import (CompiledChecker, DEFAULT_BINDINGS, FIRST_HOP_META,
                    INJECT_TABLE, IndusCompiler, LAST_HOP_META, META_PREFIX,
                    REJECT_META, REPORT_DIGEST, ReportSite, STRIP_TABLE,
                    SWITCH_ID_TABLE, compile_program)

__all__ = [
    "CompiledChecker", "DEFAULT_BINDINGS", "FIRST_HOP_META",
    "HOP_COUNT_FIELD", "HYDRA_HEADER_NAME", 
    "HydraLayout", "INJECT_TABLE", "IndusCompiler", "LAST_HOP_META",
    "META_PREFIX", "NEXT_ETH_TYPE_FIELD", "REJECT_META", "REPORT_DIGEST",
    "ReportSite", "STRIP_TABLE", "SWITCH_ID_TABLE", "TeleArray",
    "TeleScalar", "build_layout", "compile_program", "link",
    "standalone_program",
]
