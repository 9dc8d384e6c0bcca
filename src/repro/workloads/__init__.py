"""Workload models: TPC-W, RUBiS, client emulation and load functions."""

from .base import MixEntry, Workload
from .clients import ClientSession, ClosedLoopDriver
from .load import BurstLoad, ConstantLoad, LoadFunction, SineLoad
from .rubis import RUBIS_APP, RUBIS_MIXES, SEARCH_ITEMS_BY_REGION, build_rubis
from .zoo import (
    GroundTruthLabel,
    LabelStream,
    ZOO_ENVELOPES,
    ZOO_SCENARIOS,
    ZooScenario,
    build_antagonist,
    build_zoo_scenario,
    zoo_scenario_names,
)
from .tpcw import (
    BEST_SELLER,
    NEW_PRODUCTS,
    O_DATE_INDEX,
    TPCW_APP,
    TPCW_MIXES,
    build_tpcw,
    inject_unqualified_admin_update,
)

__all__ = [
    "BEST_SELLER",
    "BurstLoad",
    "ClientSession",
    "ClosedLoopDriver",
    "ConstantLoad",
    "GroundTruthLabel",
    "LabelStream",
    "LoadFunction",
    "MixEntry",
    "NEW_PRODUCTS",
    "O_DATE_INDEX",
    "RUBIS_APP",
    "RUBIS_MIXES",
    "SEARCH_ITEMS_BY_REGION",
    "SineLoad",
    "TPCW_APP",
    "TPCW_MIXES",
    "Workload",
    "ZOO_ENVELOPES",
    "ZOO_SCENARIOS",
    "ZooScenario",
    "build_antagonist",
    "build_rubis",
    "build_tpcw",
    "build_zoo_scenario",
    "inject_unqualified_admin_update",
    "zoo_scenario_names",
]
