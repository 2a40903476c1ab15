"""Cutting-plane toolkit for multi-commodity multi-facility network design."""

from .core import (
    Arc,
    Commodity,
    DemandMatrix,
    Facility,
    FractionalPoint,
    Instance,
    InstanceError,
    LinearCut,
    Rational,
    build_aggregated_commodities,
    build_disaggregated_commodities,
    frac,
    load_instance,
    save_instance,
    validate_instance,
)
from .engine import (
    Config,
    CutPool,
    RoundReport,
    brute_force_ip,
    cutting_plane_loop,
    generate_instance,
    validate_cut,
    validate_cuts,
)
from .lp import build_relaxation, check_feasible_routing, solve

__version__ = "0.1.0"
