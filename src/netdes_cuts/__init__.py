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
    generate_instance,
    load_instance,
    save_instance,
    validate_instance,
)
from .engine import Config, CutPool, RoundReport, cutting_plane_loop
from .lp import build_relaxation, check_feasible_routing, solve
from .oracle import brute_force_ip, validate_cut, validate_cuts

__version__ = "0.1.0"
