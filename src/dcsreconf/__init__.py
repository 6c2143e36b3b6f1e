"""Degree-constrained subgraph reconfiguration: decider, verifier, oracle."""

from .core import (
    ADD,
    REMOVE,
    DegreeBounds,
    Graph,
    Instance,
    Move,
    Subgraph,
    apply_move,
    is_ab_constrained,
    verify_move_sequence,
)
from .decider import Decision, Witness, alternating_trail_decomposition, decide, decide_with_trace
from .instance_io import parse_instance, serialize_decision, serialize_instance
from .oracle import enumerate_ab_constrained, oracle_decide, oracle_min_k
from .solver import augment, is_maximum, maximum_dcs
from .trails import (
    Trail,
    TrailClass,
    classify_trail,
    find_augmenting_trail,
    find_maximal_alternating_trail,
    is_alternatingly_ab_tight,
)

__all__ = [
    "ADD",
    "REMOVE",
    "DegreeBounds",
    "Graph",
    "Instance",
    "Move",
    "Subgraph",
    "Trail",
    "TrailClass",
    "Decision",
    "Witness",
    "apply_move",
    "augment",
    "alternating_trail_decomposition",
    "classify_trail",
    "decide",
    "decide_with_trace",
    "enumerate_ab_constrained",
    "find_augmenting_trail",
    "find_maximal_alternating_trail",
    "is_ab_constrained",
    "is_alternatingly_ab_tight",
    "is_maximum",
    "maximum_dcs",
    "oracle_decide",
    "oracle_min_k",
    "parse_instance",
    "serialize_decision",
    "serialize_instance",
    "verify_move_sequence",
]
