"""Graph substrate: dependence DAGs, hammocks, matching, Dilworth."""

from repro.graph import bitset
from repro.graph.bitset import koenig_cover_masks
from repro.graph.dag import CycleError, DependenceDAG, EdgeKind
from repro.graph.dilworth import (
    ChainDecomposition,
    PartialOrder,
    PartialOrderError,
    closure_from_dag_pairs,
    maximum_antichain,
    minimum_chain_decomposition,
    width,
)
from repro.graph.hammock import Hammock, HammockAnalysis

__all__ = [
    "ChainDecomposition",
    "CycleError",
    "DependenceDAG",
    "EdgeKind",
    "Hammock",
    "HammockAnalysis",
    "PartialOrder",
    "PartialOrderError",
    "bitset",
    "closure_from_dag_pairs",
    "koenig_cover_masks",
    "maximum_antichain",
    "minimum_chain_decomposition",
    "width",
]
