"""Exact vertex deletion between subclasses of chordal graphs.

Polynomial solvers for the tractable problems, obstruction-certifying
recognizers for every class involved, constructive hardness gadget
generators, seeded instance generators, and a brute-force oracle that
certifies all of the above at small scale.
"""

from .graph import (
    DeletionResult,
    Graph,
    GraphInputError,
    VertexSet,
    build_block_cut_tree,
    complement,
    delete_vertices,
    induced_subgraph,
    is_clique,
    is_independent,
    vset,
)
from .graphio import (
    from_graph6,
    parse_edge_list,
    sniff_and_parse,
    to_graph6,
    write_edge_list,
)
from .interval import (
    IntervalModel,
    max_clique_window,
    max_cluster_subgraph,
    max_complete_split_subgraph,
    model_to_graph,
    parse_interval_model,
    write_interval_model,
)
from .matching import Bipartition, max_matching, min_vertex_cover
from .oracle import ORACLE_CAP, OracleCapError, oracle_min_deletion
from .recognition import (
    BLOCK,
    CHORDAL,
    CLUSTER,
    CO_CHAIN,
    COMPLETE_SPLIT,
    INTERVAL,
    SPLIT,
    THRESHOLD,
    TRIVIALLY_PERFECT,
    TWO_K2_P3_FREE,
    UNIT_INTERVAL,
    ClassLabel,
    NotInClassError,
    PatternTooLargeError,
    SplitPartition,
    Verdict,
    chordal_peo,
    enumerate_split_partitions,
    f_free,
    find_asteroidal_triple,
    kp_free,
    recognize,
    split_partition,
)
from .reductions import (
    bowtie,
    bowtie_model,
    reduce_chain_to_threshold,
    reduce_threshold_to_interval,
    reduce_vc_to_ffree,
    threshold_interval_model,
)
from .split_solvers import (
    delete_to_2k2p3,
    delete_to_cluster_split,
    delete_to_complete_split,
    delete_to_unit_interval_split,
)
from .structural import (
    delete_to_cluster_block,
    delete_to_cluster_tree,
    delete_to_cochain_chordal,
    delete_to_k2free_chordal,
    list_maximal_cliques_chordal,
    max_independent_set_chordal,
)
from .randgen import (
    gen_bipartite,
    gen_block,
    gen_chordal,
    gen_interval_model,
    gen_split,
    gen_threshold,
    gen_tree,
)

__version__ = "0.1.0"
