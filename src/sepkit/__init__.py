"""sepkit: balanced vertex separators and clique-minor witnesses.

For an input graph and a parameter h, the top-level algorithms either produce
a certified balanced vertex separator or certified evidence of a K_h minor.
"""

from .graph import (
    DensityCertificate,
    Graph,
    GraphFormatError,
    VertexSet,
    connected_components,
    density_threshold,
    dump_graph,
    induced_subgraph,
    load_graph,
    neighborhood,
    sparsity_guard,
    total_weight,
)
from .certificates import (
    MinorReport,
    MinorWitness,
    OracleGuardError,
    SepOrMinor,
    Separator,
    VerifyReport,
    brute_force_min_separator,
    brute_force_minor_detect,
    certificate_from_json,
    certificate_to_json,
    verify_minor_witness,
    verify_output,
    verify_separator,
)
from .shallow import shallow_separator, shallow_separator_balanced, tree_or_cut
from .minorfree import balanced_separator, minor_free_separator
from .tradeoff import linear_time_separator, tradeoff_separator
from .approx_minor import ApproxMinorResult, approx_largest_clique_minor
from .spanner import DecrementalSpanner, Spanner, build_spanner, stretch_check
from .clustering import (
    ActiveState,
    NestedClustering,
    decompose_active_complement,
    nested_r_clustering,
    refine_to_r_clustering,
    split_cluster_two_weights,
    weak_r_clustering,
)
from .generators import generate_graph

__version__ = "0.1.0"
