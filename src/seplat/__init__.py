"""seplat: graph separation on causal lattices.

Builds causal graphs from partitions of 1+1 Minkowski spacetime, decides
d-/m-separation, tests geometric shielder-off conditions, and verifies the
shielding <-> separation correspondence both graph-theoretically and with
exact Bayesian-network semantics.

Importing seplat loads the graph side only (graph, lattice, separation), so
the graph commands of the CLI never import numpy. The Markov names below
(``CptSet`` ... ``target_marginal``) load seplat.markov, and numpy with it,
on first access.
"""

from . import errors
from .graph import (
    BIDIR,
    DIR_BACKWARD,
    DIR_FORWARD,
    MixedGraph,
    Path,
    build_graph,
    format_path,
    graph_from_json_dict,
    graph_to_json_dict,
    relatives,
    simple_paths,
    topological_order,
)
from .lattice import (
    BOX,
    DIAMOND,
    L3C,
    L3Q,
    Cell,
    Region,
    ShieldVerdict,
    Window,
    canonical_probe_pair,
    causal_relation,
    direct_parents,
    geo_ancestors,
    l1_past,
    l2_shields,
    l3_region,
    parse_cell,
    parse_region,
    prop1_sweep,
    region_to_vertexset,
    shielder_off,
    shielding_sweep,
    spouses,
)
from .separation import (
    SeparationQuery,
    SeparationVerdict,
    is_separated,
    is_separated_each,
    is_separated_oracle,
    minimal_separator,
    path_is_connecting,
)

__version__ = "0.1.0"

# seplat.markov's names, served by __getattr__ (see the module docstring)
_MARKOV_NAMES = frozenset({
    "CptSet",
    "Distribution",
    "EventRef",
    "ancestral_margin",
    "check_cmc",
    "ci_violation",
    "find_dependence_witness",
    "is_locally_causal",
    "joint",
    "latent_expansion",
    "random_cpts",
    "target_marginal",
})


def __getattr__(name: str):
    """Resolve a Markov name (PEP 562) by importing seplat.markov."""
    if name not in _MARKOV_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import markov

    return getattr(markov, name)
