"""Rainbow bounded-degree trees in random and perturbed graphs.

A library of randomized graph algorithms around rainbow tree embedding:
graph and colouring generators, expander construction and verification,
an almost-spanning rainbow tree embedding pipeline, an absorption stage
that upgrades it to spanning trees, exact spanning-tree criteria, and a
Monte Carlo harness with a CLI.
"""

from .absorption import (AbsorptionState, SpanningResult, absorb_leftovers,
                         absorb_step, b_size_bound, compute_B,
                         draw_permutation, embed_spanning, partition_edge_set,
                         select_fresh_part)
from .embedding import (AlmostSpanningResult, PipelineParams,
                        derive_parameters, embed_almost_spanning,
                        embed_rooted_tree, format_trace, select_root_edges)
from .errors import (AbsorptionFailure, EmbedFailure, ExpanderFailure,
                     FormatError, InfeasibleParameters, ParameterError,
                     PartitionFailure, RainbowTreesError, RootEdgeFailure,
                     SparsifyFailure, StageFailure)
from .expanders import (EffectiveExpander, ExpandParams, degrade_attach, ell1,
                        ell2, find_effective_expander, is_eta_r_expander,
                        sparsify, verify_expand_core)
from .exposure import ExposureError, ExposureOracle
from .graphs import (ColouredGraph, canonical_edge, complete_graph, gen_gnp,
                     gen_seed_graph, perturb, uniform_colouring)
from .harness import (CSV_HEADER, LEMMA_KINDS, TRIAL_KINDS, WILSON_Z,
                      LemmaStatsSummary, SuccessEstimate, TrialConfig,
                      TrialRecord, estimate, format_records, lemma_stats,
                      read_records, run_trials, wilson_interval,
                      write_records)
from .rng import RandomSource, spawn_trial_source
from .spanning import (SUZUKI_BUDGET, VertexPartition,
                       find_rainbow_spanning_tree, highly_connected_partition,
                       partition_from_lists, suzuki_check)
from .trees import (RootSets, Tree, TreeDecomposition, TrimResult, build_I0,
                    compute_root_sets, decompose_tree, gen_random_bounded_tree,
                    path_tree, star_tree, trim_to_size)

__version__ = "0.1.0"
