"""Finite posets, their orthosets, and the logics those orthosets generate.

The package decides, for any finite poset: whether it is N-free or weak-N
free, whether its incomparability orthoset is Dacey or compatible, and
whether the lattice of orthoclosed sets is orthomodular or Boolean.  The
census machinery re-checks the claimed equivalences and implications
between these properties exhaustively over all small posets and on
randomized samples; report.CLAIMS lists them, with the catalog poset that
refutes each false one.
"""

from .bitset import bits, format_subset, mask_of, maximal_cliques, subset_labels
from .bridges import (incomparability_orthoset, strict_comparability_orthoset,
                      ud_decomposition)
from .catalog import (antichain, chain, diamond22, n_poset,
                      nfree_strict_non_dacey, path_orthoset,
                      weak_nfree_incompatible)
from .census import (CensusSummary, census_run, enumerate_labeled_posets,
                     random_orthoset, random_poset, search_counterexample)
from .errors import (CycleError, NotOrthoclosedError, OrthoposetError,
                     PosetSyntaxError, SizeLimitError, UnknownElementError)
from .ioformats import (emit_dot_hasse, emit_dot_lattice, parse_poset_file,
                        serialize_poset_file)
from .logic import Logic, build_logic, is_boolean, is_orthomodular
from .npatterns import (NWitness, chain_antichain_property, find_covering_n,
                        find_n, find_weak_n, is_n_free)
from .orthoset import (Orthoset, bases, double_perp, enumerate_orthoclosed,
                       is_compatible, is_dacey, is_orthoclosed,
                       orthoset_from_pairs, perp, validate_orthoset)
from .poset import (Poset, covers, dual, from_up_rows, incomparable, leq, lt,
                    maximal_antichains, maximal_chains, poset_from_covers,
                    validate_poset)
from .report import (Report, TheoremReport, build_report, emit_json_report,
                     verify_theorems)

__all__ = [
    "CensusSummary", "CycleError", "Logic",
    "NotOrthoclosedError", "NWitness", "Orthoset", "OrthoposetError",
    "Poset", "PosetSyntaxError", "Report", "SizeLimitError",
    "TheoremReport", "UnknownElementError",
    "antichain", "bases", "bits", "build_logic", "build_report",
    "census_run", "chain", "chain_antichain_property", "covers",
    "diamond22", "double_perp", "dual",
    "emit_dot_hasse", "emit_dot_lattice", "emit_json_report",
    "enumerate_labeled_posets", "enumerate_orthoclosed", "find_covering_n",
    "find_n", "find_weak_n", "format_subset", "from_up_rows",
    "incomparability_orthoset", "incomparable", "is_boolean",
    "is_compatible", "is_dacey", "is_n_free",
    "is_orthoclosed", "is_orthomodular", "leq", "lt", "mask_of",
    "maximal_antichains", "maximal_chains", "maximal_cliques", "n_poset",
    "nfree_strict_non_dacey", "orthoset_from_pairs", "parse_poset_file",
    "path_orthoset", "perp", "poset_from_covers", "random_orthoset",
    "random_poset", "search_counterexample", "serialize_poset_file",
    "strict_comparability_orthoset", "subset_labels", "ud_decomposition",
    "validate_orthoset", "validate_poset",
    "verify_theorems", "weak_nfree_incompatible",
]
