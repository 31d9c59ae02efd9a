"""Partial automorphisms and injective partial endomorphisms of paths.

The package works with the monoids PAut(P_n) and IEnd(P_n) of partial
automorphisms and injective partial endomorphisms of the n-vertex path
graph under composition: membership, Green's relations, exact counting and
enumeration, factorization into distinguished generating sets, and rank
verification.  ``pathmonoid.cli`` exposes the same operations as the
``pathmonoid`` command.
"""

from .census import (
    MaskProfile,
    count_by_mask,
    count_iend,
    count_paut,
    elements_with_domain,
    enumerate_iend,
    enumerate_paut,
    mask_profile,
)
from .errors import ResourceRefused
from .factorize import canonical_delta, factor_iend, factor_paut
from .genwords import (
    Symbol,
    Word,
    alphabet_iend,
    alphabet_paut,
    eval_word,
    expand_symbol,
    expand_word,
    format_symbol,
    format_word,
    legal_symbols,
    make_generator,
    parse_symbol,
    parse_word,
)
from .greens import (
    GreensClassification,
    classify,
    h_related,
    j_related,
    l_related,
    oracle_classifications,
    r_related,
    similar_type,
    type_sequence,
)
from .path_core import (
    PartialInjection,
    compose,
    domain_intervals,
    element_from_json_dict,
    element_to_json_dict,
    empty_map,
    format_element,
    identity,
    image_intervals,
    inverse,
    is_iend,
    is_paut,
    maximal_intervals,
    parse_element,
    restrict,
)
from .rankcheck import (
    MonoidSet,
    RankWitness,
    closure,
    exhaustive_min_size,
    iend_monoid,
    is_generating,
    is_irredundant,
    lower_bound_witnesses,
    paut_monoid,
    rank_formula,
    verify_rank,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # path_core
    "PartialInjection",
    "compose",
    "inverse",
    "identity",
    "empty_map",
    "restrict",
    "maximal_intervals",
    "domain_intervals",
    "image_intervals",
    "is_iend",
    "is_paut",
    "format_element",
    "parse_element",
    "element_to_json_dict",
    "element_from_json_dict",
    # greens
    "type_sequence",
    "similar_type",
    "l_related",
    "r_related",
    "h_related",
    "j_related",
    "GreensClassification",
    "classify",
    "oracle_classifications",
    # census
    "MaskProfile",
    "mask_profile",
    "count_paut",
    "count_iend",
    "count_by_mask",
    "elements_with_domain",
    "enumerate_paut",
    "enumerate_iend",
    # genwords
    "Symbol",
    "Word",
    "make_generator",
    "legal_symbols",
    "alphabet_paut",
    "alphabet_iend",
    "eval_word",
    "expand_symbol",
    "expand_word",
    "format_symbol",
    "parse_symbol",
    "format_word",
    "parse_word",
    # factorize
    "factor_paut",
    "factor_iend",
    "canonical_delta",
    # rankcheck
    "MonoidSet",
    "RankWitness",
    "closure",
    "is_generating",
    "is_irredundant",
    "exhaustive_min_size",
    "rank_formula",
    "lower_bound_witnesses",
    "paut_monoid",
    "iend_monoid",
    "verify_rank",
    # errors
    "ResourceRefused",
]
