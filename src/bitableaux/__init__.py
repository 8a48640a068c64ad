"""Lexicographic bitableaux, their crystals, and the character-side oracle."""

from .bitableau import (
    Bitableau,
    bitableau_to_ssyt,
    enumerate_bitableaux,
    int_to_pair,
    pair_to_int,
    ssyt_to_bitableau,
    weights,
)
from .completion import (
    PartialOperator,
    SeminormalReport,
    SkeletonResult,
    column_top_operator,
    commutes_with_bottom,
    enumerate_completions,
    highest_weight_census,
    is_valid_gl2_structure,
    row_top_operator,
    shape21_candidate_crystal,
    skeleton,
)
from .crystal import (
    CapExceededError,
    CrystalStructureError,
    count_d,
    count_d_table,
    crystal_op_bitableau,
    full_crystal,
    highest_weight_bitableaux,
    is_highest_weight,
    skew_decomposition,
    monomial_expansion_sweep,
)
from .graphs import CrystalGraph, CrystalVertex, export_crystal
from .insertion import (
    Biword,
    TableauPair,
    brsk,
    burge_word,
    dual_rsk_insert,
    insert_word,
    jdt_product,
    knuth_equivalent,
    rectify,
    row_insert,
    rsk,
)
from .kron_tableaux import (
    KroneckerVerdict,
    count_kronecker_tableaux,
    is_kronecker_tableau,
    kronecker_tableaux,
    phi,
)
from .partitions import Partition, conjugate, enumerate_partitions
from .symfunc import (
    CharacterTable,
    SymPoly,
    character_table,
    expand_in_schur_schur,
    kostka,
    kron_coproduct_poly,
    kronecker_coefficient,
    kronecker_coefficient_point,
    mn_character,
    monomial_coefficient_d,
    monomial_coefficient_point,
    monomial_coefficient_row,
    permutation_characters,
    schur_poly,
)
from .tableaux import SSYT, SkewSSYT, enumerate_ssyt, reading_word
from .words import (
    bitableau_reading_word,
    crystal_op_word,
    is_yamanouchi,
    word_crystal_component,
    word_weight,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
