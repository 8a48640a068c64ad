"""Kronecker tableaux on two-letter tops and the weight-lowering map phi.

Membership in B'_lam(2,m) (n = 2 and Yamanouchi w' reading word) is enforced
at every entry point that takes a bitableau, since both the defining
conditions and phi presuppose it.  iter_b_prime_content builds the members of
one content layer by layer (kernels.highest_weight_bitableaux), and
kronecker_tableaux checks each on its w' word before the conditions are read:
the naive reference.  count_kronecker_tableaux builds no bitableau: under
w' the a = 1 layer of shape alpha |- p has one lattice filling, so one
listing of the a = 2 layer's fillings per alpha inside lam gives every
member of every b-content, each tallied by the same conditions, and one row
{nu: count} serves every nu of a (lam, p).  The row of the latest (lam, p)
asked is kept in an lru_cache of one entry, which stores each row whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .bitableau import Bitableau
from .crystal import highest_weight_bitableaux, is_highest_weight
from .kernels import _lattice_fillings
from .partitions import Partition, check_int, check_partition, partitions_between, trim
from .symfunc import kronecker_coefficient_point


@dataclass(frozen=True)
class KroneckerVerdict:
    is_kronecker: bool
    alpha: Partition
    failed_conditions: frozenset[str]


def _require_b_prime(t: Bitableau) -> None:
    if t.n != 2:
        raise ValueError("Kronecker tableaux require top entries in [2]")
    if not is_highest_weight(t, "w_prime"):
        raise ValueError("tableau is not highest weight: w'(T) is not Yamanouchi")


def top_one_shape(t: Bitableau) -> Partition:
    """Shape alpha formed by the boxes with first entry one.

    Lexicographic semistandardness makes those boxes a top-left-justified
    region, so alpha is a partition.
    """
    return trim(tuple(sum(1 for (a, _) in row if a == 1) for row in t.rows))


def is_kronecker_tableau(t: Bitableau) -> KroneckerVerdict:
    """Conditions (I) / (II)(i) / (II)(ii) on a member of B'_lam(2,m)."""
    _require_b_prime(t)
    alpha = top_one_shape(t)
    a1 = alpha[0] if alpha else 0
    a2 = alpha[1] if len(alpha) > 1 else 0
    gap = a1 - a2
    cond_i = a1 == a2
    second_row = t.rows[1] if len(t.rows) > 1 else ()
    cond_ii_i = sum(1 for pair in second_row if pair == (2, 1)) == gap
    cond_ii_ii = sum(1 for pair in t.rows[0] if pair == (2, 2)) == gap if t.rows else gap == 0
    failed = frozenset(
        name
        for name, ok in (("I", cond_i), ("IIi", cond_ii_i), ("IIii", cond_ii_ii))
        if not ok
    )
    verdict = cond_i or (a1 > a2 and (cond_ii_i or cond_ii_ii))
    return KroneckerVerdict(verdict, alpha, failed)


def phi(t: Bitableau) -> Bitableau | None:
    """Change the rightmost (1,b) in the first row to (2,b), or return None.

    None stands for the zero of the conjectured lowering operator: either no
    eligible box exists, or the changed filling leaves B'_lam(2,m).
    """
    _require_b_prime(t)
    if not t.rows:
        return None
    first = t.rows[0]
    col = -1
    for c, (a, _) in enumerate(first):
        if a == 1:
            col = c
    if col < 0:
        return None
    try:
        image = t.with_entry(0, col, (2, first[col][1]))
    except ValueError:
        return None
    if not is_highest_weight(image, "w_prime"):
        return None
    return image


def iter_b_prime_content(
    lam: Sequence[int], p: int, nu: Sequence[int]
) -> Iterator[Bitableau]:
    """Members of B'_lam(2,m) with a(T) = (p, k-p) and b(T) = nu."""
    k = sum(check_partition(lam))
    nu = tuple(nu) or (0,)  # the lister needs a bottom letter, even for the empty shape
    return highest_weight_bitableaux(lam, 2, len(nu), nu, (p, k - p), "w_prime")


def _check_case(lam: Sequence[int], p: int, nu: Sequence[int]) -> tuple[Partition, Partition]:
    """lam and nu as partitions of one size k, with p an int in [0, k]; ValueError otherwise."""
    lam = check_partition(lam)
    nu = check_partition(nu)
    if sum(lam) != sum(nu):
        raise ValueError("shape and b-weight must have the same size")
    if check_int(p, "p") > sum(lam):
        raise ValueError(f"p = {p} outside [0, {sum(lam)}]")
    return lam, nu


def kronecker_tableaux(lam: Sequence[int], p: int, nu: Sequence[int]) -> list[Bitableau]:
    """All Kronecker tableaux of the shape with a(T)=(p,k-p), b(T)=nu."""
    lam, nu = _check_case(lam, p, nu)
    return [t for t in iter_b_prime_content(lam, p, nu) if is_kronecker_tableau(t).is_kronecker]


@lru_cache(maxsize=1)
def _kronecker_row(lam: Partition, p: int) -> dict[Partition, int]:
    """{nu: number of Kronecker tableaux} of shape lam with a(T) = (p, k-p), every nu at once.

    w' reads the a = 1 layer first, so its shape alpha |- p has one lattice
    filling: row r all letter r, content alpha.  The a = 2 layer's bottom
    entries are then the lattice fillings of lam/alpha from that content,
    letter b - 1 for a bottom entry b, each ending at b(T).  A filling's
    letters run top row first, right to left, so row 0 is the first
    lam_0 - alpha_0 of them and row 1 the next lam_1 - alpha_1.  It counts
    if alpha_0 = alpha_1 (I), or if the a = 2 layer holds alpha_0 - alpha_1
    letters 0 in row 1 (II)(i) or letters 1 in row 0 (II)(ii).
    """
    row: dict[Partition, int] = {}
    l0, l1, *_ = lam + (0, 0)
    for alpha in partitions_between((0,) * len(lam), lam, p, p):
        a0, a1, *_ = alpha + (0, 0)
        gap, cut, end = a0 - a1, l0 - a0, l0 - a0 + l1 - a1
        for nu, fillings in _lattice_fillings(lam, alpha, trim(alpha), None, True).items():
            count = sum(not gap or gap in (vals[cut:end].count(0), vals[:cut].count(1)) for vals in fillings)
            if count:
                row[nu] = row.get(nu, 0) + count
    return row


def count_kronecker_tableaux(lam: Sequence[int], p: int, nu: Sequence[int]) -> int:
    """The number of Kronecker tableaux of the shape with a(T)=(p,k-p), b(T)=nu.

    Read from the row of (lam, p), one listing of the a = 2 layer's
    fillings per a = 1 shape for every nu (_kronecker_row), cached for the
    latest (lam, p) asked, so a caller that asks every nu of one (lam, p) in
    a row lists it once.  It equals len(kronecker_tableaux(lam, p, nu)),
    which the tests check.
    """
    lam, nu = _check_case(lam, p, nu)
    return _kronecker_row(lam, p).get(nu, 0)


def in_two_row_regime(lam: Sequence[int], p: int) -> bool:
    """The regime lam_1 >= 2p-1 where the count equals the coefficient."""
    lam = check_partition(lam)
    return (lam[0] if lam else 0) >= 2 * check_int(p, "p") - 1


def kronecker_count_row(lam: Sequence[int], p: int, nu: Sequence[int]) -> tuple:
    """CSV-facing row: (lam, p, nu, count, g, regime_flag)."""
    lam = check_partition(lam)
    nu = check_partition(nu)
    k = sum(lam)
    if 2 * check_int(p, "p") > k:
        raise ValueError(f"(k-p, p) is not a partition for p = {p}, k = {k}")
    count = count_kronecker_tableaux(lam, p, nu)
    g = kronecker_coefficient_point(lam, trim((k - p, p)), nu)
    return (lam, p, nu, count, g, in_two_row_regime(lam, p))
