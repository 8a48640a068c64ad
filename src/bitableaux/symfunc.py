"""Independent symmetric-function ground truth.

The oracle is characters (the Murnaghan-Nakayama recursion over exact
integers), Kronecker coefficients g (the character triple sum), Kostka
numbers (horizontal-strip counting: lam/mu is a strip exactly when
lam[i+1] <= mu[i] <= lam[i], so partitions_between lists the mu) and the
monomial coefficient d(lam,mu,nu) = <s_lam * s_nu, h_mu>.  None of these
shares code with the crystal side but that enumerator, which the tests
check against a brute-force filter, so they can serve as the oracle the
crystal counts are checked against.

character_table(k) stores each character chi^lam as a row of values over
the classes of S_k, next to the class sizes; g and d read these rows only.
d has two independent routes.  The naive reference, monomial_coefficient_d,
is the tau-sum sum_tau g(lam,tau,nu) K_{tau,mu}, one triple at a time; no
command calls it, and the tests check the other route against it.  That
route dots sizes * chi^lam * chi^nu with the permutation characters
xi^mu(rho) = <h_mu, p_rho> (a DP over the cycles, no Kostka numbers).
monomial_coefficient_row gives d for every mu at once from the tables, for
the Theorem-2 sweep; monomial_coefficient_point gives one triple's d from
its three rows alone, read class by class from the caches of chi and xi
with neither table built, for the d point query.
kronecker_coefficient_point is g read the same way, for the g and
kron-tableaux point queries; it is checked against kronecker_coefficient,
which keeps the table for callers that read many triples of one k.

The polynomial helpers are checked against g, not used to compute it.
schur_poly is the Kostka sum s_lam(z) = sum_tau K_{lam,tau} m_tau(z) over
the monomial symmetric functions, with no filling; each alphabet's m_tau are
listed once and kept in a small cache.  kron_coproduct_poly fills the
bitableaux (the crystal side's filler) and checks the sum against that same
Kostka sum with z_(i,j) = x_i y_j; the bitableau side is the only one that
fills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement, groupby
from operator import mul
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .bitableau import iter_bitableau_rows
from .partitions import (
    Partition, check_int, check_partition, check_triple, enumerate_partitions, is_int, partitions_between, trim
)

Exponents = tuple[int, ...]


# --- characters ------------------------------------------------------------


def _beta_numbers(lam: Partition) -> tuple[int, ...]:
    length = len(lam)
    return tuple(lam[i] + (length - 1 - i) for i in range(length))


def _strip_removals(lam: Partition, size: int) -> Iterator[tuple[Partition, int]]:
    """Partitions obtained by removing a border strip, with the strip height."""
    beta = _beta_numbers(lam)
    beta_set = set(beta)
    for j, b in enumerate(beta):
        target = b - size
        if target < 0 or target in beta_set:
            continue
        height = sum(1 for x in beta if target < x < b)
        new_beta = sorted((beta_set - {b}) | {target}, reverse=True)
        length = len(new_beta)
        parts = tuple(new_beta[i] - (length - 1 - i) for i in range(length))
        yield trim(parts), height


@lru_cache(maxsize=None)
def _mn(lam: Partition, rho: Partition) -> int:
    if not rho:
        return 1
    total = 0
    for rest, height in _strip_removals(lam, rho[0]):
        total += (-1) ** height * _mn(rest, rho[1:])
    return total


def mn_character(lam: Sequence[int], rho: Sequence[int]) -> int:
    """Symmetric group character chi^lam(rho), exact."""
    lam = check_partition(lam)
    rho = check_partition(rho)
    if sum(lam) != sum(rho):
        raise ValueError(f"|lam| = {sum(lam)} but |rho| = {sum(rho)}")
    return _mn(lam, rho)


def centralizer_order(rho: Sequence[int]) -> int:
    """z_rho = prod_i i^{m_i} m_i! for the cycle type rho."""
    rho = check_partition(rho)
    mult: dict[int, int] = {}
    for part in rho:
        mult[part] = mult.get(part, 0) + 1
    z = 1
    for i, m in mult.items():
        z *= i**m * math.factorial(m)
    return z


@dataclass(frozen=True)
class CharacterTable:
    """The character table of S_k as class functions.

    classes lists the partitions of k (reverse-lexicographic), the cycle types
    rho_j; sizes[j] = |C_rho_j| = k!/z_rho_j; chi[lam] is the row of values
    chi^lam(rho_j) in that order.  chi is a read-only copy of the mapping.
    """

    k: int
    classes: tuple[Partition, ...]
    sizes: tuple[int, ...]
    chi: Mapping[Partition, tuple[int, ...]] = field(hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "chi", MappingProxyType(dict(self.chi)))

    def check_orthogonality(self) -> bool:
        """Row orthogonality, exactly: sum_rho |C_rho| chi chi = delta * k!."""
        kfact = math.factorial(self.k)
        return all(
            sum(s * x * y for s, x, y in zip(self.sizes, self.chi[lam], self.chi[mu]))
            == (kfact if lam == mu else 0)
            for lam in self.classes
            for mu in self.classes
        )


@lru_cache(maxsize=4)
def _classes(k: int) -> tuple[tuple[Partition, ...], tuple[int, ...]]:
    """The cycle types rho |- k and their class sizes |C_rho| = k!/z_rho, with no character table."""
    classes = tuple(enumerate_partitions(k))
    kfact = math.factorial(k)
    return classes, tuple(kfact // centralizer_order(rho) for rho in classes)


def _natural(total: int, kfact: int, name: str, lam: Partition, mu: Partition, nu: Partition) -> int:
    """total / k! for the triple, checked to be a natural number (ArithmeticError otherwise)."""
    value, rest = divmod(total, kfact)
    if rest:
        raise ArithmeticError(f"non-integer {name} for {lam},{mu},{nu}")
    if value < 0:
        raise ArithmeticError(f"negative {name} for {lam},{mu},{nu}")
    return value


def _class_sum(value, name: str, lam: Partition, mu: Partition, nu: Partition) -> int:
    """(1/k!) sum_rho |C_rho| value(rho) over the classes rho |- k = |lam|, checked to be natural.

    It reads no character table: value(rho) multiplies the triple's row
    values at rho, one class at a time, from the process caches _mn and _xi.
    The callers read one factor first and stop where it is 0, so a class it
    vanishes on fills no entry of the other two rows.
    """
    k = sum(lam)
    classes, sizes = _classes(k)
    return _natural(sum(map(mul, sizes, map(value, classes))), math.factorial(k), name, lam, mu, nu)


@lru_cache(maxsize=None)
def character_table(k: int) -> CharacterTable:
    classes = tuple(enumerate_partitions(k))
    sizes = tuple(math.factorial(k) // centralizer_order(rho) for rho in classes)
    chi = {lam: tuple(_mn(lam, rho) for rho in classes) for lam in classes}
    return CharacterTable(k, classes, sizes, chi)


def _g(table: CharacterTable, lam: Partition, mu: Partition, nu: Partition) -> int:
    """g(lam,mu,nu) from the rows of a validated triple; checked to be a natural number."""
    rows = zip(table.sizes, table.chi[lam], table.chi[mu], table.chi[nu])
    g, rest = divmod(sum(s * a * b * c for s, a, b, c in rows), math.factorial(table.k))
    if rest:
        raise ArithmeticError(f"non-integer Kronecker coefficient for {lam},{mu},{nu}")
    if g < 0:
        raise ArithmeticError(f"negative Kronecker coefficient for {lam},{mu},{nu}")
    return g


def kronecker_coefficient(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """g(lam,mu,nu) = sum_rho chi chi chi / z_rho; a nonnegative integer."""
    lam, mu, nu = check_triple(lam, mu, nu)
    return _g(character_table(sum(lam)), lam, mu, nu)


def kronecker_coefficient_point(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """g(lam,mu,nu) from the three character rows alone, with no character table.

    The same sum as kronecker_coefficient, (1/k!) sum_rho |C_rho| chi^lam
    chi^mu chi^nu, but each chi(rho) comes from _mn one class at a time,
    so one triple at large k costs its three rows, not all p(k) of them.
    """
    lam, mu, nu = check_triple(lam, mu, nu)
    return _class_sum(
        lambda rho: (a := _mn(mu, rho)) and a * _mn(lam, rho) * _mn(nu, rho), "Kronecker coefficient", lam, mu, nu
    )


# --- Kostka numbers ---------------------------------------------------------


@lru_cache(maxsize=None)
def _kostka(lam: Partition, content: tuple[int, ...]) -> int:
    """K_{lam,content}, summed over the horizontal strips lam/mu the last letter fills."""
    if not content:
        return 1 if not lam else 0
    size = sum(lam) - content[-1]
    strips = partitions_between(lam[1:] + (0,), lam, size, size)
    return sum(_kostka(trim(mu), content[:-1]) for mu in strips)


def kostka(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Number of SSYT of shape lam and content mu (mu may be a composition)."""
    lam = check_partition(lam)
    mu = tuple(check_int(x, "content entry") for x in mu)
    if sum(lam) != sum(mu):
        raise ValueError("content must sum to the shape size")
    return _kostka(lam, mu)


# --- exact polynomials ------------------------------------------------------


@dataclass(frozen=True, eq=True)
class SymPoly:
    """Multivariate polynomial with integer coefficients, exact.

    terms maps exponent tuples (length = number of variables) of ints >= 0
    to nonzero int coefficients (int subclasses but bool count as ints); it
    is a read-only copy of the mapping passed in.  No variable name repeats.
    """

    variables: tuple[str, ...]
    terms: Mapping[Exponents, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"variable names must not repeat, got {self.variables!r}")
        for exps, coeff in self.terms.items():
            if len(exps) != len(self.variables):
                raise ValueError("exponent vector length must match variable count")
            if not all(is_int(e) and e >= 0 for e in exps):
                raise ValueError(f"exponents must be nonnegative integers, got {exps!r}")
            if not is_int(coeff):
                raise ValueError(f"coefficients must be integers, got {coeff!r}")
            if coeff == 0:
                raise ValueError("zero terms must not be stored")

    def is_zero(self) -> bool:
        return not self.terms

    def __hash__(self) -> int:
        # equal polynomials have equal terms, so they hash alike
        return hash((self.variables, frozenset(self.terms.items())))


def make_sympoly(variables: Sequence[str], terms: Mapping[Exponents, int]) -> SymPoly:
    clean = {tuple(e): c for e, c in terms.items() if c != 0}
    return SymPoly(tuple(variables), clean)


def default_variables(n: int, m: int | None = None) -> tuple[str, ...]:
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    if m is None:
        return xs
    return xs + tuple(f"y{j}" for j in range(1, m + 1))


Slots = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=4)
def _monomial_terms(slots: Slots, width: int, degree: int) -> dict[Partition, dict[Exponents, int]]:
    """The monomials m_tau(z_1..z_N) of degree, each as exponent vectors of the given width.

    z_v adds one to each exponent slot in slots[v].  Every multiset of
    degree variables is taken once, its content sorted is the tau whose
    m_tau it is a term of; distinct multisets may share an exponent vector,
    so each maps to its multiplicity.  A few alphabets are kept: a caller
    that asks several lam of one degree over one alphabet lists it once.
    The maps are shared: read them, never change them.
    """
    monomials: dict[Partition, dict[Exponents, int]] = {}
    for word in combinations_with_replacement(range(len(slots)), degree):
        tau = tuple(sorted((len(list(run)) for _, run in groupby(word)), reverse=True))
        exps = [0] * width
        for v in word:
            for slot in slots[v]:
                exps[slot] += 1
        key, terms = tuple(exps), monomials.setdefault(tau, {})
        terms[key] = terms.get(key, 0) + 1
    return monomials


def _schur_terms(lam: Partition, slots: Slots, width: int) -> dict[Exponents, int]:
    """s_lam(z_1..z_N) = sum_tau K_{lam,tau} m_tau as exponent vectors of the given width.

    z_v adds one to each exponent slot in slots[v].  The m_tau come from
    _monomial_terms, listed once per alphabet, and each is weighted by the
    Kostka number K_{lam,tau}; nothing is filled.
    """
    terms: dict[Exponents, int] = {}
    for tau, monomial in _monomial_terms(slots, width, sum(lam)).items():
        coeff = _kostka(lam, tau)
        if coeff:
            for key, count in monomial.items():
                terms[key] = terms.get(key, 0) + coeff * count
    return terms


def schur_poly(lam: Sequence[int], variables: Sequence[str]) -> SymPoly:
    """s_lam over the named variables, from the Kostka numbers."""
    lam = check_partition(lam)
    n = len(variables)
    return make_sympoly(variables, _schur_terms(lam, tuple((v,) for v in range(n)), n))


def kron_coproduct_poly(lam: Sequence[int], n: int, m: int) -> SymPoly:
    """s_lam[xy] in x_1..x_n, y_1..y_m from the bitableaux, checked against the Kostka numbers.

    It sums x^a(T) y^b(T) over the bitableaux T of shape lam over [n]x[m],
    then checks the sum term by term against sum_tau K_{lam,tau} m_tau(z)
    with z_(i,j) = x_i y_j (_schur_terms), whose monomials are listed once
    per (n, m, |lam|) and fill nothing.  A disagreement raises
    ArithmeticError.
    """
    lam = check_partition(lam)
    terms: dict[Exponents, int] = {}
    for rows in iter_bitableau_rows(lam, n, m):
        exps = [0] * (n + m)
        for row in rows:
            for a, b in row:
                exps[a - 1] += 1
                exps[n + b - 1] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + 1
    slots = tuple((i, n + j) for i in range(n) for j in range(m))
    if terms != _schur_terms(lam, slots, n + m):
        raise ArithmeticError(
            f"bitableau filling and Kostka sum disagree for lam={lam}, n={n}, m={m}"
        )
    return make_sympoly(default_variables(n, m), terms)


def _product_terms(
    px: Mapping[Exponents, int], py: Mapping[Exponents, int]
) -> dict[Exponents, int]:
    """Terms of p(x) q(y): every concatenated exponent pair is distinct, so none cancel."""
    return {ex + ey: cx * cy for ex, cx in px.items() for ey, cy in py.items()}


def expand_in_schur_schur(p: SymPoly, k: int) -> dict[tuple[Partition, Partition], int]:
    """Coefficients of p in the s_mu(x) s_nu(y) basis by leading-term elimination.

    Variable names starting with "x" form the first alphabet and must come
    before every other variable.  The pivot is
    the largest exponent vector in reverse-lexicographic order, which refines
    dominance, so subtracting its Schur product only introduces smaller
    terms.  A nonzero residual that has no partition-shaped leading term
    means the input was not in the span and is reported as an error.
    """
    check_int(k, "degree")
    n = sum(1 for v in p.variables if v.startswith("x"))
    if any(v.startswith("x") for v in p.variables[n:]):
        raise ValueError(f"x-variables must come before the others, got {p.variables}")
    m = len(p.variables) - n
    xvars = p.variables[:n]
    yvars = p.variables[n:]
    schur_cache_x: dict[Partition, dict] = {}
    schur_cache_y: dict[Partition, dict] = {}
    residual = dict(p.terms)
    result: dict[tuple[Partition, Partition], int] = {}
    while residual:
        key = max(residual)
        xexp, yexp = key[:n], key[n:]
        mu, nu = trim(xexp), trim(yexp)
        if (
            any(xexp[i] < xexp[i + 1] for i in range(n - 1))
            or any(yexp[j] < yexp[j + 1] for j in range(m - 1))
            or sum(mu) != k
            or sum(nu) != k
        ):
            raise ArithmeticError(
                f"input is not in the degree-{k} Schur x Schur span (pivot {key})"
            )
        coeff = residual[key]
        result[(mu, nu)] = result.get((mu, nu), 0) + coeff
        if mu not in schur_cache_x:
            schur_cache_x[mu] = schur_poly(mu, xvars).terms
        if nu not in schur_cache_y:
            schur_cache_y[nu] = schur_poly(nu, yvars).terms
        for exps, c in _product_terms(schur_cache_x[mu], schur_cache_y[nu]).items():
            val = residual.get(exps, 0) - coeff * c
            if val:
                residual[exps] = val
            else:
                residual.pop(exps, None)
    return {pair: c for pair, c in result.items() if c}


def monomial_coefficient_d(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """d(lam,mu,nu) = sum_tau g(lam,tau,nu) K_{tau,mu}, from characters only.

    The naive reference: it builds the whole character table and sums p(k)
    Kronecker coefficients, each weighted by a Kostka number.  The tests
    check monomial_coefficient_point and monomial_coefficient_row against it.
    """
    lam, mu, nu = check_triple(lam, mu, nu)
    table = character_table(sum(lam))
    return sum(_g(table, lam, tau, nu) * _kostka(tau, mu) for tau in table.classes)


# --- permutation characters -------------------------------------------------


@lru_cache(maxsize=None)
def _xi(rho: Partition, parts: Partition) -> int:
    """Ways to give each cycle of rho to one of the parts so each part is filled exactly.

    parts is kept sorted and without zeros; equal parts are distinct places,
    so a cycle given to one of several equal parts counts once per part.
    """
    if not rho:
        return 1 if not parts else 0
    cycle, rest = rho[0], rho[1:]
    total = 0
    for i, part in enumerate(parts):
        if part < cycle:
            break
        if i and parts[i - 1] == part:
            continue
        left = parts[:i] + parts[i + 1 :]
        if part > cycle:
            left = tuple(sorted(left + (part - cycle,), reverse=True))
        total += parts.count(part) * _xi(rest, left)
    return total


@lru_cache(maxsize=None)
def permutation_characters(k: int) -> Mapping[Partition, tuple[int, ...]]:
    """The rows xi^mu(rho_j) = <h_mu, p_rho_j> for every partition mu of k, read-only.

    The row of mu lists the permutation character of S_k on the cosets of the
    Young subgroup S_mu over character_table(k).classes: xi^mu(rho) counts
    the ways to give each cycle of rho to a part of mu so that the cycle
    lengths sum to that part.  No Kostka number enters.
    """
    classes = character_table(k).classes
    return MappingProxyType({mu: tuple(_xi(rho, mu) for rho in classes) for mu in classes})


def monomial_coefficient_row(lam: Sequence[int], nu: Sequence[int]) -> dict[Partition, int]:
    """d(lam,mu,nu) = <s_lam * s_nu, h_mu> for every partition mu of |lam|, from characters only.

    d = (1/k!) sum_j sizes[j] chi^lam_j chi^nu_j xi^mu_j: the weights
    sizes * chi^lam * chi^nu are formed once, then dotted with each row of
    permutation_characters(k).  This is the second oracle route, independent
    of monomial_coefficient_d's sum over g and Kostka numbers; each value is
    checked to be a natural number (ArithmeticError otherwise).
    """
    lam, nu = check_partition(lam), check_partition(nu)
    if sum(lam) != sum(nu):
        raise ValueError("lam and nu must have the same size")
    k = sum(lam)
    table = character_table(k)
    weights = [s * a * b for s, a, b in zip(table.sizes, table.chi[lam], table.chi[nu])]
    kfact = math.factorial(k)
    return {
        mu: _natural(sum(map(mul, weights, xi)), kfact, "monomial coefficient", lam, mu, nu)
        for mu, xi in permutation_characters(k).items()
    }


def monomial_coefficient_point(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """d(lam,mu,nu) = (1/k!) sum_rho |C_rho| chi^lam(rho) chi^nu(rho) xi^mu(rho), for one triple.

    monomial_coefficient_row's sum at one mu, but read one class at a time:
    chi from _mn and xi from _xi, with neither character_table(k) nor
    permutation_characters(k) built, so a point query at large k costs
    three rows, not p(k) of each.  Checked to be a natural number
    (ArithmeticError otherwise).
    """
    lam, mu, nu = check_triple(lam, mu, nu)
    return _class_sum(
        lambda rho: (x := _xi(rho, mu)) and x * _mn(lam, rho) * _mn(nu, rho), "monomial coefficient", lam, mu, nu
    )
