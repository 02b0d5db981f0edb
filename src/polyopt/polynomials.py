"""Sparse multivariate polynomial arithmetic, calculus, and monomial bases.

A monomial is an exponent tuple ``(a1, ..., an)`` standing for
``x1^a1 * ... * xn^an``.  A polynomial is a canonical map from monomials to
float coefficients.  All ordering in the toolkit (bases, SDP constraint rows)
is graded lexicographic: lower total degree first, and within a degree
x1-heavy monomials first.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import combinations_with_replacement
from types import MappingProxyType

from .errors import DimensionMismatchError

Monomial = tuple[int, ...]

# Relative threshold below which coefficients are treated as float dust and
# dropped during canonicalization.
COEFF_DROP_REL = 1e-14

NEG_INF = float("-inf")


def grlex_key(exponents: Monomial):
    """Sort key realizing the graded-lexicographic order."""
    return (sum(exponents), tuple(-e for e in exponents))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def _canonicalize(terms: dict, drop_rel: float = COEFF_DROP_REL) -> dict:
    """Drop zero and dust coefficients; keys stay exponent tuples.  Raises
    ValueError on a coefficient that is not finite: a NaN would make every
    dust test false and drop every term."""
    if not terms:
        return {}
    if not all(map(math.isfinite, terms.values())):
        bad = next(m for m, c in terms.items() if not math.isfinite(c))
        raise ValueError(f"coefficient {terms[bad]!r} of monomial {bad} is not finite")
    biggest = max(abs(c) for c in terms.values())
    if biggest == 0.0:
        return {}
    cutoff = drop_rel * biggest
    return {m: float(c) for m, c in terms.items() if abs(c) > cutoff}


class Polynomial:
    """Immutable sparse polynomial with float coefficients.

    Stored in canonical form: no zero coefficients, and any coefficient
    smaller than ``COEFF_DROP_REL`` times the largest one is dropped (guards
    against float dust after cancellations).  A coefficient that is not
    finite, given or produced by arithmetic, raises ValueError.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != nvars:
                raise DimensionMismatchError(
                    f"exponent vector {mono} has length {len(mono)}, expected {nvars}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            clean[mono] = clean.get(mono, 0.0) + float(coeff)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", _canonicalize(clean))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial, (self.nvars, self.terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars, {})

    @staticmethod
    def constant(nvars: int, value: float) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, index: int) -> "Polynomial":
        """The polynomial x_{index+1} (0-based index)."""
        if not 0 <= index < nvars:
            raise DimensionMismatchError(f"variable index {index} out of range for n={nvars}")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return Polynomial(nvars, {mono: 1.0})

    @staticmethod
    def monomial(nvars: int, exponents: Monomial, coeff: float = 1.0) -> "Polynomial":
        return Polynomial(nvars, {tuple(exponents): coeff})

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(m) for m in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        """Terms in graded-lex order (deterministic iteration)."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=grlex_key)]

    def coefficient(self, exponents: Monomial) -> float:
        return self.terms.get(tuple(exponents), 0.0)

    def coeff_norm(self) -> float:
        """Max absolute coefficient (0 for the zero polynomial)."""
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"operands have {self.nvars} and {other.nvars} variables")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0.0) + c
        return Polynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self.nvars, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = monomial_mul(m1, m2)
                out[key] = out.get(key, 0.0) + c1 * c2
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = Polynomial.constant(self.nvars, 1.0)
        for _ in range(exponent):
            result = result * self
        return result

    # -- calculus ----------------------------------------------------------

    def differentiate(self, index: int) -> "Polynomial":
        """Partial derivative with respect to x_{index+1}."""
        out = {}
        for m, c in self.terms.items():
            e = m[index]
            if e == 0:
                continue
            key = tuple(ei - 1 if i == index else ei for i, ei in enumerate(m))
            out[key] = out.get(key, 0.0) + c * e
        return Polynomial(self.nvars, out)

    def gradient(self) -> list["Polynomial"]:
        return [self.differentiate(i) for i in range(self.nvars)]

    def hessian(self) -> list[list["Polynomial"]]:
        grad = self.gradient()
        return [[grad[i].differentiate(j) for j in range(self.nvars)] for i in range(self.nvars)]

    # -- evaluation --------------------------------------------------------

    def __call__(self, point) -> float:
        return self.eval(point)

    def eval(self, point) -> float:
        """Evaluate at a point, with compensated (exact) term summation.

        Where a power, a term or the sum leaves the float range, the value is
        what ``eval_many``'s plain IEEE arithmetic gives (inf, -inf or nan),
        not an OverflowError."""
        if len(point) != self.nvars:
            raise DimensionMismatchError(
                f"point has length {len(point)}, expected {self.nvars}")
        try:
            vals = []
            for m, c in self.terms.items():
                term = c
                for xi, e in zip(point, m):
                    if e:
                        term *= float(xi) ** e
                vals.append(term)
            return math.fsum(vals)
        except (OverflowError, ValueError):   # fsum raises ValueError on inf - inf
            import numpy as np

            with np.errstate(over="ignore", invalid="ignore"):
                return float(self.eval_many(np.asarray([point], dtype=float))[0])

    def eval_abs(self, point) -> float:
        """Sum of |coeff| * |x|^alpha; a scale bound for evaluation magnitudes,
        inf where a power leaves the float range."""
        total = 0.0
        for m, c in self.terms.items():
            term = abs(c)
            for xi, e in zip(point, m):
                if e:
                    try:
                        term *= abs(float(xi)) ** e
                    except OverflowError:
                        return math.inf
            total += term
        return total

    def eval_many(self, points):
        """Vectorized evaluation on an (npoints, nvars) array. Plain summation."""
        import numpy as np

        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.nvars:
            raise DimensionMismatchError(
                f"points must have shape (*, {self.nvars}), got {pts.shape}")
        out = np.zeros(pts.shape[0])
        for m, c in self.terms.items():
            term = np.full(pts.shape[0], c)
            for i, e in enumerate(m):
                if e:
                    term = term * pts[:, i] ** e
            out += term
        return out

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """Serialize as ``coeff * x1^a1 x2^a2`` terms joined by '+'.

        Coefficients are written with repr, so each is its exact float.
        """
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = [f"x{i + 1}^{e}" for i, e in enumerate(m) if e]
            if factors:
                parts.append(f"{c!r} * " + " ".join(factors))
            else:
                parts.append(repr(c))
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.to_text()!r})"

    def __str__(self):
        return self.to_text()


class MonomialBasis:
    """All monomials of degree <= max_degree in n variables, graded-lex ordered."""

    __slots__ = ("nvars", "max_degree", "entries", "index")

    def __init__(self, nvars: int, max_degree: int):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        entries = []
        for total in range(max_degree + 1):
            for combo in combinations_with_replacement(range(nvars), total):
                e = [0] * nvars
                for i in combo:
                    e[i] += 1
                entries.append(tuple(e))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "index",
                           MappingProxyType({m: i for i, m in enumerate(entries)}))

    def __setattr__(self, name, value):
        raise AttributeError("MonomialBasis is immutable")

    def __reduce__(self):
        # copies and unpickled bases are the shared one of ``basis``
        return basis, (self.nvars, self.max_degree)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]


@functools.lru_cache(maxsize=None)
def basis(nvars: int, max_degree: int) -> MonomialBasis:
    """Graded-lex monomial basis of size binomial(nvars + max_degree, max_degree).

    Bases are immutable, so each (nvars, max_degree) is built once and shared.
    """
    return MonomialBasis(nvars, max_degree)


def basis_size(nvars: int, max_degree: int) -> int:
    return math.comb(nvars + max_degree, max_degree)


def motzkin() -> Polynomial:
    """The Motzkin polynomial x1^2 x2^2 (x1^2 + x2^2 - 3 x3^2) + x3^6.

    Nonnegative on R^3 but not a sum of squares; the standard example for
    which the relaxation hierarchy over the unit ball never closes at a
    finite level.
    """
    return Polynomial(3, {
        (4, 2, 0): 1.0,
        (2, 4, 0): 1.0,
        (2, 2, 2): -3.0,
        (0, 0, 6): 1.0,
    })
