"""Polynomial optimization problem instances and their JSON file format.

An instance is: minimize f(x) subject to h_i(x) = 0 and g_j(x) >= 0.
The file format stores each polynomial as a list of {coefficient, exponents}
records so that parse -> print -> parse is idempotent.  ``read_json`` and
``write_json`` read and write every JSON file of the package (instances,
certificates, ensemble failure dumps), and ``PopInstance.worst_violation``
is its one feasibility test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, ParseError, check_tolerance
from .polynomials import Polynomial


@dataclass(frozen=True)
class PopInstance:
    """Problem data: objective f, equalities h, inequalities g.

    Either constraint tuple may be empty; a constraint that is the zero
    polynomial raises ValueError.  ``metadata`` carries optional extras
    (known minimum, known minimizers, ball radius) and never affects
    computation.
    """

    f: Polynomial
    h: tuple = ()
    g: tuple = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(self.h))
        object.__setattr__(self, "g", tuple(self.g))
        n = self.f.nvars
        for p in self.h + self.g:
            if p.nvars != n:
                raise DimensionMismatchError(
                    f"constraint has {p.nvars} variables, objective has {n}")
        zero = [f"h[{i}]" for i, p in enumerate(self.h) if p.is_zero()] + \
            [f"g[{j}]" for j, p in enumerate(self.g) if p.is_zero()]
        if zero:
            raise ValueError(f"constraint {zero[0]} is the zero polynomial")

    @property
    def nvars(self) -> int:
        return self.f.nvars

    def max_degree(self) -> int:
        degs = [self.f.degree] + [p.degree for p in self.h] + [p.degree for p in self.g]
        finite = [d for d in degs if d != float("-inf")]
        return int(max(finite, default=0))

    def min_level(self) -> int:
        """Smallest admissible relaxation level: ceil(max degree / 2), at least 1."""
        return max(1, math.ceil(self.max_degree() / 2))

    # -- feasibility -------------------------------------------------------

    def worst_violation(self, point, tol: float = 1e-8) -> tuple[float, str] | None:
        """The worst constraint violation beyond ``band``, as (amount, label), or None.

        The label is ``h[i]`` or ``g[j]``; the first of equally bad constraints
        wins.  A point that is not finite, or where a constraint's value or
        band overflows, is reported as (inf, NOT_FINITE).  Raises ValueError
        when ``tol`` is not finite and positive.
        """
        check_tolerance("tol", tol)
        u = np.asarray(point, dtype=float)
        if not np.isfinite(u).all():
            return math.inf, NOT_FINITE
        signed = [(abs(p.eval(u)), f"h[{i}]", p) for i, p in enumerate(self.h)] + \
            [(-p.eval(u), f"g[{j}]", p) for j, p in enumerate(self.g)]
        bands = [band(p, u, tol) for _, _, p in signed]
        # a value or band that leaves the float range would flag nothing
        if not all(math.isfinite(v) and math.isfinite(b) for (v, _, _), b in zip(signed, bands)):
            return math.inf, NOT_FINITE
        over = [(amount, label) for (amount, label, _), b in zip(signed, bands) if amount > b]
        return max(over, key=lambda v: v[0], default=None)


NOT_FINITE = "point (not finite)"   # worst_violation's label for a NaN, inf or overflowing point


def band(p: Polynomial, point, tol: float) -> float:
    """tol * (1 + sum_a |c_a| |u^a|), the band of p(u) around 0 that counts as 0."""
    return tol * (1.0 + p.eval_abs(point))


def ball_constraint(nvars: int, radius_sq: float) -> Polynomial:
    """The polynomial radius_sq - (x1^2 + ... + xn^2)."""
    terms = {(0,) * nvars: float(radius_sq)}
    for i in range(nvars):
        mono = tuple(2 if j == i else 0 for j in range(nvars))
        terms[mono] = -1.0
    return Polynomial(nvars, terms)


# -- JSON instance files ----------------------------------------------------

def _poly_to_records(p: Polynomial) -> list:
    return [{"coefficient": c, "exponents": list(m)} for m, c in p.sorted_terms()]


def _poly_from_records(records, nvars: int) -> Polynomial:
    if not isinstance(records, list):
        raise ParseError(f"expected a list of polynomial term records, got {records!r}")
    terms = {}
    for rec in records:
        try:
            coeff = float(rec["coefficient"])
            expo = tuple(int(e) for e in rec["exponents"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad polynomial term record {rec!r}") from exc
        if len(expo) != nvars:
            raise ParseError(
                f"exponent vector {list(expo)} has length {len(expo)}, expected {nvars}")
        terms[expo] = terms.get(expo, 0.0) + coeff
    try:
        return Polynomial(nvars, terms)
    except ValueError as exc:   # a negative exponent or a coefficient that is not finite
        raise ParseError(f"bad polynomial term records: {exc}") from exc


def _polys_from_list(lists, nvars: int, key: str) -> tuple:
    if not isinstance(lists, list):
        raise ParseError(f"'{key}' must be a list of polynomials, got {lists!r}")
    return tuple(_poly_from_records(r, nvars) for r in lists)


def instance_to_dict(inst: PopInstance) -> dict:
    doc = {
        "nvars": inst.nvars,
        "variables": [f"x{i + 1}" for i in range(inst.nvars)],
        "objective": _poly_to_records(inst.f),
        "equalities": [_poly_to_records(p) for p in inst.h],
        "inequalities": [_poly_to_records(p) for p in inst.g],
    }
    if inst.metadata:
        doc["metadata"] = _jsonable(inst.metadata)
    return doc


def instance_from_dict(doc: dict) -> PopInstance:
    try:
        nvars = int(doc["nvars"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("instance file lacks a valid 'nvars' field") from exc
    if nvars < 1:
        raise ParseError(f"nvars must be positive, got {nvars}")
    f = _poly_from_records(doc.get("objective", []), nvars)
    h = _polys_from_list(doc.get("equalities", []), nvars, "equalities")
    g = _polys_from_list(doc.get("inequalities", []), nvars, "inequalities")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError(f"'metadata' must be an object, got {metadata!r}")
    try:
        return PopInstance(f=f, h=h, g=g, metadata=dict(metadata))
    except ValueError as exc:   # a constraint that is the zero polynomial
        raise ParseError(f"bad instance: {exc}") from exc


def write_instance(inst: PopInstance, path) -> None:
    write_json(instance_to_dict(inst), path, indent=2)


def write_json(doc: dict, path, indent: int) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")


def read_instance(path) -> PopInstance:
    return instance_from_dict(read_json(path))


def read_json(path) -> dict:
    """The JSON object a file holds; ParseError if it is not valid JSON or not an object."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:   # a JSON decode error, or bytes that are not text
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return doc


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value
