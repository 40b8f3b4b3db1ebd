"""Order-2 forward-mode automatic differentiation.

A ``Jet2`` carries a scalar value together with its full gradient and
Hessian with respect to the chart coordinates.  All tensor quantities
downstream (metric derivatives, Christoffel symbols, curvature, second
Lie derivatives) are assembled from this arithmetic, which is exact to
round-off: no truncation error, unlike finite differences.

The Hessian is stored dense and kept bit-exactly symmetric: every update
below combines symmetric matrices and symmetrized outer products only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Function evaluated at a point outside its real domain."""


@dataclass(frozen=True)
class Point:
    """Evaluation locus: an ordered tuple of finite chart coordinates."""

    coords: tuple[float, ...]

    def __post_init__(self):
        if len(self.coords) == 0:
            raise ValueError("point needs at least one coordinate")
        if not all(math.isfinite(c) for c in self.coords):
            raise ValueError(f"non-finite coordinate in {self.coords}")
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)


def _sym_outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # u_i v_j + u_j v_i is exactly symmetric in floating point
    m = np.outer(u, v)
    return m + m.T


class Jet2:
    """Scalar value with first and second partials in ``n`` directions."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray):
        self.value = float(value)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @property
    def n(self) -> int:
        return self.grad.shape[0]

    @staticmethod
    def constant(value: float, n: int) -> "Jet2":
        return Jet2(value, np.zeros(n), np.zeros((n, n)))

    @staticmethod
    def seed(p: Point, k: int) -> "Jet2":
        """Jet of the k-th coordinate function at p: value x_k, grad e_k."""
        n = p.dim
        if not 0 <= k < n:
            raise IndexError(f"coordinate index {k} out of range for dim {n}")
        grad = np.zeros(n)
        grad[k] = 1.0
        return Jet2(p.coords[k], grad, np.zeros((n, n)))

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(float(other), self.n)

    # ---- arithmetic ----

    def __add__(self, other):
        o = self._coerce(other)
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet2(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        o = self._coerce(other)
        return Jet2(o.value - self.value, o.grad - self.grad, o.hess - self.hess)

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __mul__(self, other):
        o = self._coerce(other)
        return Jet2(
            self.value * o.value,
            self.value * o.grad + o.value * self.grad,
            self.value * o.hess + o.value * self.hess + _sym_outer(self.grad, o.grad),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.value == 0.0:
            raise ZeroDivisionError("jet division by zero value")
        q = self.value / o.value
        qg = (self.grad - q * o.grad) / o.value
        qh = (self.hess - _sym_outer(qg, o.grad) - q * o.hess) / o.value
        return Jet2(q, qg, qh)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, expo):
        if isinstance(expo, Jet2):
            if np.any(expo.grad) or np.any(expo.hess):
                # variable exponent: a^b = exp(b log a)
                return exp(expo * log(self))
            expo = expo.value
        e = float(expo)
        if e == int(e) and abs(e) <= 64:
            return self._int_pow(int(e))
        if self.value <= 0.0:
            raise DomainError(f"non-integer power of non-positive base {self.value}")
        return _chain(
            self,
            self.value ** e,
            e * self.value ** (e - 1.0),
            e * (e - 1.0) * self.value ** (e - 2.0),
        )

    def _int_pow(self, k: int) -> "Jet2":
        if k < 0:
            return 1.0 / self._int_pow(-k)
        result = Jet2.constant(1.0, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __repr__(self):
        return f"Jet2({self.value!r}, grad={self.grad.tolist()!r})"


def _chain(a: Jet2, f: float, df: float, d2f: float) -> Jet2:
    """Second-order chain rule for a scalar function applied to a jet."""
    return Jet2(
        f,
        df * a.grad,
        df * a.hess + d2f * np.outer(a.grad, a.grad),
    )


def _lift(fn, dfn, d2fn, name: str, domain=None):
    def apply(a):
        if not isinstance(a, Jet2):
            x = float(a)
            if domain is not None and not domain(x):
                raise DomainError(f"{name} of {x} outside real domain")
            return fn(x)
        if domain is not None and not domain(a.value):
            raise DomainError(f"{name} of {a.value} outside real domain")
        x = a.value
        return _chain(a, fn(x), dfn(x), d2fn(x))

    apply.__name__ = name
    return apply


def _cbrt_val(x: float) -> float:
    # real branch: cbrt(-x) = -cbrt(x)
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


sin = _lift(math.sin, math.cos, lambda x: -math.sin(x), "sin")
cos = _lift(math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x), "cos")
exp = _lift(math.exp, math.exp, math.exp, "exp")
log = _lift(math.log, lambda x: 1.0 / x, lambda x: -1.0 / (x * x), "log",
            domain=lambda x: x > 0.0)
sqrt = _lift(math.sqrt, lambda x: 0.5 / math.sqrt(x),
             lambda x: -0.25 / math.sqrt(x) ** 3, "sqrt",
             domain=lambda x: x > 0.0)
tanh = _lift(math.tanh, lambda x: 1.0 / math.cosh(x) ** 2,
             lambda x: -2.0 * math.tanh(x) / math.cosh(x) ** 2, "tanh")
cbrt = _lift(
    _cbrt_val,
    lambda x: abs(x) ** (-2.0 / 3.0) / 3.0,
    lambda x: -2.0 * math.copysign(abs(x) ** (-5.0 / 3.0), x) / 9.0,
    "cbrt",
    domain=lambda x: x != 0.0,
)

FUNCTIONS = {
    "sin": sin,
    "cos": cos,
    "exp": exp,
    "log": log,
    "sqrt": sqrt,
    "tanh": tanh,
    "cbrt": cbrt,
}


def fd_jet(f, p: Point, step: float = 1e-4) -> Jet2:
    """Central-difference jet of a scalar point-function at p.

    Independent of the jet arithmetic above; second-order accurate.  Used
    as the cross-check for everything the jets produce.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    n = p.dim
    x = np.array(p.coords)

    def ev(delta):
        return float(f(Point(tuple(x + delta))))

    f0 = ev(np.zeros(n))
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for k in range(n):
        dk = np.zeros(n)
        dk[k] = step
        fp = ev(dk)
        fm = ev(-dk)
        grad[k] = (fp - fm) / (2.0 * step)
        hess[k, k] = (fp - 2.0 * f0 + fm) / (step * step)
    for k in range(n):
        for l in range(k + 1, n):
            dk = np.zeros(n)
            dk[k] = step
            dl = np.zeros(n)
            dl[l] = step
            val = (ev(dk + dl) - ev(dk - dl) - ev(-dk + dl) + ev(-dk - dl)) / (
                4.0 * step * step
            )
            hess[k, l] = val
            hess[l, k] = val
    return Jet2(f0, grad, hess)
