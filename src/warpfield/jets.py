"""Order-2 forward-mode automatic differentiation over a set of points.

A ``Jet2`` carries values together with their gradients and Hessians in
n coordinate directions: the chart's, or one block's for an expression
in that block's coordinates alone.  All tensor quantities downstream
(metric derivatives, Christoffel symbols, curvature, second Lie
derivatives) are assembled from this arithmetic, which is exact to
round-off: no truncation error, unlike finite differences.

A jet has a leading sample axis: ``value`` has shape (S,), ``grad``
(S, n) and ``hess`` (S, n, n), so one walk of an expression tree
evaluates it at S points (vectorized forward mode, Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 3 and 13).  A constant jet has
no sample axis and broadcasts.  Every operation acts on each sample, and
each entry (i, j) of a Hessian on entries i and j of the gradients, alone;
the transcendental functions and non-integer powers call ``math`` and
Python ``**`` once per sample.  A result is therefore bit-identical
whichever batch, and whichever set of directions, it was computed in.

The Hessian is stored dense and kept bit-exactly symmetric: every update
below combines symmetric matrices and symmetrized outer products only.
"""

from __future__ import annotations

import math

import numpy as np


class DomainError(ValueError):
    """Function evaluated at a point outside its real domain.

    ``index`` is the position of the first failing sample in the batch,
    or None when the failing value had no sample axis.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DivisionByZero(DomainError, ZeroDivisionError):
    """Division by a zero value: a domain error that is still a
    ZeroDivisionError."""


def _g(v):
    """A value broadcast against gradients."""
    return v[:, None] if isinstance(v, np.ndarray) else v


def _h(v):
    """A value broadcast against Hessians."""
    return v[:, None, None] if isinstance(v, np.ndarray) else v


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def _sym_outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # u_i v_j + u_j v_i is exactly symmetric in floating point
    m = _outer(u, v)
    return m + m.swapaxes(-1, -2)


def _map(fn, x):
    """fn applied to each sample value as a Python float; a result too
    large for a float is inf, which the metric layer reports as an
    overflow at its sample."""
    try:
        if isinstance(x, np.ndarray):
            return np.array([fn(v) for v in x.tolist()], dtype=float)
        return fn(x)
    except OverflowError:
        return _map(_inf_on_overflow(fn), x)


def _inf_on_overflow(fn):
    def guarded(x):
        try:
            return fn(x)
        except OverflowError:
            return math.inf
    return guarded


def require(ok, values, message: str, error=DomainError) -> None:
    """Raise ``error`` (a DomainError) unless ``ok`` holds at every sample.

    The message is ``message`` formatted with the first failing value.
    """
    if np.all(ok):
        return
    batched = isinstance(values, np.ndarray)
    i = int(np.argmin(ok)) if batched else 0
    bad = float(values[i]) if batched else float(values)
    raise error(message.format(bad), index=i if batched else None)


class Jet2:
    """Values with first and second partials in ``n`` directions."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad: np.ndarray, hess: np.ndarray):
        self.value = (np.asarray(value, dtype=float) if np.ndim(value)
                      else float(value))
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @property
    def n(self) -> int:
        return self.grad.shape[-1]

    @staticmethod
    def constant(value: float, n: int) -> "Jet2":
        return Jet2(value, np.zeros(n), np.zeros((n, n)))

    def finite(self):
        """Per sample: the value and every partial are finite."""
        return (np.isfinite(self.value) & np.isfinite(self.grad).all(-1)
                & np.isfinite(self.hess).all((-2, -1)))

    def __getitem__(self, i: int) -> "Jet2":
        """The jet at sample i; a jet without a sample axis is the same
        at every sample."""
        if not isinstance(self.value, np.ndarray):
            return self
        return Jet2(self.value[i], self.grad[i], self.hess[i])

    # ---- arithmetic ----
    # A float operand acts on the value, gradient and Hessian directly: its
    # zero partials would add and multiply to zeros, so every entry equals
    # that of the constant-jet product rule (up to the sign of a zero).

    def __add__(self, o):
        if not isinstance(o, Jet2):
            return Jet2(self.value + float(o), self.grad, self.hess)
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __sub__(self, o):
        if not isinstance(o, Jet2):
            return Jet2(self.value - float(o), self.grad, self.hess)
        return Jet2(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        return Jet2(float(other) - self.value, -self.grad, -self.hess)

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __mul__(self, o):
        if not isinstance(o, Jet2):
            c = float(o)
            return Jet2(self.value * c, c * self.grad, c * self.hess)
        return Jet2(
            self.value * o.value,
            _g(self.value) * o.grad + _g(o.value) * self.grad,
            _h(self.value) * o.hess + _h(o.value) * self.hess
            + _sym_outer(self.grad, o.grad),
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, Jet2):
            c = float(o)
            require(c != 0.0, c, "division by zero", DivisionByZero)
            return Jet2(self.value / c, self.grad / c, self.hess / c)
        require(o.value != 0.0, o.value, "division by zero", DivisionByZero)
        q = self.value / o.value
        qg = (self.grad - _g(q) * o.grad) / _g(o.value)
        qh = (self.hess - _sym_outer(qg, o.grad) - _h(q) * o.hess) / _h(o.value)
        return Jet2(q, qg, qh)

    def __rtruediv__(self, other):
        return Jet2.constant(float(other), self.n) / self

    def __pow__(self, expo):
        if isinstance(expo, Jet2):
            varies = (np.any(expo.grad != 0.0, axis=-1)
                      | np.any(expo.hess != 0.0, axis=(-2, -1)))
            if np.all(varies):
                # variable exponent: a^b = exp(b log a)
                return exp(expo * log(self))
            first = expo[0].value
            if np.any(varies) or np.any(expo.value != first):
                return _per_sample(lambda a, b: a ** b, self, expo)
            expo = first
        e = float(expo)
        if e == int(e) and abs(e) <= 64:
            return int_pow(self, int(e)) if e else Jet2.constant(1.0, self.n)
        require(np.logical_not(self.value <= 0.0), self.value,
                "non-integer power of non-positive base {}")
        return _chain(
            self,
            _map(lambda x: x ** e, self.value),
            _map(lambda x: e * x ** (e - 1.0), self.value),
            _map(lambda x: e * (e - 1.0) * x ** (e - 2.0), self.value),
        )

    def __repr__(self):
        return f"Jet2({self.value!r}, grad={self.grad.tolist()!r})"


def int_pow(base, k: int):
    """base^k for an integer k != 0 by repeated squaring, a negative k as
    1 / base^-k; a float and each sample of a jet take the same steps."""
    if k < 0:
        return 1.0 / int_pow(base, -k)
    result = None
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return result


def _per_sample(op, *jets: Jet2) -> Jet2:
    """op applied at each sample on its own, for the rare operation whose
    branch differs between samples; the results are stacked again."""
    count = max(len(j.value) for j in jets if isinstance(j.value, np.ndarray))
    out = []
    for i in range(count):
        try:
            out.append(op(*(j[i] for j in jets)))
        except DomainError as err:
            raise DomainError(str(err), index=i) from None
    n = jets[0].n
    return Jet2(np.array([j.value for j in out]),
                np.stack([np.broadcast_to(j.grad, (n,)) for j in out]),
                np.stack([np.broadcast_to(j.hess, (n, n)) for j in out]))


def _chain(a: Jet2, f, df, d2f) -> Jet2:
    """Second-order chain rule for a scalar function applied to a jet."""
    return Jet2(
        f,
        _g(df) * a.grad,
        _h(df) * a.hess + _h(d2f) * _outer(a.grad, a.grad),
    )


def _lift(fn, dfn, d2fn, name: str, domain=None):
    message = name + " of {} outside real domain"

    def apply(a):
        if not isinstance(a, Jet2):
            x = float(a)
            if domain is not None:
                require(domain(x), x, message)
            return _map(fn, x)
        x = a.value
        if domain is not None:
            require(domain(x), x, message)
        return _chain(a, _map(fn, x), _map(dfn, x), _map(d2fn, x))

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
# past |x| = 355, cosh(x)^2 overflows while 1/cosh(x)^2 is 0.0 in double
tanh = _lift(math.tanh,
             lambda x: 1.0 / math.cosh(x) ** 2 if abs(x) < 355.0 else 0.0,
             lambda x: -2.0 * math.tanh(x) / math.cosh(x) ** 2 if abs(x) < 355.0 else 0.0,
             "tanh")
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

