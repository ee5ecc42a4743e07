"""Concrete Rogers functions and their evaluation.

A Rogers function is a function holomorphic in the right half-plane with
re(f(xi)/xi) >= 0; exactly the characteristic exponents of Levy processes
with completely monotone jumps (possibly killed at a constant rate).  Four
concrete families are supported:

* :class:`LevyAtomic` -- quadruple (a, b, c, mu) with a purely atomic
  spectral measure mu = sum w_j delta_{s_j},
* :class:`StableSum` -- sums w (-+ i xi + m)^alpha,
* :class:`RationalProduct` -- products prefactor * prod (+- i xi + m)^(+-1),
* :class:`PhiRep` -- exponential representation driven by a tabulated
  boundary-angle function phi with values in [0, pi].

Every family evaluates on the slit plane C \\ iR (values in the left
half-plane are fixed by the reflection f(-conj(xi)) = conj(f(xi))) and on
the parts of the imaginary axis where the function extends continuously
with values in (0, inf).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    EstimationError,
    RogersViolationError,
    ValidationError,
)
from .report import VerifyReport

__all__ = [
    "PhiTable",
    "LevyAtomic",
    "StableSum",
    "StableTerm",
    "RationalProduct",
    "RationalFactor",
    "PhiRep",
    "ShiftedSpec",
    "LimitsResult",
    "validate_spec",
    "eval_f",
    "eval_f_prime",
    "levy_density",
    "f_limits",
    "estimate_phi",
    "check_function_bounds",
    "is_constant",
    "is_degenerate",
    "is_symmetric",
    "is_compound_poisson",
    "shift_spec",
    "total_jump_rate",
    "compensator_drift",
]

_MINUS_I = "minus-i"
_PLUS_I = "plus-i"
_ORIENTATIONS = (_MINUS_I, _PLUS_I)

PW_CONSTANT = "piecewise-constant"
PW_LINEAR = "piecewise-linear"


# ---------------------------------------------------------------------------
# spec types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiTable:
    """Sampled boundary-angle function phi(s) in [0, pi].

    ``breakpoints`` is a strictly increasing grid covering the support
    window; outside the window phi is extrapolated as the constant boundary
    value.  For piecewise-constant tables ``values`` holds one value per
    cell (``len(breakpoints) - 1``); for piecewise-linear tables one value
    per breakpoint.
    """

    breakpoints: tuple
    values: tuple
    interpolation: str = PW_LINEAR

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(s) for s in self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def validate(self):
        bp, vals = self.breakpoints, self.values
        if self.interpolation not in (PW_CONSTANT, PW_LINEAR):
            raise ValidationError("phi.interpolation", f"unknown tag {self.interpolation!r}")
        if len(bp) < 2:
            raise ValidationError("phi.breakpoints", "need at least two breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValidationError("phi.breakpoints", "must be strictly increasing")
        want = len(bp) - 1 if self.interpolation == PW_CONSTANT else len(bp)
        if len(vals) != want:
            raise ValidationError(
                "phi.values", f"expected {want} values for {self.interpolation}, got {len(vals)}"
            )
        for k, v in enumerate(vals):
            if not (0.0 <= v <= math.pi + 1e-15):
                raise ValidationError(f"phi.values[{k}]", "phi values must lie in [0, pi]")

    def value_at(self, s):
        """phi(s), with constant extrapolation beyond the window."""
        s = np.asarray(s, dtype=float)
        bp = np.asarray(self.breakpoints)
        vals = np.asarray(self.values)
        if self.interpolation == PW_CONSTANT:
            idx = np.clip(np.searchsorted(bp, s, side="right") - 1, 0, len(vals) - 1)
            out = vals[idx]
        else:
            out = np.interp(s, bp, vals)
        return out if out.ndim else float(out)

    @cached_property
    def _sides(self):
        """The kernels of phi(t) and phi(-t), t > 0, built once per table."""
        return _phi_side(self, 1.0), _phi_side(self, -1.0)


_BLOCK = 1 << 16  # points x cells per block of kernel temporaries


class _AngleSide:
    """One side of a boundary angle, integrated exactly cell by cell.

    phi(t) on t > 0 is ``phi_in`` on (0, t[0]), linear from phi[k] to
    phi[k+1] on [t[k], t[k+1]] (equal abscissae make a jump) and ``phi_out``
    beyond t[-1].  :meth:`exponent` returns

        E(z) = (1/pi) int_0^inf phi(t) (1/(1+t) - 1/(z+t)) dt

    off the cut z in (-inf, 0]; a Wiener-Hopf factor is exp(E) up to a
    constant, and a PhiRep exponent is E+(-i xi) + E-(i xi).  On a cell
    [a, b] = [a, a + w] with phi = pa + dphi (t - a)/w,

        int_a^b phi/(z+t) dt = pa L + dphi (1 - L/x),  x = w/(z+a), L = log1p(x),

    which, unlike the antiderivative in alpha + beta t, stays exact on the
    narrow jump cells of estimated tables.  Cells with phi = 0 at both ends
    are dropped, which keeps values on the cut free of winding where phi
    vanishes around t = -z.
    """

    def __init__(self, t, phi, phi_in, phi_out):
        t = np.asarray(t, dtype=float)
        phi = np.asarray(phi, dtype=float)
        self.phi_zero = float(phi_in if t[0] > 0.0 else phi[0])  # phi(0+)
        self.phi_out = float(phi_out)
        self.t_out = float(t[-1])
        t = np.concatenate([[0.0], t])
        p = np.concatenate([[phi_in], phi])
        keep = (t[1:] > t[:-1]) & ((p[:-1] != 0.0) | (p[1:] != 0.0))
        self.a, self.b = t[:-1][keep], t[1:][keep]
        self.pa, self.pb = p[:-1][keep], p[1:][keep]
        self.w = self.b - self.a
        self.dphi = self.pb - self.pa
        self.slope = self.dphi / self.w
        # z-free constants: int phi/(1+t) over the cells, and E(0)
        self.j_one = float(self._cell_sums(np.ones(1, dtype=complex), prime=False)[0].real)
        inner = self.a > 0.0
        x = self.w[inner] / self.a[inner]
        lg = np.log1p(x)
        j_zero = np.sum(self.pa[inner] * lg + self.dphi[inner] * (1.0 - lg / x))
        j_zero += np.sum(self.dphi[~inner])
        outer = 0.0
        if self.phi_out != 0.0 and self.t_out > 0.0:
            outer = self.phi_out * math.log(self.t_out / (1.0 + self.t_out))
        self.e_zero = float(self.j_one - j_zero + outer) / math.pi
        if self.phi_zero > 1e-9:
            self.e_zero = -math.inf

    def _cell_sums(self, z, prime):
        """Sum over cells of int phi/(z+t) dt (or of int phi/(z+t)^2 dt), per point."""
        out = np.empty(z.shape, dtype=complex)
        rows = max(1, _BLOCK // max(1, len(self.a)))
        for lo in range(0, len(z), rows):
            zb = z[lo : lo + rows, None]
            zi = zb.imag
            yr = zb.real + self.a  # y = z + a
            d = self.w / (yr * yr + zi * zi)
            xr = yr * d  # x = w/y
            r2 = self.w * d  # |x|^2
            # L = log((z+b)/(z+a)) = log1p(x) in real arithmetic where |x| < 1/2
            with np.errstate(divide="ignore", invalid="ignore"):  # x near -1 is redone below
                lr = 0.5 * np.log1p(2.0 * xr + r2)
            li = np.arctan2(-zi * d, 1.0 + xr)
            far = r2 >= 0.25
            if far.any():
                rr, cc = np.nonzero(far)
                zf = zb[rr, 0]
                lf = np.log((zf + self.b[cc]) / (zf + self.a[cc]))
                lr[far], li[far] = lf.real, lf.imag
            if prime:
                y, lg = yr + 1j * zi, lr + 1j * li
                terms = self.pa / y - self.pb / (zb + self.b) + self.slope * lg
                out[lo : lo + rows] = terms.sum(axis=1)
                continue
            # pa L + dphi (1 - L/x) = dphi + L (pa - slope y), as 1/x = y/w
            c = self.pa - self.slope * yr
            sz = self.slope * zi
            re = (lr * c + li * sz).sum(axis=1) + self.dphi.sum()
            out[lo : lo + rows] = re + 1j * (li * c - lr * sz).sum(axis=1)
        return out

    def exponent(self, z):
        """E(z) at complex z (scalar or array).

        E(0) = -inf where phi(0+) > 1e-9; below that, the constant part of
        phi on a cell touching t = 0 is dropped as negligible (its integral
        diverges there).
        """
        z = np.asarray(z, dtype=complex)
        zv = z.reshape(-1)
        n_nonzero = np.count_nonzero(zv)
        if n_nonzero < zv.size:
            out = np.full(zv.shape, self.e_zero, dtype=complex)
            if n_nonzero:
                nz = zv != 0.0
                out[nz] = self.exponent(zv[nz])
            return out.reshape(z.shape)
        val = self.j_one - self._cell_sums(zv, prime=False)
        if self.phi_out != 0.0:
            val += self.phi_out * np.log((zv + self.t_out) / (1.0 + self.t_out))
        return (val / math.pi).reshape(z.shape)

    def exponent_prime(self, z):
        """E'(z) = (1/pi) int_0^inf phi(t)/(z+t)^2 dt at complex z != 0."""
        z = np.asarray(z, dtype=complex)
        zv = z.reshape(-1)
        val = self._cell_sums(zv, prime=True)
        if self.phi_out != 0.0:
            val += self.phi_out / (zv + self.t_out)
        return (val / math.pi).reshape(z.shape)


def _phi_side(table: PhiTable, sign):
    """The kernel of phi(sign t), t > 0, read off a table.

    A cell straddling s = 0 is split at its value there, as ``value_at``
    interpolates it; a piecewise-constant table is a polyline with a jump at
    every interior breakpoint.
    """
    bp = sign * np.asarray(table.breakpoints)
    vals = np.asarray(table.values)
    if sign < 0.0:
        bp, vals = bp[::-1], vals[::-1]
    if table.interpolation == PW_CONSTANT:
        phi0 = vals[min(max(np.searchsorted(bp, 0.0, side="right") - 1, 0), len(vals) - 1)]
        bp, vals = np.repeat(bp, 2)[1:-1], np.repeat(vals, 2)
    else:
        phi0 = np.interp(0.0, bp, vals)
    pos = bp > 0.0
    return _AngleSide(np.append(0.0, bp[pos]), np.append(phi0, vals[pos]), phi0, vals[-1])


@dataclass(frozen=True)
class LevyAtomic:
    """Exponent a xi^2 - i b xi + c plus an atomic spectral measure.

    ``atoms`` is a tuple of (s_j, w_j) with s_j != 0 and w_j > 0; the
    corresponding Levy density is (1/pi) sum_j w_j e^{-|s_j x|} on the side
    matching the sign of s_j.
    """

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    atoms: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "atoms", tuple((float(s), float(w)) for s, w in self.atoms)
        )

    @cached_property
    def _jumps(self):
        """(drift, ((s, rate), ...)): f = a xi^2 - i drift xi + c + sum rate xi/(xi + i s).

        drift = b - compensator_drift is the path drift between jumps, and
        the atom at s is a jump rate w/(pi |s|) with Exp(|s|) sizes of sign s.
        """
        return self.b - compensator_drift(self), tuple(
            (s, w / (math.pi * abs(s))) for s, w in self.atoms
        )


@dataclass(frozen=True)
class StableTerm:
    w: float
    m: float
    alpha: float
    orientation: str


@dataclass(frozen=True)
class StableSum:
    """Sum of terms w * (-+ i xi + m)^alpha with principal-branch powers."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "terms",
            tuple(t if isinstance(t, StableTerm) else StableTerm(*t) for t in self.terms),
        )


@dataclass(frozen=True)
class RationalFactor:
    orientation: str
    m: float
    exponent: int


@dataclass(frozen=True)
class RationalProduct:
    """prefactor * prod (+- i xi + m)^(+-1)."""

    prefactor: float
    factors: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "factors",
            tuple(
                f if isinstance(f, RationalFactor) else RationalFactor(*f)
                for f in self.factors
            ),
        )


@dataclass(frozen=True)
class PhiRep:
    """Exponential representation c * exp((1/pi) int kern(xi, s) phi(s)/|s| ds)."""

    c: float
    phi: PhiTable


@dataclass(frozen=True)
class ShiftedSpec:
    """tau + f for a base spec; the shift models killing / temporal Laplace."""

    base: object
    shift: float


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _atomic_core(spec: LevyAtomic, xi):
    drift, jumps = spec._jumps
    val = spec.a * xi * xi - 1j * drift * xi + spec.c
    for s, rate in jumps:
        val = val + rate * xi / (xi + 1j * s)
    return val


def _stable_core(spec: StableSum, xi):
    val = np.zeros_like(xi) if isinstance(xi, np.ndarray) else 0.0 + 0.0j
    for t in spec.terms:
        rot = -1j if t.orientation == _MINUS_I else 1j
        val = val + t.w * (rot * xi + t.m) ** t.alpha
    return val


def _rational_core(spec: RationalProduct, xi):
    val = np.full_like(xi, spec.prefactor) if isinstance(xi, np.ndarray) else complex(spec.prefactor)
    for f in spec.factors:
        rot = -1j if f.orientation == _MINUS_I else 1j
        base = rot * xi + f.m
        val = val * base if f.exponent == 1 else val / base
    return val


def _phirep_exponent(table: PhiTable, xi):
    """(1/pi) int (xi/(xi+is) - 1/(1+|s|)) phi(s)/|s| ds = E+(-i xi) + E-(i xi)."""
    xi = np.asarray(xi, dtype=complex)
    plus, minus = table._sides
    return plus.exponent(-1j * xi) + minus.exponent(1j * xi)


def _phirep_core(spec: PhiRep, xi):
    val = spec.c * np.exp(_phirep_exponent(spec.phi, xi))
    return val if isinstance(xi, np.ndarray) else complex(val)


def _eval_core(spec, xi):
    """Evaluate on re(xi) >= 0 (axis included, without domain filtering)."""
    if isinstance(spec, LevyAtomic):
        return _atomic_core(spec, xi)
    if isinstance(spec, StableSum):
        return _stable_core(spec, xi)
    if isinstance(spec, RationalProduct):
        return _rational_core(spec, xi)
    if isinstance(spec, PhiRep):
        return _phirep_core(spec, xi)
    if isinstance(spec, ShiftedSpec):
        return spec.shift + _eval_core(spec.base, xi)
    raise TypeError(f"not a Rogers spec: {type(spec).__name__}")


def _axis_value(spec, xi):
    """Boundary value on the imaginary axis; must land in (0, inf)."""
    y = xi.imag
    if y == 0.0:
        lim = f_limits(spec)
        if math.isfinite(lim.f_at_zero) and lim.f_at_zero > 0.0:
            return complex(lim.f_at_zero)
        raise DomainError("xi = 0 is outside the domain of this spec")
    s_star = -y
    if isinstance(spec, LevyAtomic) and any(
        s == s_star for s, _ in spec.atoms
    ):
        raise DomainError(f"xi={xi} is a pole of the spectral measure")
    if isinstance(spec, PhiRep):
        if spec.phi.value_at(s_star) > 1e-9:
            raise DomainError(f"xi={xi} lies on the boundary support (phi > 0)")
    if isinstance(spec, ShiftedSpec):
        return spec.shift + _axis_value(spec.base, xi)
    val = complex(_eval_core(spec, xi))
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise DomainError(f"evaluation not finite at xi={xi}")
    if abs(val.imag) > 1e-9 * (1.0 + abs(val)) or val.real <= 0.0:
        raise DomainError(f"xi={xi} is outside the domain (boundary value {val} not in (0, inf))")
    return complex(val.real)


def eval_f(spec, xi):
    """Evaluate the exponent at ``xi`` (complex scalar or array).

    Points with re(xi) < 0 use the reflection f(-conj(xi)) = conj(f(xi)).
    Points exactly on the imaginary axis are admitted only where the
    function extends continuously with a value in (0, inf); otherwise a
    :class:`DomainError` is raised.
    """
    if isinstance(xi, np.ndarray):
        xi = np.asarray(xi, dtype=complex)
        right = xi.real > 0.0
        if right.all():  # the common case needs no masks
            return np.asarray(_eval_core(spec, xi), dtype=complex)
        out = np.empty(xi.shape, dtype=complex)
        left = xi.real < 0.0
        axis = ~right & ~left
        if right.any():
            out[right] = _eval_core(spec, xi[right])
        if left.any():
            out[left] = np.conj(_eval_core(spec, -np.conj(xi[left])))
        if axis.any():
            flat_idx = np.flatnonzero(axis.ravel())
            res = out.ravel()
            src = xi.ravel()
            for k in flat_idx:
                res[k] = _axis_value(spec, complex(src[k]))
        return out

    xi = complex(xi)
    if xi.real > 0.0:
        return complex(_eval_core(spec, xi))
    if xi.real < 0.0:
        return complex(np.conj(_eval_core(spec, -xi.conjugate())))
    return _axis_value(spec, xi)


def _prime_core(spec, xi):
    if isinstance(spec, LevyAtomic):
        drift, jumps = spec._jumps
        val = 2.0 * spec.a * xi - 1j * drift
        for s, rate in jumps:
            val = val + rate * 1j * s / (xi + 1j * s) ** 2
        return val
    if isinstance(spec, StableSum):
        val = np.zeros_like(xi) if isinstance(xi, np.ndarray) else 0.0 + 0.0j
        for t in spec.terms:
            rot = -1j if t.orientation == _MINUS_I else 1j
            val = val + t.w * t.alpha * rot * (rot * xi + t.m) ** (t.alpha - 1.0)
        return val
    if isinstance(spec, RationalProduct):
        val = _rational_core(spec, xi)
        logd = np.zeros_like(xi) if isinstance(xi, np.ndarray) else 0.0 + 0.0j
        for f in spec.factors:
            rot = -1j if f.orientation == _MINUS_I else 1j
            logd = logd + f.exponent * rot / (rot * xi + f.m)
        return val * logd
    if isinstance(spec, PhiRep):
        return _phirep_core(spec, xi) * _phirep_log_prime(spec, xi)
    if isinstance(spec, ShiftedSpec):
        return _prime_core(spec.base, xi)
    raise TypeError(f"not a Rogers spec: {type(spec).__name__}")


def _phirep_log_prime(spec: PhiRep, xi):
    """(log f)'(xi) = -i E+'(-i xi) + i E-'(i xi)."""
    xi = np.asarray(xi, dtype=complex)
    plus, minus = spec.phi._sides
    return 1j * (minus.exponent_prime(1j * xi) - plus.exponent_prime(-1j * xi))


def eval_f_prime(spec, xi):
    """Derivative f'(xi); reflection f'(-conj(xi)) = -conj(f'(xi)) on the left."""
    if isinstance(xi, np.ndarray):
        xi = np.asarray(xi, dtype=complex)
        out = np.empty(xi.shape, dtype=complex)
        right = xi.real >= 0.0
        if right.any():
            out[right] = _prime_core(spec, xi[right])
        if (~right).any():
            out[~right] = -np.conj(_prime_core(spec, -np.conj(xi[~right])))
        return out
    xi = complex(xi)
    if xi.real >= 0.0:
        return complex(_prime_core(spec, xi))
    return complex(-np.conj(_prime_core(spec, -xi.conjugate())))


# ---------------------------------------------------------------------------
# structure predicates and derived quantities
# ---------------------------------------------------------------------------


def total_jump_rate(spec: LevyAtomic):
    """Total mass of the Levy measure: (1/pi) sum w_j / |s_j|."""
    return sum(w / abs(s) for s, w in spec.atoms) / math.pi


def compensator_drift(spec: LevyAtomic):
    """int (1 - e^{-|x|}) sign(x) nu(dx), the drift of a compound Poisson spec."""
    return sum(
        math.copysign(1.0, s) * w / (abs(s) * (1.0 + abs(s))) for s, w in spec.atoms
    ) / math.pi


def is_compound_poisson(spec):
    if isinstance(spec, ShiftedSpec):
        return False if spec.shift != 0.0 else is_compound_poisson(spec.base)
    if not isinstance(spec, LevyAtomic):
        return False
    if spec.a != 0.0:
        return False
    bc = compensator_drift(spec)
    return abs(spec.b - bc) <= 1e-12 * (1.0 + abs(spec.b) + abs(bc))


def is_constant(spec):
    if isinstance(spec, LevyAtomic):
        return spec.a == 0.0 and spec.b == 0.0 and not spec.atoms
    if isinstance(spec, StableSum):
        return all(t.w == 0.0 for t in spec.terms)
    if isinstance(spec, RationalProduct):
        return not spec.factors
    if isinstance(spec, PhiRep):
        return all(v == 0.0 for v in spec.phi.values)
    if isinstance(spec, ShiftedSpec):
        return is_constant(spec.base)
    return False


def is_degenerate(spec):
    """True for f(xi) = -i b xi (a deterministic drift)."""
    if is_constant(spec):
        return False
    v = eval_f(spec, 1.0 + 0.0j)
    return abs(v.real) <= 1e-13 * abs(v)


def is_symmetric(spec, tol=1e-12):
    for x in (0.5, 1.0, math.sqrt(2.0), 7.3):
        v = eval_f(spec, complex(x))
        if abs(v.imag) > tol * (1.0 + abs(v)):
            return False
    return True


def shift_spec(spec, tau):
    """The spec of tau + f; LevyAtomic absorbs tau into its kill rate."""
    if tau == 0.0:
        return spec
    if tau < 0.0:
        raise ValidationError("tau", "temporal shift must be nonnegative")
    if isinstance(spec, LevyAtomic):
        return replace(spec, c=spec.c + float(tau))
    if isinstance(spec, ShiftedSpec):
        return ShiftedSpec(spec.base, spec.shift + float(tau))
    return ShiftedSpec(spec, float(tau))


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitsResult:
    """One-sided limits f(0+) and f(inf-); math.inf flags an unbounded spec."""

    f_at_zero: float
    f_at_infinity: float


def f_limits(spec) -> LimitsResult:
    if isinstance(spec, LevyAtomic):
        inf = spec.c + total_jump_rate(spec) if is_compound_poisson(spec) else math.inf
        return LimitsResult(spec.c, inf)
    if isinstance(spec, StableSum):
        zero = sum(t.w * t.m**t.alpha for t in spec.terms)
        inf = math.inf if any(t.w > 0.0 for t in spec.terms) else zero
        return LimitsResult(zero, inf)
    if isinstance(spec, RationalProduct):
        return _rational_limits(spec)
    if isinstance(spec, PhiRep):
        return _phirep_limits(spec)
    if isinstance(spec, ShiftedSpec):
        base = f_limits(spec.base)
        return LimitsResult(base.f_at_zero + spec.shift, base.f_at_infinity + spec.shift)
    raise TypeError(f"not a Rogers spec: {type(spec).__name__}")


def _rational_limits(spec: RationalProduct):
    zero_order = sum(f.exponent for f in spec.factors if f.m == 0.0)
    degree = sum(f.exponent for f in spec.factors)
    if zero_order > 0:
        zero = 0.0
    elif zero_order < 0:
        zero = math.inf
    else:
        val = complex(spec.prefactor)
        for f in spec.factors:
            rot = -1j if f.orientation == _MINUS_I else 1j
            base = rot * 0.0 + f.m if f.m > 0.0 else rot
            val = val * base if f.exponent == 1 else val / base
        zero = max(val.real, 0.0)
    if degree > 0:
        inf = math.inf
    elif degree < 0:
        inf = 0.0
    else:
        val = complex(spec.prefactor)
        for f in spec.factors:
            rot = -1j if f.orientation == _MINUS_I else 1j
            val = val * rot if f.exponent == 1 else val / rot
        inf = max(val.real, 0.0)
    return LimitsResult(zero, inf)


def _phirep_limits(spec: PhiRep):
    plus, minus = spec.phi._sides
    # f(0+) = c exp(E+(0) + E-(0)); diverges to 0 unless phi vanishes at 0
    if max(plus.phi_zero, minus.phi_zero) > 1e-12:
        zero = 0.0
    else:
        zero = spec.c * math.exp(plus.e_zero + minus.e_zero)
    # f(inf-) = c exp((1/pi) int phi(s) / (1+|s|) ds); diverges -> inf
    if max(plus.phi_out, minus.phi_out) > 1e-12:
        inf = math.inf
    else:
        inf = spec.c * math.exp((plus.j_one + minus.j_one) / math.pi)
    return LimitsResult(zero, inf)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _structural_validate(spec):
    if isinstance(spec, LevyAtomic):
        if spec.a < 0.0:
            raise ValidationError("a", "Gaussian coefficient must be >= 0")
        if spec.c < 0.0:
            raise ValidationError("c", "kill rate must be >= 0")
        for k, (s, w) in enumerate(spec.atoms):
            if s == 0.0 or not math.isfinite(s):
                raise ValidationError(f"atoms[{k}].s", "atom location must be finite and nonzero")
            if not w > 0.0:
                raise ValidationError(f"atoms[{k}].w", "atom weight must be positive")
        return replace(spec, atoms=tuple(sorted(spec.atoms)))
    if isinstance(spec, StableSum):
        for k, t in enumerate(spec.terms):
            if t.w < 0.0:
                raise ValidationError(f"terms[{k}].w", "weight must be >= 0")
            if t.m < 0.0:
                raise ValidationError(f"terms[{k}].m", "tempering must be >= 0")
            if not (0.0 < t.alpha <= 2.0):
                raise ValidationError(f"terms[{k}].alpha", "alpha must lie in (0, 2]")
            if t.orientation not in _ORIENTATIONS:
                raise ValidationError(f"terms[{k}].orientation", f"unknown tag {t.orientation!r}")
            if t.alpha > 1.0 and t.m != 0.0:
                raise ValidationError(
                    f"terms[{k}].m", "terms with alpha > 1 must have m = 0"
                )
        terms = tuple(
            sorted(spec.terms, key=lambda t: (t.orientation, t.alpha, t.m, t.w))
        )
        return StableSum(terms)
    if isinstance(spec, RationalProduct):
        if not spec.prefactor > 0.0:
            raise ValidationError("prefactor", "must be positive")
        for k, f in enumerate(spec.factors):
            if f.orientation not in _ORIENTATIONS:
                raise ValidationError(f"factors[{k}].orientation", f"unknown tag {f.orientation!r}")
            if f.m < 0.0:
                raise ValidationError(f"factors[{k}].m", "must be >= 0")
            if f.exponent not in (-1, 1):
                raise ValidationError(f"factors[{k}].exponent", "must be -1 or +1")
        factors = tuple(
            sorted(spec.factors, key=lambda f: (f.orientation, -f.exponent, f.m))
        )
        return RationalProduct(spec.prefactor, factors)
    if isinstance(spec, PhiRep):
        if not spec.c > 0.0:
            raise ValidationError("c", "must be positive")
        spec.phi.validate()
        return spec
    if isinstance(spec, ShiftedSpec):
        if spec.shift < 0.0:
            raise ValidationError("shift", "must be >= 0")
        return ShiftedSpec(_structural_validate(spec.base), spec.shift)
    raise ValidationError("type", f"not a Rogers spec: {type(spec).__name__}")


_VALIDATE_RADII = 16  # log-spaced radii, 1e-6 to 1e6, of the sampled Rogers check


def validate_spec(spec):
    """Structural checks, canonical ordering, then sampled necessary checks.

    Samples re(f(xi)/xi) on a log-polar grid in the right half-plane and
    rejects on any violation.  Acceptance is a necessary condition only
    (sampled validation), not a proof of the Rogers property.
    """
    spec = _structural_validate(spec)
    if is_constant(spec):
        return spec
    if isinstance(spec, StableSum) and len(spec.terms) == 1:
        # single pure-power term: the admissibility wedge is exact,
        # |arg c| <= (pi/2) min(alpha, 2 - alpha) with c = w e^{-+ i alpha pi/2}
        t = spec.terms[0]
        if t.m == 0.0 and t.w > 0.0 and t.alpha * 0.5 * math.pi > (
            0.5 * math.pi * min(t.alpha, 2.0 - t.alpha) + 1e-15
        ):
            sgn = -1.0 if t.orientation == _MINUS_I else 1.0
            witness = cmath.exp(-sgn * 1j * (0.5 * math.pi - 1e-6))
            ratio = eval_f(spec, witness) / witness
            raise RogersViolationError(witness, float(ratio.real))
    radii = np.geomspace(1e-6, 1e6, _VALIDATE_RADII)
    angles = np.concatenate(
        [
            np.linspace(-0.5 * math.pi + 1e-2, 0.5 * math.pi - 1e-2, 14),
            [-0.5 * math.pi + 1e-4, 0.5 * math.pi - 1e-4],
        ]
    )
    xi = radii[:, None] * np.exp(1j * angles[None, :])
    f = eval_f(spec, xi)
    ratio = f / xi
    tol = 1e-10 * (1.0 + np.abs(ratio))
    bad = ratio.real < -tol
    if np.any(bad):
        idx = np.argwhere(bad)[0]
        witness = complex(xi[idx[0], idx[1]])
        raise RogersViolationError(witness, float(ratio.real[idx[0], idx[1]]))
    return spec


# ---------------------------------------------------------------------------
# Levy density and boundary angle
# ---------------------------------------------------------------------------


def levy_density(spec: LevyAtomic, x):
    """Density of the Levy measure at x != 0 (completely monotone per side)."""
    if not isinstance(spec, LevyAtomic):
        raise TypeError("levy_density applies to LevyAtomic specs only")
    x = float(x)
    if x == 0.0:
        raise DomainError("Levy density is undefined at x = 0")
    total = 0.0
    for s, w in spec.atoms:
        if x > 0.0 and s > 0.0:
            total += w * math.exp(-s * x)
        elif x < 0.0 and s < 0.0:
            total += w * math.exp(-abs(s) * abs(x))
    return total / math.pi


def axis_feature_points(spec):
    """Known abscissae of boundary structure (poles, branch points, kinks).

    For an atom at s_j the Stieltjes kernel is singular at s = s_j; a
    minus-i factor or term (-i xi + m) meets the axis at s = +m, a plus-i
    one at s = -m.  Table builders seed their grids here so that narrow
    jump pairs (nearby zeros and poles of f on the axis) cannot hide inside
    one cell.
    """
    pts = set()
    if isinstance(spec, LevyAtomic):
        pts.update(s for s, _ in spec.atoms)
    elif isinstance(spec, StableSum):
        for t in spec.terms:
            if t.m > 0.0:
                pts.add(t.m if t.orientation == _MINUS_I else -t.m)
    elif isinstance(spec, RationalProduct):
        for f in spec.factors:
            if f.m > 0.0:
                pts.add(f.m if f.orientation == _MINUS_I else -f.m)
    elif isinstance(spec, PhiRep):
        pts.update(spec.phi.breakpoints)
    elif isinstance(spec, ShiftedSpec):
        pts.update(axis_feature_points(spec.base))
    return tuple(sorted(p for p in pts if p != 0.0))


_AXIS_NUDGE = 1e-13  # relative offset t/|y| of the retry at a pole on the axis


def _axis_limit(spec, y, prime=False):
    """f (or f' if ``prime``) at real part exactly +0.0 and real ``y``: the boundary value.

    On a branch cut every term picks one signed zero, so a value may be the
    conjugate edge's, on which |Arg f| and re(i f') agree.  Non-finite values
    (a pole on the axis) are retried once at 1e-13 |y| + i y, the horizontal
    approach; still non-finite raises :class:`EstimationError`.
    """
    y = np.asarray(y, dtype=float)
    xi = np.zeros(y.size, dtype=complex)
    xi.imag = y.ravel()
    core = _prime_core if prime else _eval_core
    with np.errstate(all="ignore"):
        v = np.asarray(core(spec, xi), dtype=complex)
        bad = ~np.isfinite(v)
        if bad.any():
            xi[bad] += _AXIS_NUDGE * np.abs(xi.imag[bad])
            v[bad] = core(spec, xi[bad])
    if not np.isfinite(v).all():
        raise EstimationError(f"boundary value not finite at y={xi.imag[~np.isfinite(v)]}")
    return v.reshape(y.shape)


def estimate_phi(spec, s):
    """Boundary angle phi(s) = -sign(s) lim_{t->0+} Arg f(t - i s), in [0, pi].

    ``s`` is a nonzero scalar (a float is returned) or an array.  The limit
    is |Arg| of the boundary value f(+0 - i s) (:func:`_axis_limit`), one
    evaluation per point, all in one call.
    """
    s_arr = np.asarray(s, dtype=float)
    if (s_arr == 0.0).any():
        raise DomainError("phi is defined for s != 0")
    phi = np.abs(np.angle(_axis_limit(spec, -s_arr)))
    return float(phi) if s_arr.ndim == 0 else phi


# ---------------------------------------------------------------------------
# analytic bound checks
# ---------------------------------------------------------------------------


_FD_SLACK = 1e-3  # relative slack of the log-derivative bound for the difference quotient


def check_function_bounds(spec, samples) -> VerifyReport:
    """Check the wedge, magnitude-sandwich and log-derivative bounds.

    For each sample xi in the open right half-plane:

    * -pi/2 + Arg xi <= Arg f(xi) <= pi/2 + Arg xi,
    * the two-sided magnitude sandwich against |f(r)| with r = |xi|,
    * |f'(xi)/f(xi)| <= pi/re(xi) (1 + _FD_SLACK), derivative by central
      finite difference with step 1e-6 |xi|.

    Failures become report entries; nothing is raised.
    """
    rep = VerifyReport("function-bounds")
    for k, xi in enumerate(samples):
        xi = complex(xi)
        if xi.real <= 0.0:
            raise DomainError("bound checks need samples in the open right half-plane")
        f = eval_f(spec, xi)
        arg_xi = cmath.phase(xi)
        arg_f = cmath.phase(f)
        wedge = min(arg_f - (arg_xi - 0.5 * math.pi), (arg_xi + 0.5 * math.pi) - arg_f)
        rep.add(f"arg-wedge[{k}]", wedge, {"xi": str(xi)}, tol=1e-12)

        r = abs(xi)
        fr = abs(eval_f(spec, complex(r)))
        cosang = xi.real / r
        lower = fr * cosang / (2.0 * math.sqrt(2.0))
        upper = fr * 2.0 * math.sqrt(2.0) / cosang
        if fr == 0.0:
            margin = 0.0
        else:
            margin = min(abs(f) - lower, upper - abs(f)) / upper
        rep.add(f"magnitude-sandwich[{k}]", margin, {"xi": str(xi)}, tol=1e-12)

        h = 1e-6 * r
        fp = (eval_f(spec, xi + h) - eval_f(spec, xi - h)) / (2.0 * h)
        bound = math.pi / xi.real * (1.0 + _FD_SLACK)
        ratio = abs(fp / f) if f != 0.0 else math.inf
        rep.add(
            f"log-derivative[{k}]",
            (bound - ratio) / bound,
            {"xi": str(xi), "ratio": ratio},
            tol=1e-12,
        )
    return rep
