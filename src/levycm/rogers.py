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
from .numerics import _WORK
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
        object.__setattr__(self, "breakpoints", tuple(map(float, self.breakpoints)))
        object.__setattr__(self, "values", tuple(map(float, self.values)))

    def validate(self):
        bp, vals = self.breakpoints, self.values
        if self.interpolation not in (PW_CONSTANT, PW_LINEAR):
            raise ValidationError("phi.interpolation", f"unknown tag {self.interpolation!r}")
        if len(bp) < 2:
            raise ValidationError("phi.breakpoints", "need at least two breakpoints")
        if not (all(map(math.isfinite, bp)) and all(b1 < b2 for b1, b2 in zip(bp, bp[1:]))):
            raise ValidationError("phi.breakpoints", "must be finite and strictly increasing")
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
    def _pair(self):
        """The kernel of phi(t) and phi(-t), t > 0, in one record, built once per table."""
        return _Cells(_phi_side(self, 1.0, False), _phi_side(self, -1.0, False))

    @cached_property
    def _factors(self):
        """The kernel of the factors f+ and f-, built once per table: the innermost value held."""
        return _Cells(_phi_side(self, 1.0, True), _phi_side(self, -1.0, True))


_BLOCK = 1 << 16  # points x cells per block of kernel temporaries


class _Cells:
    """The cells of one or both sides of a boundary angle, integrated exactly cell by cell.

    A side is a polyline ``(t, phi, phi_out)`` from t[0] = 0: phi(t) on
    t > 0 is linear from phi[k] to phi[k+1] on [t[k], t[k+1]] (equal
    abscissae make a jump) and ``phi_out`` beyond t[-1].  A side's exponent is

        E(z) = (1/pi) int_0^inf phi(t) (1/(1+t) - 1/(z+t)) dt

    off the cut z in (-inf, 0]; a Wiener-Hopf factor is exp(E) up to a
    constant, and a PhiRep exponent is E+(-i xi) + E-(i xi).  On a cell
    [a, b] = [a, a + w] with phi = pa + dphi (t - a)/w,

        int_a^b phi/(z+t) dt = pa L + dphi (1 - L/x),  x = w/(z+a), L = log1p(x),

    which, unlike the antiderivative in alpha + beta t, stays exact on the
    narrow jump cells of estimated tables.  Cells with phi = 0 at both ends
    are dropped, which keeps values on the cut free of winding where phi
    vanishes around t = -z.

    The cell arrays ``a``, ``b``, ``pa``, ``pb``, ``w``, ``slope`` hold side
    k in the columns ``cols[k]``; ``first`` is None for one side and True
    on the first side's columns for two.  The per-side constants are
    columns with one row per side: ``dsums`` (the sum of dphi), ``j_ones``
    (int phi/(1+t), all sides from one kernel pass), ``e_zeros`` (E(0)),
    ``phi_zeros`` (phi(0+)), ``phi_outs`` and ``t_outs``; ``out_rows``
    selects the sides with phi_out != 0, and past |z| = ``far`` no cell is
    summed (:meth:`_exponents`).
    """

    def __init__(self, *sides):
        cells, consts, ends = [], [], [0]
        for t, p, phi_out in sides:
            consts.append((p[0], phi_out, t[-1]))  # phi(0+), phi_out, t_out
            keep = (t[1:] > t[:-1]) & ((p[:-1] != 0.0) | (p[1:] != 0.0))
            cells.append((t[:-1][keep], t[1:][keep], p[:-1][keep], p[1:][keep]))
            ends.append(ends[-1] + int(keep.sum()))
        self.a, self.b, self.pa, self.pb = (np.concatenate(c) for c in zip(*cells))
        self.w = self.b - self.a
        dphi = self.pb - self.pa
        self.slope = dphi / self.w
        self.cols = tuple(slice(lo, hi) for lo, hi in zip(ends, ends[1:]))
        self.first = None if len(sides) == 1 else np.arange(len(self.a)) < ends[1]
        self.dsums = np.array([[dphi[c].sum()] for c in self.cols])
        self.phi_zeros, self.phi_outs, self.t_outs = np.array(consts, dtype=float).T[:, :, None]
        # z-free constants: int phi/(1+t) over the cells, and E(0)
        self.j_ones = self._cell_sums(np.ones((len(sides), 1), dtype=complex), False)[0].real
        e_zeros = []
        for k, c in enumerate(self.cols):
            a, w, pa, dp = self.a[c], self.w[c], self.pa[c], dphi[c]
            inner = a > 0.0
            x = w[inner] / a[inner]
            lg = np.log1p(x)
            j_zero = np.sum(pa[inner] * lg + dp[inner] * (1.0 - lg / x)) + np.sum(dp[~inner])
            phi_out, t_out = self.phi_outs[k, 0], self.t_outs[k, 0]
            outer = phi_out * math.log(t_out / (1.0 + t_out)) if phi_out != 0.0 and t_out > 0.0 else 0.0
            e_zero = (self.j_ones[k, 0] - j_zero + outer) / math.pi
            e_zeros.append(-math.inf if self.phi_zeros[k, 0] > 1e-9 else e_zero)
        self.e_zeros = np.array(e_zeros)[:, None]
        self.far = max(2.0**500, 2.0**60 * self.t_outs.max())

    def side(self, k):
        """Side k as a one-side record on views of this record's arrays, with no kernel pass."""
        one, c, r = object.__new__(_Cells), self.cols[k], slice(k, k + 1)
        one.a, one.b, one.pa, one.pb = self.a[c], self.b[c], self.pa[c], self.pb[c]
        one.w, one.slope = self.w[c], self.slope[c]
        one.dsums, one.j_ones, one.e_zeros = self.dsums[r], self.j_ones[r], self.e_zeros[r]
        one.phi_zeros, one.phi_outs, one.t_outs = self.phi_zeros[r], self.phi_outs[r], self.t_outs[r]
        one.cols, one.first, one.far = (slice(None),), None, self.far
        return one

    @cached_property
    def e_one(self):
        """E+(-i) + E-(i) of a two-side record, the exponent at xi = 1, from one pass."""
        return complex(self._exponents(_ROTATIONS)[0].sum())

    def exponent(self, z):
        """E(z) of a one-side record at complex z (scalar or array)."""
        z = np.asarray(z, dtype=complex)
        return self._exponents(z.reshape(1, -1))[0][0].reshape(z.shape)

    def _cell_sums(self, z, prime):
        """Per side k, the sum over its cells of int phi/(z+t) dt at the points z[k] (one row of
        points per side); with ``prime`` also the sum of int phi/(z+t)^2 dt.

        Returns two arrays shaped like z, the second None without ``prime``.
        All sides take one pass: each cell reads its own side's z, and each
        side is summed over its own columns, so its sums are bitwise those
        of a pass over its cells alone; at real z > 0 (every point) without
        ``prime`` each cell is dphi + L (pa - slope (z + a)), L = log1p(w/(z + a)).
        """
        _WORK["phi_kernel.passes"] += 1
        real = not prime and not z.imag.any() and (z.real > 0.0).all()
        n, z = z.shape[1], z.real if real else z
        re_sum, im_sum = np.empty(z.shape), np.zeros(z.shape)
        der = np.empty(z.shape, dtype=complex) if prime else None
        rows = max(1, _BLOCK // max(1, len(self.a)))
        for lo in range(0, n, rows):
            zk = z[:, lo : lo + rows, None]
            zb = zk[0] if self.first is None else np.where(self.first, zk[0], zk[1])
            if real:  # x = w/(z + a) > 0
                y = zb + self.a
                re = np.log1p(self.w / y)
                re *= np.subtract(self.pa, np.multiply(self.slope, y, out=y), out=y)
            else:
                zi = zb.imag
                yr = zb.real + self.a  # y = z + a
                n2 = yr * yr + zi * zi  # |y|^2
                # L = log1p(x), x = w/y, in reals where |x| < 1/2, with no w/|y|^2 (subnormal far out)
                with np.errstate(divide="ignore", invalid="ignore"):  # x near -1 is redone below
                    lr = 0.5 * np.log1p((yr + yr + self.w) * self.w / n2)
                li = np.arctan2(-zi * self.w, n2 + yr * self.w)
                far = 4.0 * self.w * self.w >= n2  # |x| >= 1/2
                if far.any():
                    rr, cc = np.nonzero(far)
                    zf = zb[rr, 0] if self.first is None else zb[rr, cc]
                    lf = np.log((zf + self.b[cc]) / (zf + self.a[cc]))
                    lr[far], li[far] = lf.real, lf.imag
                # pa L + dphi (1 - L/x) = dphi + L (pa - slope y), as 1/x = y/w
                c, sz = self.pa - self.slope * yr, self.slope * zi
                re, im = lr * c + li * sz, li * c - lr * sz
                if prime:
                    y, lg = yr + 1j * zi, lr + 1j * li
                    terms = self.pa / y - self.pb / (zb + self.b) + self.slope * lg
            for k, cols in enumerate(self.cols):
                np.add.reduce(re[:, cols], axis=1, out=re_sum[k, lo : lo + rows])
                if not real:
                    np.add.reduce(im[:, cols], axis=1, out=im_sum[k, lo : lo + rows])
                if prime:
                    np.add.reduce(terms[:, cols], axis=1, out=der[k, lo : lo + rows])
        re_sum += self.dsums
        return re_sum + 1j * im_sum, der

    def _exponents(self, z, prime=False):
        """Per side k, E at the points z[k] (one row of points per side) from one kernel pass;
        with ``prime`` also E'(z) = (1/pi) int_0^inf phi(t)/(z+t)^2 dt.

        Returns two arrays shaped like z, the second None without ``prime``.
        Every side's z vanishes at the same points (xi = 0 for a PhiRep).
        There E = E(0): -inf where phi(0+) > 1e-9; below that, the constant
        part of phi on a cell touching t = 0 is dropped as negligible (its
        integral diverges there).  E' is not defined there; the kernel's
        value is returned.  Past |z| = ``far`` (2^500, or 2^60 times the last
        breakpoint) the cells add below 2^-60 of E and E', and their terms
        overflow: their sums are taken as 0, and the constants give E.
        """
        nz = z[0] != 0.0
        run = ~(np.abs(z[0]) > self.far) & (nz | prime)  # the points whose cells are summed
        if run.all():
            val, der = self._cell_sums(z, prime)
        else:
            val, der = np.zeros(z.shape, dtype=complex), np.zeros(z.shape, dtype=complex)
            if run.any():
                val[:, run], d = self._cell_sums(z[:, run], prime)
                if prime:
                    der[:, run] = d
        val = self.j_ones - val
        o = self.out_rows
        if o is not None:
            val[o] += self.phi_outs[o] * np.log((z[o] + self.t_outs[o]) / (1.0 + self.t_outs[o]))
            if prime:
                der[o] += self.phi_outs[o] / (z[o] + self.t_outs[o])
        val = val / math.pi
        if not nz.all():
            val[:, ~nz] = self.e_zeros
        return val, (der / math.pi if prime else None)

    @cached_property
    def out_rows(self):
        """The sides with phi_out != 0: all (a slice), their row indices, or None."""
        out = self.phi_outs[:, 0] != 0.0
        return slice(None) if out.all() else np.flatnonzero(out) if out.any() else None


def _phi_side(table: PhiTable, sign, hold):
    """The polyline (t, phi, phi_out) of phi(sign t), t > 0, read off a table (see :class:`_Cells`).

    A cell straddling s = 0 is split at its value there, as ``value_at``
    interpolates it (with ``hold``, the innermost value is held inside t[1]);
    a piecewise-constant table is a polyline with a jump at every interior breakpoint.
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
    phi0 = vals[pos][0] if hold else phi0
    return np.append(0.0, bp[pos]), np.append(phi0, vals[pos]), vals[-1]


def _hash_once(cls):
    """A spec type whose field hash, computed once, is kept: every memo lookup hashes its spec."""
    cls._hash = cached_property(cls.__hash__)
    cls._hash.__set_name__(cls, "_hash")
    cls.__hash__ = lambda self: self._hash
    return cls


@_hash_once
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


@_hash_once
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


@_hash_once
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


@_hash_once
@dataclass(frozen=True)
class PhiRep:
    """Exponential representation c * exp((1/pi) int kern(xi, s) phi(s)/|s| ds)."""

    c: float
    phi: PhiTable


@_hash_once
@dataclass(frozen=True)
class ShiftedSpec:
    """tau + f for a base spec; the shift models killing / temporal Laplace."""

    base: object
    shift: float


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


_ROTATIONS = np.array([[-1j], [1j]])  # the rows -i xi and i xi at which E+ and E- are read


def _core(spec, xi, prime=False):
    """f (f' if ``prime``) at a complex array ``xi`` with re(xi) >= 0 (axis included, without
    domain filtering): the one dispatcher on the spec type, f and f' side by side per family."""
    if isinstance(spec, LevyAtomic):
        drift, jumps = spec._jumps
        if prime:
            val = 2.0 * spec.a * xi - 1j * drift
            for s, rate in jumps:
                val = val + rate * 1j * s / (xi + 1j * s) ** 2
        else:
            val = spec.a * xi * xi - 1j * drift * xi + spec.c
            for s, rate in jumps:
                val = val + rate * xi / (xi + 1j * s)
        return val
    if isinstance(spec, StableSum):
        val = np.zeros_like(xi)
        for t in spec.terms:
            rot = -1j if t.orientation == _MINUS_I else 1j
            if prime:
                val = val + t.w * t.alpha * rot * (rot * xi + t.m) ** (t.alpha - 1.0)
            else:
                val = val + t.w * (rot * xi + t.m) ** t.alpha
        return val
    if isinstance(spec, RationalProduct):  # f' = f (log f)', (log f)' summed in the same loop
        val, logd = np.full_like(xi, spec.prefactor), np.zeros_like(xi)
        for f in spec.factors:
            rot = -1j if f.orientation == _MINUS_I else 1j
            base = rot * xi + f.m
            val = val * base if f.exponent == 1 else val / base
            if prime:
                logd = logd + f.exponent * rot / base
        if not prime:
            return val
        val = val * logd
        if not np.isfinite(val).all():  # 0 inf where a numerator factor vanishes (on the axis)
            for k, f in enumerate(spec.factors):
                rot = -1j if f.orientation == _MINUS_I else 1j
                zero = (rot * xi + f.m == 0.0) & (f.exponent == 1)
                if np.any(zero):  # there the product rule leaves rot times the other factors
                    rest = replace(spec, factors=spec.factors[:k] + spec.factors[k + 1 :])
                    val[zero] = rot * _core(rest, xi[zero])
        return val
    if isinstance(spec, PhiRep):
        if prime:
            return _core_pair(spec, xi)[1]
        # f = c exp(E+(-i xi) + E-(i xi)), both sides from one kernel pass
        e = spec.phi._pair._exponents(_ROTATIONS * xi.reshape(-1))[0]
        return (spec.c * np.exp(e[0] + e[1])).reshape(xi.shape)
    if isinstance(spec, ShiftedSpec):  # the shift is a constant: f' is the base's
        val = _core(spec.base, xi, prime)
        return val if prime else spec.shift + val
    raise TypeError(f"not a Rogers spec: {type(spec).__name__}")


def _core_pair(spec, xi):
    """f and f' at ``xi`` as :func:`_core` gives each (bitwise on the imaginary axis, where no
    point makes every side's z real and > 0); on a PhiRep both come from one kernel pass."""
    if isinstance(spec, ShiftedSpec):
        val, der = _core_pair(spec.base, xi)
        return spec.shift + val, der
    if not isinstance(spec, PhiRep):
        return _core(spec, xi), _core(spec, xi, True)
    # f' = f (log f)' with (log f)' = -i E+'(-i xi) + i E-'(i xi) from the pass that gives f
    e, de = spec.phi._pair._exponents(_ROTATIONS * xi.reshape(-1), True)
    val = spec.c * np.exp(e[0] + e[1])
    return val.reshape(xi.shape), (val * (1j * (de[1] - de[0]))).reshape(xi.shape)


def eval_f(spec, xi):
    """Evaluate the exponent at ``xi`` (complex scalar or array).

    Points with re(xi) < 0 use the reflection f(-conj(xi)) = conj(f(xi)).
    Points on the imaginary axis are admitted only where the boundary value
    there is finite and in (0, inf) (:func:`_axis_values`); otherwise a
    :class:`DomainError` is raised.
    """
    return _evaluate(spec, xi, prime=False)


def eval_f_prime(spec, xi):
    """Derivative f'(xi); reflection f'(-conj(xi)) = -conj(f'(xi)) on the left.

    On the imaginary axis f' is admitted where :func:`eval_f` is and is finite.
    """
    return _evaluate(spec, xi, prime=True)


def _evaluate(spec, xi, prime):
    """f (f' if ``prime``) at the points of ``xi``; a scalar is a 1-element array.

    A list, tuple or array gives an array shaped like it, a scalar a complex.

    Every point off the axis takes one family-core call: a point with
    re xi < 0 is mapped to -conj xi and its value reflected back (conj, or
    -conj for f').  Axis points take :func:`_axis_values`, all in one call.
    """
    calls = "eval_f_prime.core_calls" if prime else "eval_f.core_calls"
    arr = np.asarray(xi, dtype=complex)
    flat = arr.reshape(-1)
    _WORK["eval_f.points"] += flat.size
    right = flat.real > 0.0
    if right.all():  # the common case needs no masks
        _WORK[calls] += 1
        out = np.asarray(_core(spec, flat, prime), dtype=complex)
    else:
        out = np.empty(flat.shape, dtype=complex)
        left = flat.real < 0.0
        off = right | left
        if off.any():
            sel = slice(None) if off.all() else off
            _WORK[calls] += 1
            v = np.asarray(_core(spec, np.where(left, -np.conj(flat), flat)[sel], prime), dtype=complex)
            flip = left[sel]
            np.conjugate(v, out=v, where=flip)
            if prime:
                np.negative(v, out=v, where=flip)
            out[sel] = v
        if not off.all():
            out[~off] = _axis_values(spec, flat.imag[~off], prime)
    return out.reshape(arr.shape) if arr.ndim or isinstance(xi, np.ndarray) else complex(out[0])


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
    if not 0.0 <= tau < math.inf:
        raise ValidationError("tau", "temporal shift must be finite and nonnegative")
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
    """f(0+) and f(inf-) from the orders of f at 0 and at inf and, where an order is 0, its
    leading coefficient; both coefficients are accumulated in one pass over the factors."""
    zero_order = degree = 0
    at_zero = at_inf = complex(spec.prefactor)
    for f in spec.factors:
        rot = -1j if f.orientation == _MINUS_I else 1j
        base = rot * 0.0 + f.m if f.m > 0.0 else rot
        zero_order += f.exponent if f.m == 0.0 else 0
        degree += f.exponent
        if f.exponent == 1:
            at_zero, at_inf = at_zero * base, at_inf * rot
        else:
            at_zero, at_inf = at_zero / base, at_inf / rot
    zero = 0.0 if zero_order > 0 else math.inf if zero_order < 0 else max(at_zero.real, 0.0)
    inf = math.inf if degree > 0 else 0.0 if degree < 0 else max(at_inf.real, 0.0)
    return LimitsResult(zero, inf)


def _phirep_limits(spec: PhiRep):
    """f(0+) = c exp(E+(0) + E-(0)), 0 where a side has inner support (E(0) = -inf, see
    :class:`_Cells`), and f(inf-) = c exp((1/pi) int phi(s)/(1 + |s|) ds), inf where phi_out != 0."""
    pair = spec.phi._pair
    zero = spec.c * math.exp(pair.e_zeros.sum())
    inf = math.inf if pair.out_rows is not None else spec.c * math.exp(pair.j_ones.sum() / math.pi)
    return LimitsResult(zero, inf)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _structural_validate(spec):
    if isinstance(spec, LevyAtomic):
        if not 0.0 <= spec.a < math.inf:
            raise ValidationError("a", "Gaussian coefficient must be finite and >= 0")
        if not math.isfinite(spec.b):
            raise ValidationError("b", "drift must be finite")
        if not 0.0 <= spec.c < math.inf:
            raise ValidationError("c", "kill rate must be finite and >= 0")
        for k, (s, w) in enumerate(spec.atoms):
            if s == 0.0 or not math.isfinite(s):
                raise ValidationError(f"atoms[{k}].s", "atom location must be finite and nonzero")
            if not 0.0 < w < math.inf:
                raise ValidationError(f"atoms[{k}].w", "atom weight must be finite and positive")
        return replace(spec, atoms=tuple(sorted(spec.atoms)))
    if isinstance(spec, StableSum):
        for k, t in enumerate(spec.terms):
            if not 0.0 <= t.w < math.inf:
                raise ValidationError(f"terms[{k}].w", "weight must be finite and >= 0")
            if not 0.0 <= t.m < math.inf:
                raise ValidationError(f"terms[{k}].m", "tempering must be finite and >= 0")
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
        if not 0.0 < spec.prefactor < math.inf:
            raise ValidationError("prefactor", "must be finite and positive")
        for k, f in enumerate(spec.factors):
            if f.orientation not in _ORIENTATIONS:
                raise ValidationError(f"factors[{k}].orientation", f"unknown tag {f.orientation!r}")
            if not 0.0 <= f.m < math.inf:
                raise ValidationError(f"factors[{k}].m", "must be finite and >= 0")
            if f.exponent not in (-1, 1):
                raise ValidationError(f"factors[{k}].exponent", "must be -1 or +1")
        factors = tuple(
            sorted(spec.factors, key=lambda f: (f.orientation, -f.exponent, f.m))
        )
        return RationalProduct(spec.prefactor, factors)
    if isinstance(spec, PhiRep):
        if not 0.0 < spec.c < math.inf:
            raise ValidationError("c", "must be finite and positive")
        spec.phi.validate()
        return spec
    if isinstance(spec, ShiftedSpec):
        if not 0.0 <= spec.shift < math.inf:
            raise ValidationError("shift", "must be finite and >= 0")
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
    """Density of the Levy measure at x != 0 (completely monotone per side).

    A float for a scalar x, an array for an array; raises
    :class:`DomainError` where any x is 0.
    """
    if not isinstance(spec, LevyAtomic):
        raise TypeError("levy_density applies to LevyAtomic specs only")
    x = np.asarray(x, dtype=float)
    if (x == 0.0).any():
        raise DomainError("Levy density is undefined at x = 0")
    total = np.zeros(x.shape)
    for s, w in spec.atoms:
        total = total + np.where(np.sign(x) == np.sign(s), w * np.exp(-abs(s) * np.abs(x)), 0.0)
    total = total / math.pi
    return float(total) if total.ndim == 0 else total


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


def _on_axis(y):
    """The points +0.0 + i y, flattened, for a float array y: where boundary values are read."""
    xi = np.zeros(y.size, dtype=complex)
    xi.imag = y.ravel()
    return xi


def _axis_values(spec, y, prime):
    """f (f' if ``prime``) at +0.0 + i y, y a 1-d float array, where f there (f(0+) at y = 0)
    is finite, real to 1e-9 (1 + |f|) and > 0, and f' finite; f returns its real part.
    Elsewhere (a pole, a branch cut, the support of phi) :class:`DomainError` is raised."""
    xi = _on_axis(y)
    _WORK["eval_f.core_calls"] += 1
    _WORK["eval_f_prime.core_calls"] += prime
    with np.errstate(all="ignore"):
        f, d = _core_pair(spec, xi) if prime else (_core(spec, xi), None)
        f = np.asarray(f, dtype=complex)
        if not y.all():
            f[y == 0.0] = f_limits(spec).f_at_zero
        ok = np.isfinite(f) & (np.abs(f.imag) <= 1e-9 * (1.0 + np.abs(f))) & (f.real > 0.0)
        v = np.asarray(d, dtype=complex) if prime else f.real + 0.0j
        ok &= np.isfinite(v)
    if not ok.all():
        k = np.flatnonzero(~ok)[0]
        raise DomainError(f"xi={xi[k]} is outside the domain (boundary value {f[k]} not in (0, inf))")
    return v


def _axis_limit(spec, y, prime=False):
    """f (or f' if ``prime``) at real part exactly +0.0 and real ``y``: the boundary value.

    On a branch cut every term picks one signed zero, so a value may be the
    conjugate edge's, on which |Arg f| and re(i f') agree.  Non-finite values
    (a pole on the axis) are retried once at 1e-13 |y| + i y, the horizontal
    approach; still non-finite raises :class:`EstimationError`.
    """
    y = np.asarray(y, dtype=float)
    xi = _on_axis(y)
    with np.errstate(all="ignore"):
        v = np.asarray(_core(spec, xi, prime), dtype=complex)
        bad = ~np.isfinite(v)
        if bad.any():
            xi[bad] += _AXIS_NUDGE * np.abs(xi.imag[bad])
            v[bad] = _core(spec, xi[bad], prime)
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
    _WORK["estimate_phi.calls"] += 1
    phi = np.abs(np.angle(_axis_limit(spec, -s_arr)))
    return float(phi) if s_arr.ndim == 0 else phi


# ---------------------------------------------------------------------------
# analytic bound checks
# ---------------------------------------------------------------------------


def check_function_bounds(spec, samples) -> VerifyReport:
    """Check the wedge, magnitude-sandwich and log-derivative bounds.

    For each sample xi in the open right half-plane:

    * -pi/2 + Arg xi <= Arg f(xi) <= pi/2 + Arg xi,
    * the two-sided magnitude sandwich against |f(r)| with r = |xi|,
    * |f'(xi)/f(xi)| <= pi/re(xi), with the exact derivative :func:`eval_f_prime`.

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

        fp = eval_f_prime(spec, xi)
        bound = math.pi / xi.real
        ratio = abs(fp / f) if f != 0.0 else math.inf
        rep.add(
            f"log-derivative[{k}]",
            (bound - ratio) / bound,
            {"xi": str(xi), "ratio": ratio},
            tol=1e-12,
        )
    return rep
