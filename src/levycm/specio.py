"""Spec JSON schema, canonical serialization and bundled presets.

A spec file is a JSON document with ``"type"`` in {"levy_atomic",
"stable_sum", "rational_product", "phi_table"} and payload fields named as
in the corresponding dataclass; complex numbers are {"re": x, "im": y}.
All floating-point output is formatted with 17 significant digits so that
identical requests produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
from importlib import resources

from .errors import ValidationError
from .rogers import (
    LevyAtomic,
    PhiRep,
    PhiTable,
    RationalFactor,
    RationalProduct,
    StableSum,
    StableTerm,
)

__all__ = [
    "spec_to_dict",
    "spec_from_dict",
    "load_spec",
    "save_spec",
    "dumps_canonical",
    "format_float",
    "complex_to_dict",
    "SHOWCASE",
    "preset",
    "preset_names",
]


def format_float(x):
    return format(float(x), ".17g")


def _canon(obj):
    if isinstance(obj, float):
        return RawFloat(format_float(obj))
    if isinstance(obj, complex):
        return {"re": RawFloat(format_float(obj.real)), "im": RawFloat(format_float(obj.imag))}
    if isinstance(obj, dict):
        return {k: _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    return obj


class RawFloat(float):
    """Float carrying a fixed decimal rendering for canonical JSON output."""

    def __new__(cls, text):
        self = super().__new__(cls, float(text))
        self.text = text
        return self

    def __repr__(self):
        return self.text


def dumps_canonical(obj, indent=None):
    """JSON text with every float at 17 significant digits."""
    return json.dumps(_canon(obj), indent=indent, sort_keys=False)


def complex_to_dict(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def spec_to_dict(spec):
    if isinstance(spec, LevyAtomic):
        return {
            "type": "levy_atomic",
            "a": spec.a,
            "b": spec.b,
            "c": spec.c,
            "atoms": [{"s": s, "w": w} for s, w in spec.atoms],
        }
    if isinstance(spec, StableSum):
        return {
            "type": "stable_sum",
            "terms": [
                {"w": t.w, "m": t.m, "alpha": t.alpha, "orientation": t.orientation}
                for t in spec.terms
            ],
        }
    if isinstance(spec, RationalProduct):
        return {
            "type": "rational_product",
            "prefactor": spec.prefactor,
            "factors": [
                {"orientation": f.orientation, "m": f.m, "exponent": f.exponent}
                for f in spec.factors
            ],
        }
    if isinstance(spec, PhiRep):
        return {
            "type": "phi_table",
            "c": spec.c,
            "phi": {
                "breakpoints": list(spec.phi.breakpoints),
                "values": list(spec.phi.values),
                "interpolation": spec.phi.interpolation,
            },
        }
    raise ValidationError("type", f"cannot serialize {type(spec).__name__}")


def _need(d, key, field, kind=(int, float)):
    if key not in d:
        raise ValidationError(field, "missing field")
    v = d[key]
    if kind is not None and not isinstance(v, kind):
        raise ValidationError(field, f"expected {kind}, got {type(v).__name__}")
    return v


def spec_from_dict(d):
    if not isinstance(d, dict):
        raise ValidationError("", "spec document must be a JSON object")
    kind = d.get("type")
    if kind == "levy_atomic":
        atoms = []
        for k, entry in enumerate(d.get("atoms", [])):
            s = _need(entry, "s", f"atoms[{k}].s")
            w = _need(entry, "w", f"atoms[{k}].w")
            if not w > 0:
                raise ValidationError(f"atoms[{k}].w", "atom weight must be positive")
            if s == 0 or not math.isfinite(s):
                raise ValidationError(f"atoms[{k}].s", "atom location must be finite and nonzero")
            atoms.append((float(s), float(w)))
        a = float(d.get("a", 0.0))
        b = float(d.get("b", 0.0))
        c = float(d.get("c", 0.0))
        if a < 0:
            raise ValidationError("a", "must be >= 0")
        if c < 0:
            raise ValidationError("c", "must be >= 0")
        return LevyAtomic(a=a, b=b, c=c, atoms=tuple(atoms))
    if kind == "stable_sum":
        terms = []
        for k, entry in enumerate(d.get("terms", [])):
            w = _need(entry, "w", f"terms[{k}].w")
            m = _need(entry, "m", f"terms[{k}].m")
            alpha = _need(entry, "alpha", f"terms[{k}].alpha")
            orientation = _need(entry, "orientation", f"terms[{k}].orientation", (str,))
            if not (0 < alpha <= 2):
                raise ValidationError(f"terms[{k}].alpha", "must lie in (0, 2]")
            terms.append(StableTerm(float(w), float(m), float(alpha), orientation))
        return StableSum(tuple(terms))
    if kind == "rational_product":
        factors = []
        for k, entry in enumerate(d.get("factors", [])):
            orientation = _need(entry, "orientation", f"factors[{k}].orientation", (str,))
            m = _need(entry, "m", f"factors[{k}].m")
            expo = _need(entry, "exponent", f"factors[{k}].exponent", (int,))
            if expo not in (-1, 1):
                raise ValidationError(f"factors[{k}].exponent", "must be -1 or +1")
            factors.append(RationalFactor(orientation, float(m), int(expo)))
        pref = _need(d, "prefactor", "prefactor")
        return RationalProduct(float(pref), tuple(factors))
    if kind == "phi_table":
        c = _need(d, "c", "c")
        phi = d.get("phi")
        if not isinstance(phi, dict):
            raise ValidationError("phi", "missing phi table")
        table = PhiTable(
            tuple(phi.get("breakpoints", ())),
            tuple(phi.get("values", ())),
            phi.get("interpolation", "piecewise-linear"),
        )
        return PhiRep(float(c), table)
    raise ValidationError("type", f"unknown spec type {kind!r}")


def load_spec(path):
    if isinstance(path, str) and path.startswith("preset:"):
        return preset(path.split(":", 1)[1])
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError("", f"invalid JSON: {exc}") from exc
    return spec_from_dict(doc)


def save_spec(spec, path):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(spec_to_dict(spec), indent=2))
        fh.write("\n")


# ---------------------------------------------------------------------------
# bundled showcase exponents
# ---------------------------------------------------------------------------

# the order is fixed: benchmark draws follow preset_names()
_PRESET_NAMES = (
    "bm_drift",
    "stable_asym",
    "tempered_stable",
    "stable_mixed",
    "quadratic_over_pole",
    "rational_pole_pair",
    "rational_three_arcs",
    "rational_three_arcs_tight",
)


def preset_path(name):
    """Path of a bundled preset JSON file."""
    if name not in _PRESET_NAMES:
        raise ValidationError("preset", f"unknown preset {name!r}")
    return resources.files("levycm").joinpath(f"presets/{name}.json")


SHOWCASE = {n: spec_from_dict(json.loads(preset_path(n).read_text())) for n in _PRESET_NAMES}


def preset_names():
    return _PRESET_NAMES


def preset(name):
    try:
        return SHOWCASE[name]
    except KeyError:
        raise ValidationError("preset", f"unknown preset {name!r}; known: {', '.join(SHOWCASE)}")

