"""Spec JSON schema and bundled presets.

A spec file is a JSON document with ``"type"`` in {"levy_atomic",
"stable_sum", "rational_product", "phi_table"} and payload fields named as
in the corresponding dataclass; complex numbers are {"re": x, "im": y}.
JSON output is plain ``json.dumps``: every float is Python's shortest
repr that reads back to the same float, so identical requests produce
byte-identical artifacts.  CSV output formats floats with 17 significant
digits through :func:`format_float`.
"""

from __future__ import annotations

import json
import math
from importlib import resources

from .errors import ValidationError
from .rogers import (
    PW_LINEAR,
    LevyAtomic,
    PhiRep,
    PhiTable,
    RationalFactor,
    RationalProduct,
    StableSum,
    StableTerm,
    _structural_validate,
)

__all__ = [
    "spec_to_dict",
    "spec_from_dict",
    "load_spec",
    "save_spec",
    "format_float",
    "complex_to_dict",
    "SHOWCASE",
    "preset",
    "preset_names",
]


def format_float(x):
    return format(float(x), ".17g")


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
                "breakpoints": spec.phi.breakpoints.tolist(),
                "values": spec.phi.values.tolist(),
                "interpolation": spec.phi.interpolation,
            },
        }
    raise ValidationError("type", f"cannot serialize {type(spec).__name__}")


def _need(d, key, field, kind=(int, float)):
    """``d[key]`` of a type in ``kind``; a number comes back as a float, +-inf past the float range."""
    try:
        v = d[key]
    except (KeyError, IndexError):
        raise ValidationError(field, "missing field") from None
    if not isinstance(v, kind):
        want = " or ".join(t.__name__ for t in kind)
        raise ValidationError(field, f"expected {want}, got {type(v).__name__}")
    if kind != (int, float):
        return v
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _items(d, key, field, kind=(dict,)):
    """The entries of the JSON list ``d[key]``, each read by :func:`_need` as ``field[k]``."""
    items = _need(d, key, field, (list,))
    return [_need(items, k, f"{field}[{k}]", kind) for k in range(len(items))]


def spec_from_dict(d):
    """The spec of a JSON document as written, not reordered.

    Types are checked here, every range rule by ``rogers._structural_validate``; both raise
    :class:`ValidationError` naming the field.
    """
    if not isinstance(d, dict):
        raise ValidationError("", "spec document must be a JSON object")
    kind = d.get("type")
    if kind == "levy_atomic":
        d = {"a": 0.0, "b": 0.0, "c": 0.0, "atoms": [], **d}
        atoms = [(_need(e, "s", f"atoms[{k}].s"), _need(e, "w", f"atoms[{k}].w"))
                 for k, e in enumerate(_items(d, "atoms", "atoms"))]
        spec = LevyAtomic(_need(d, "a", "a"), _need(d, "b", "b"), _need(d, "c", "c"), tuple(atoms))
    elif kind == "stable_sum":
        spec = StableSum(tuple(
            StableTerm(*[_need(e, key, f"terms[{k}].{key}") for key in ("w", "m", "alpha")],
                       _need(e, "orientation", f"terms[{k}].orientation", (str,)))
            for k, e in enumerate(_items({"terms": [], **d}, "terms", "terms"))))
    elif kind == "rational_product":
        factors = tuple(RationalFactor(_need(e, "orientation", f"factors[{k}].orientation", (str,)),
                                       _need(e, "m", f"factors[{k}].m"),
                                       int(_need(e, "exponent", f"factors[{k}].exponent", (int,))))
                        for k, e in enumerate(_items({"factors": [], **d}, "factors", "factors")))
        spec = RationalProduct(_need(d, "prefactor", "prefactor"), factors)
    elif kind == "phi_table":
        c = _need(d, "c", "c")
        phi = {"interpolation": PW_LINEAR, **_need(d, "phi", "phi", (dict,))}
        spec = PhiRep(c, PhiTable(_items(phi, "breakpoints", "phi.breakpoints", (int, float)),
                                  _items(phi, "values", "phi.values", (int, float)),
                                  _need(phi, "interpolation", "phi.interpolation", (str,))))
    else:
        raise ValidationError("type", f"unknown spec type {kind!r}")
    _structural_validate(spec)
    return spec


def load_spec(path):
    if isinstance(path, str) and path.startswith("preset:"):
        return preset(path.split(":", 1)[1])
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also a file not in UTF-8, or nested past the stack
            raise ValidationError("", f"invalid JSON: {exc}") from exc
    return spec_from_dict(doc)


def save_spec(spec, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(spec_to_dict(spec), indent=2))
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

