"""One factorization, three independent numerical routes.

The factor ratio f+(x1)/f+(x2) is computed (a) from a contour integral of
log f along the real line, (b) from a Riemann-Stieltjes integral along the
spine, and (c) from the exponential formula over an estimated boundary-angle
table.  The routes share nothing but the evaluation of f, so agreement is a
strong correctness check; closed forms pin the absolute answer where known.
"""

import math

from levycm import LevyAtomic
from levycm.specio import SHOWCASE
from levycm.wiener_hopf import MINUS, PLUS, closed_form_factors, get_spine_engine, wh_product, wh_ratio

print("drifted diffusion with constant shift: quadratic closed form")
for b in (0.0, 1.0, -1.0):
    spec = LevyAtomic(a=0.5, b=b, c=1.0)
    r_plus = math.sqrt(b * b + 2.0) - b
    want = (1.0 + r_plus) / (2.0 + r_plus)
    row = [f"{wh_ratio(spec, m, 'plus', 1.0, 2.0):.10f}" for m in ("bd", "spine", "phi")]
    print(f"  b={b:+.0f}: bd/spine/phi = {row}  closed form {want:.10f}")

print("\nstable exponent: pure-power factors")
fig_b = SHOWCASE["stable_asym"]
want = 2.0 ** (math.atan(2.0) / math.pi)
for m in ("bd", "spine", "phi"):
    got = wh_ratio(fig_b, m, "plus", 2.0, 1.0)
    print(f"  {m:5s} f+(2)/f+(1) = {got:.10f}   (power law {want:.10f})")
oracle = closed_form_factors("stable", "plus", 2.0, c=complex(3 / math.sqrt(2), -1 / math.sqrt(2)), alpha=0.5)
oracle /= closed_form_factors("stable", "plus", 1.0, c=complex(3 / math.sqrt(2), -1 / math.sqrt(2)), alpha=0.5)
print(f"  closed-form oracle ratio: {oracle:.10f}")

print("\nproducts f+(x1) f-(x2) are split-radius free:")
spec = LevyAtomic(a=0.5, b=1.0, c=1.0)
engine = get_spine_engine(spec)
for R in (0.0, 0.3, 1.0, 5.0):
    print(f"  R={R}: {engine.kappa(((PLUS, 0.0, 1.0, 1), (MINUS, 0.0, 1.0, 1)), R):.12f}")
print(f"  bd  : {wh_product(spec, 'bd', 1.0, 1.0):.12f}")
print(f"  quadratic oracle: {0.5 * math.sqrt(3.0) * (2.0 + math.sqrt(3.0)):.12f}")

print("\ncross-method agreement on the full gallery (plus side, 2 vs 1):")
for name, spec in SHOWCASE.items():
    bd = wh_ratio(spec, "bd", "plus", 2.0, 1.0)
    phi = wh_ratio(spec, "phi", "plus", 2.0, 1.0)
    print(f"  {name:28s} bd {bd:.8f}  phi {phi:.8f}  rel diff {abs(bd-phi)/bd:.1e}")
