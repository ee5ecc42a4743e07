"""Trace the spine of each gallery exponent and plot it when possible.

The spine is the curve system in the right half-plane along which the
exponent takes positive real values; its radial parameterization
zeta(r) = r exp(i theta(r)) and the increasing profile lambda(r) = f(zeta(r))
drive the factorization machinery.  Writes one PNG per spec if matplotlib
is importable, and always prints the interval structure.
"""

from levycm.spine import build_spine_table, spine_invariant_report
from levycm.specio import SHOWCASE
from levycm.verify import default_spine_range

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:  # plotting is optional
    plt = None

for name, spec in SHOWCASE.items():
    lo, hi = default_spine_range(spec)
    table = build_spine_table(spec, lo, hi, 400)
    rep = spine_invariant_report(table, spec)
    intervals = ", ".join(f"[{a:.3g}, {b:.3g}]" for a, b in table.z_intervals)
    print(f"{name:28s} arcs={len(table.z_intervals)} Z={intervals}")
    print(f"{'':28s} invariants: {rep.summary()}")

    if plt is not None:
        zs = table.zetas()[table.in_z_mask()]
        fig, ax = plt.subplots(1, 2, figsize=(9, 4))
        if len(zs):
            ax[0].plot(zs.real, zs.imag, ".", ms=2)
            ax[0].plot(-zs.real, zs.imag, ".", ms=2, alpha=0.4)  # mirror image
        ax[0].axvline(0, color="k", lw=0.5)
        ax[0].set_title(f"spine: {name}")
        ax[0].set_xlabel("re")
        ax[0].set_ylabel("im")
        ax[1].loglog(table.radii(), table.lambdas())
        ax[1].set_title("profile lambda(r)")
        ax[1].set_xlabel("r")
        fig.tight_layout()
        fig.savefig(f"spine_{name}.png", dpi=110)
        plt.close(fig)

if plt is not None:
    print("\nwrote spine_<name>.png files")
