"""Value sweep: how far each value of the bd, spine, phi and sup_tail routes moved between two
checkouts of the repository.

Evaluates one fixed grid of values in each checkout, each in a fresh
interpreter whose ``PYTHONPATH`` is that checkout's ``src`` (the parent's
first), with numpy and the public API only (``sup_table`` and the atom
families read the ``fluctuation._sup_evaluator`` behind ``sup_tail``):

* ``ratio``: ``wh_ratio(spec, "bd", side, x1, x2)`` at the probe's pair
  (0.3, 1.5) and at (1, x) and (x, 1) for x = 10^k, k = -30 ... 30;
* ``product``: ``wh_product(spec, "bd", x1, x2)`` at (0.3, 1.5) and at (x, 1);
  ``spine_product`` and ``phi_product``: the same on the spine and phi routes;
* ``tau_ratio``: ``kappa_ratio_tau(spec, xi, 1.2, 0.2, side)`` at xi = 0.3
  and at xi = x;
* ``pr_laplace``: ``pr_laplace(spec, sigma, tau, xi, side)`` at sigma in
  {0.5, 2}, tau in {0, 1} and xi in ``PR_XI``; ``spine_pr_laplace`` and
  ``phi_pr_laplace``: the same on the spine and phi routes;
* ``spine_ratio`` and ``phi_ratio``: ``wh_ratio`` on the spine and phi
  routes at the pairs of ``ratio``;
* ``sup_tail``: ``sup_tail(spec, sigma, x)`` at sigma in ``SUP_SIGMAS`` and
  x in ``SUP_X``; ``sup_atoms`` and ``sup_masses``: the atoms of the
  supremum's measure and their masses, and ``sup_table``: its node table
  (the nodes t, then the coefficients c), each one list value per sigma;

each on the 8 presets and their +0.5 shifts, on both sides (products and
the sup_tail families take none); and ``pr_sweep``: the cold sweep of
``tools/bench_spine.py``, the 8 x 64 ``pr_laplace`` calls of the
``fluct_warm`` grid on the presets (plus side).  For each family it writes
the number of calls, how many are bitwise equal (``float.hex``; a list value
in every entry), the largest relative move |change - parent| / |parent|
with both values' ``float.hex`` (of the entry that moved most, and its
index, in a list value; a list whose length changed moved infinitely) and
the call's arguments, the largest move per preset, and the calls that raise
on one side only (with the exception names).

    python tools/value_sweep.py PARENT_DIR CHANGE_DIR [--out SWEEP.json] [--into BENCH_<n>.json]

``--into`` adds the sweep to an existing JSON record under the key
``value_sweep``.  A checkout swept against itself reads all-bitwise.
"""

from __future__ import annotations

import argparse
import json
import os
from operator import attrgetter
import subprocess
import sys
from pathlib import Path

DECADES = [10.0**k for k in range(-30, 31)]
PAIR = (0.3, 1.5)
TAUS = (1.2, 0.2)  # tau1, tau2 of the tau-ratios
SHIFTS = (0.0, 0.5)
PR_SIGMAS = (0.5, 2.0)
PR_TAUS = (0.0, 1.0)
PR_XI = (1e-3, 0.1, 0.7, 1.3, 5.0, 1e3)
SWEEP = ((0.5, 2.0), (0.0, 1.0), (0.1, 5.0), 16)  # sigmas, taus, xi geomspace range and count
SUP_SIGMAS = (0.5, 1.3, 2.0)
SUP_X = (1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0)


def grid(presets):
    """The (family, preset, call arguments) of every value, in a fixed order."""
    import numpy as np

    out = []
    for name in sorted(presets):
        for shift in SHIFTS:
            out += [(family, name, (shift, x1, x2)) for family in ("product", "spine_product", "phi_product")
                    for x1, x2 in [PAIR] + [(x, 1.0) for x in DECADES]]
            for side in ("plus", "minus"):
                pairs = [PAIR] + [(1.0, x) for x in DECADES] + [(x, 1.0) for x in DECADES]
                out += [(family, name, (shift, side, x1, x2))
                        for family in ("ratio", "spine_ratio", "phi_ratio") for x1, x2 in pairs if x1 != x2]
                out += [("tau_ratio", name, (shift, side, xi, *TAUS)) for xi in [PAIR[0]] + DECADES]
                out += [(family, name, (shift, side, sigma, tau, xi))
                        for family in ("pr_laplace", "spine_pr_laplace", "phi_pr_laplace")
                        for sigma in PR_SIGMAS for tau in PR_TAUS for xi in PR_XI]
            for sigma in SUP_SIGMAS:
                out += [(family, name, (shift, sigma)) for family in ("sup_atoms", "sup_masses", "sup_table")]
                out += [("sup_tail", name, (shift, sigma, x)) for x in SUP_X]
        sigmas, taus, (lo, hi), n = SWEEP
        out += [("pr_sweep", name, (0.0, "plus", sigma, tau, float(xi)))
                for sigma in sigmas for tau in taus for xi in np.geomspace(lo, hi, n)]
    return out


def hexed(value):
    """``float.hex`` of a number, or the list of them for an array."""
    import numpy as np

    value = np.asarray(value, dtype=float)
    return float(value).hex() if value.ndim == 0 else [float(v).hex() for v in value.ravel()]


def evaluate():
    """Each (family, preset, arguments) of :func:`grid` with its value's :func:`hexed` and None, or
    None and the name of the exception it raised (JSON on stdout)."""
    import numpy as np

    from levycm import LevycmError, shift_spec
    from levycm.fluctuation import _sup_evaluator, kappa_ratio_tau, pr_laplace, sup_tail
    from levycm.specio import SHOWCASE
    from levycm.wiener_hopf import wh_product, wh_ratio

    # one call per route: the family's arguments after the spec, then the route
    ratio = lambda method: lambda spec, side, x1, x2: wh_ratio(spec, method, side, x1, x2)
    product = lambda method: lambda spec, x1, x2: wh_product(spec, method, x1, x2)
    pr = lambda method: lambda spec, side, sigma, tau, xi: pr_laplace(spec, sigma, tau, xi, side, method)
    calls = {
        "ratio": ratio("bd"),
        "spine_ratio": ratio("spine"),
        "phi_ratio": ratio("phi"),
        "product": product("bd"),
        "spine_product": product("spine"),
        "phi_product": product("phi"),
        "tau_ratio": lambda spec, side, xi, t1, t2: kappa_ratio_tau(spec, xi, t1, t2, side),
        "pr_laplace": pr("bd"),
        "spine_pr_laplace": pr("spine"),
        "phi_pr_laplace": pr("phi"),
        "pr_sweep": pr("bd"),
        "sup_tail": sup_tail,
        "sup_atoms": lambda spec, sigma: _sup_evaluator(spec, sigma).atoms,
        "sup_masses": lambda spec, sigma: _sup_evaluator(spec, sigma).masses,
        "sup_table": lambda spec, sigma: np.concatenate(attrgetter("t", "c")(_sup_evaluator(spec, sigma))),
    }
    out = []
    for family, name, (shift, *args) in grid(SHOWCASE):
        try:
            value, error = hexed(calls[family](shift_spec(SHOWCASE[name], shift), *args)), None
        except (LevycmError, ArithmeticError) as exc:
            value, error = None, type(exc).__name__
        out.append([family, name, [shift, *args], value, error])
    print(json.dumps(out))


def run(root):
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    res = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--evaluate"], env=env,
                         cwd=root, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def compare(parent, change):
    """Per family: calls, bitwise-equal values, the largest relative move overall and per preset,
    and the calls that raise on one side only."""
    out = {}
    for (family, name, args, p, p_err), (*key, c, c_err) in zip(parent, change):
        assert [family, name, args] == key, (family, name, args, key)
        rec = out.setdefault(family, {"calls": 0, "bitwise": 0, "raised_both": 0, "max_rel": None,
                                      "max_rel_by_preset": {}, "raised_one_side": []})
        rec["calls"] += 1
        if p_err and c_err:
            rec["raised_both"] += 1
            rec["bitwise"] += p_err == c_err
            continue
        if p_err or c_err:
            rec["raised_one_side"].append({"preset": name, "args": args, "parent": p or p_err,
                                           "change": c or c_err})
            continue
        rec["bitwise"] += p == c
        move, where = moved(p, c)
        by = rec["max_rel_by_preset"]
        by[name] = max(by.get(name, 0.0), move)
        if rec["max_rel"] is None or move > rec["max_rel"]["move"]:
            rec["max_rel"] = {"move": move, "preset": name, "args": args, **where}
    return out


def moved(p, c):
    """The largest relative move between two :func:`hexed` values, and the two ``float.hex`` it is
    read off (with the entry's index in a list value)."""
    if isinstance(p, str):
        a, b = float.fromhex(p), float.fromhex(c)
        return 0.0 if p == c else abs(b - a) / abs(a) if a else float("inf"), {"parent": p, "change": c}
    if len(p) != len(c):
        return float("inf"), {"parent_len": len(p), "change_len": len(c)}
    move, k = max(((moved(x, y)[0], k) for k, (x, y) in enumerate(zip(p, c))), default=(0.0, None))
    return move, {"index": k, "parent": p[k] if p else None, "change": c[k] if c else None}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--evaluate", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--out", help="write the sweep here (JSON)")
    ap.add_argument("--into", help="add the sweep to this JSON record under 'value_sweep'")
    args = ap.parse_args(argv)
    if args.evaluate:
        evaluate()
        return
    if not (args.parent and args.change):
        ap.error("PARENT_DIR and CHANGE_DIR are required")
    doc = {"decades": [DECADES[0], DECADES[-1]], "shifts": list(SHIFTS), "pr_xi": list(PR_XI),
           "families": compare(run(args.parent), run(args.change))}
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    if args.into:
        record = json.loads(Path(args.into).read_text())
        record["value_sweep"] = doc
        Path(args.into).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
