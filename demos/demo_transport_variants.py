"""Why the center velocity matters for nonlinear drift.

The flow v(x, y) = (0, x^2) shears a Gaussian blob into a banana; the
exact density is known from the characteristics, so each Gaussian
approximation can be scored by its grid L2 distance to the truth.  Moving
the distribution's center with the velocity *at* the center ignores what
the rest of the distribution feels; averaging the velocity over the level
set (fully, or partially with one backward point) tracks the bulk better.

Run:  python3 demos/demo_transport_variants.py
"""

import numpy as np

from cdfilter import GaussianBelief, SolverSpec, cholesky_lower, lskf_time_update
from cdfilter.scenarios import TransportScenario

ts = TransportScenario(a=0.5, b=1.0)
model = ts.sde_model()
belief0 = GaussianBelief(mean=np.zeros(2), factor=cholesky_lower(ts.sigma0()))
spec = SolverSpec("fixed-rk4", steps=32)
t_end = 1.0

print(f"shear flow, sigma = ({ts.a:g}, {ts.b:g}), t = {t_end:g}\n")
print(f"{'variant':>10}  {'center':>22}  {'density L2 error':>16}")
for variant in ("standard", "averaged", "partial"):
    out = lskf_time_update(belief0, model, variant, t_end, spec)
    err = ts.l2_error(out.mean, out.covariance(), t_end)
    cx, cy = out.mean
    print(f"{variant:>10}  ({cx:>8.4f}, {cy:>8.4f})  {err:>16.4f}")

print("\nthe exact pushforward moves mass upward (mean of x^2 is "
      f"{ts.a ** 2:g}); the standard center never moves, and pays for it.\n"
      "for the Monte-Carlo version over random factorizations, run\n"
      "  python3 -m cdfilter.cli appendix-a")
