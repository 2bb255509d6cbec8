#!/usr/bin/env python3
"""Why the infimum is zero for p <= dim: an explicit vanishing sequence.

In 2D with p <= 2, concentrating the weight on a shrinking boundary patch
while cutting the test function off near the patch drives the quotient to
zero; no weight attains an infimum. The pairs below are evaluated in closed
form in a half-ball model near a flat boundary point, so the concentration
index j can reach 1e6 - far beyond what any global mesh could resolve (the
log-profile decay at p = 2 is only 1/log j).
"""

import math

from robinopt import concentration_demo

for p, label in ((1.5, "linear ramp profile"), (2.0, "logarithmic profile")):
    run = concentration_demo(p, 1.0, [100, 1000, 10_000, 1_000_000])
    print("=" * 64)
    print(f"p = {p} ({label}), mass 1, unit-volume domain")
    print("=" * 64)
    print(f"{'j':>9} {'quotient':>12} {'upper bound':>12}")
    for j, _, q, b in run.rows():
        print(f"{j:9d} {q:12.6f} {b:12.6f}")
    if p == 2.0:
        j = 1_000_000
        print(f"\n(the gradient term alone is pi/(3 log j) = "
              f"{math.pi/(3*math.log(j)):.6f} at j = 1e6)")
    print()

print("Both sequences vanish and stay below their closed-form bounds;")
print("the p = 2 profile decays only logarithmically, which is why the")
print("demonstration is in closed form rather than finite-element-based.")
