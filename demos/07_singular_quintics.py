"""Counting and classifying the singular points of quintic surfaces."""

import time
from collections import Counter

from hyperlin import classify, singular_points
from hyperlin.gallery import (
    cuspidal_quintic_15,
    cuspidal_quintic_18,
    nodal_quintic_30,
    nodal_quintic_31,
)

for builder in (nodal_quintic_30, nodal_quintic_31,
                cuspidal_quintic_15, cuspidal_quintic_18):
    P3, F = builder()
    t0 = time.time()
    pts = singular_points(F, P3)
    reports = classify(F, pts)  # one batched call per surface
    hist = Counter(r.classification for r in reports)
    label = ", ".join(f"{v} x {k}" for k, v in sorted(hist.items()))
    q = P3.field.order
    print(f"{builder.__name__} over GF({q}): {len(pts)} singular points"
          f" ({label})  [{time.time() - t0:.2f}s]")

# the full report lines for the smallest example
P3, F = cuspidal_quintic_15()
for r in sorted(r.line() for r in classify(F, singular_points(F, P3)))[:5]:
    print("  " + r)
print("  ...")
