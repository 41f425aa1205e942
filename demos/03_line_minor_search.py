#!/usr/bin/env python3
"""Longest-line-in-a-minor search, cross-checked against brute force.

A matroid lies in the class with no (l+2)-point-line minor exactly when the
search value is at most l+1.  Every found line comes with a contraction
certificate that replays against the original matroid.
"""

from matroidlab import (UniformMatroid, certificate_to_dict, has_u2n_minor,
                        max_line_minor, minor_isomorphic, pg,
                        subfield_subgeometry, verify_certificate)
from matroidlab.harness.catalogs import fano_plus_point
from matroidlab.harness.oracles import oracle_max_line, to_explicit

# over GF(q) the search ends at the first (q+1)-point line; the Fano plane
# drawn inside PG(2,4) has only 3-point lines, so it is searched in full
g = pg(3, 4)
for name, m in (("pg(3,2)", pg(3, 2)), ("pg(3,4)", g),
                ("Fano inside pg(3,4)", g.restrict(subfield_subgeometry(g, 1))),
                ("U(3,6)", UniformMatroid(3, 6))):
    res = max_line_minor(m)
    print(f"{name}: longest line in any minor = {res.points} "
          f"(exact={res.exact}, {res.nodes} nodes searched)")
print()

m, line, plane, extra = fano_plus_point()
print("the Fano-in-PG(2,4) instance plus one extra point on a long line:")
out = has_u2n_minor(m, 5)
print("  has a 5-point-line minor?", out.status)
print("  certificate:", certificate_to_dict(out.certificate))
print("  replays:", verify_certificate(out.certificate, m))
print("  brute-force oracle agrees:", oracle_max_line(m) >= 5)
print()

print("general small-target minor search (rank-preserving embedding):")
hit = minor_isomorphic(pg(4, 2), to_explicit(pg(3, 2)), target_name="fano")
print("  pg(4,2) contains a Fano minor?", hit.status)
print("  embedding replays:", verify_certificate(hit.certificate, pg(4, 2), pg(3, 2)))
