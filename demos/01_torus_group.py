"""Build the 64-element torus-grid group and check its headline facts.

The group lives on an 8x8 grid glued into a torus: an a-step moves
horizontally, a b-step vertically, and lines alternate orientation.  The
table is the seam twist's closed-form law; the composition order and
orientation phases only place elements on the grid.  Calibration picks
the convention that reproduces a fixed set of known products (the tests
walk all 16 grids as the reference), then everything else is table
lookups.
"""

from biqknot import build_group, calibrate_convention, format_normal

cal = calibrate_convention()
print(f"frozen convention: {cal.convention.describe()}")
print(f"variants matching the anchors: {len(cal.matches)}")

group = build_group(cal.convention)
a, b, e = group.generator_a, group.generator_b, group.identity

print(f"\n|G| = {len(group)}")
print(f"order(a) = {group.order_of(a)}, order(b) = {group.order_of(b)}")
print(f"order(ab) = {group.order_of(group.mul(a, b))}")

comm = group.commutator(a, b)
print(f"\n[a, b] = {format_normal(comm)}")
print(f"a [a,b] = {format_normal(group.mul(a, comm))}")
print(f"[a,b] a = {format_normal(group.mul(comm, a))}")
print(f"[a, b] central? {group.is_central(comm)}")

print("\ncenter:")
for g in sorted(group.center()):
    print(f"  {format_normal(g)}")

# every commutator with a square is central, some are nontrivial
rep = group.parity_table()
print(f"\nsquare-commutator sweep: constant per parity class = "
      f"{rep.all_constant}, all central = {rep.all_central}, "
      f"nontrivial cases exist = {rep.has_nontrivial}")
