"""Distinguish the right and left long virtual trefoils by colorings.

A coloring assigns a group element to every arc so that each classical
crossing applies circ or star (by its early-over / early-under class)
and each virtual pass applies the f map.  With the first arc pinned,
the set of colors the final arc can take is the invariant: the right
trefoil reaches a b^2, the left cannot.
"""

from biqknot import (
    build_default_group,
    builtin_trefoil,
    calibrated_biquandle,
    distinguish,
    eval_text,
    format_normal,
    serialize,
    solve,
)

group = build_default_group()
bq = calibrated_biquandle(group)
a = group.generator_a

right = builtin_trefoil("right")
left = builtin_trefoil("left")
print(serialize(right).strip())
print(serialize(left).strip())
print(f"\nf candidate in use: {bq.f.summary()}")

r = solve(right, bq, a)
print(f"\nright trefoil, start a: {r.count} colorings")
for col in r.colorings:
    print("  (" + ", ".join(format_normal(g) for g in col) + ")")
print("end colors:", sorted(format_normal(g) for g in r.end_colors))

end = eval_text("a b^2", group)
pinned = solve(left, bq, a, end=end)
print(f"\nleft trefoil, start a, end pinned to a b^2: "
      f"{pinned.count} colorings")

verdict = distinguish(right, left, bq, a)
print(f"\nverdict: {verdict.verdict} ({verdict.reason})")
