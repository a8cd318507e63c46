"""Audit the biquandle axioms exhaustively, including the negative control.

With twist n = 2 the two operations x o y = y x y^-1 and
x * y = y^3 x y^-3 satisfy every binary axiom, and the "strange
relations" x <> (a o b) = x <> (a * b) hold because star and circ differ
by a central factor.  With n = 1 that factor is no longer central and
the strange relations fail, with a concrete counterexample.
"""

from biqknot import Biquandle, audit, build_default_group, make_f, FKind

group = build_default_group()

print("=== twist n = 2, no f ===")
report = audit(Biquandle(group, 2))
print(report.to_text())
print(f"all checked axioms pass: {report.passed}")

print("\n=== twist n = 1 (negative control) ===")
report1 = audit(Biquandle(group, 1))
for r in report1.failures():
    print(r.line())

print("\n=== f candidates ===")
for kind in (FKind.SUBSTITUTION, FKind.SHEAR):
    cand = make_f(group, kind)
    print(f"{cand.summary()}")
    bq = Biquandle(group, 2).attach_f(cand)
    rep = audit(bq)
    for r in rep.results:
        if r.axiom_id.startswith("f-"):
            print(f"  {r.line()}")
