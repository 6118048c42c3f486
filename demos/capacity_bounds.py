"""The constructions' capacity versus the quantum Singleton bound.

For m parties of dimension d the constructions mask up to d^floor(m/2)
levels. That is a property of the constructions, not a limit on masking:
images that mask every party span an ((m, w, 2))_d code, so any masking
scheme holds at most d^(m-2) levels, and the [[m, m-2, 2]] qubit codes
reach that for even m. The two agree at m = 4; beyond it the constructions
hold fewer levels than the Singleton bound allows.
"""

from quditmask import bounds_report, min_parties

print(f"{'d':>3} {'m':>3} {'capacity':>10} {'singleton':>12}")
for d in (2, 3, 4):
    for m in (4, 5, 6, 8):
        r = bounds_report(d, m)
        marker = "=" if r.construction_capacity == r.singleton_bound else "<"
        print(f"{d:>3} {m:>3} {r.construction_capacity:>10} {marker} {r.singleton_bound:>10}")

print("\nminimum parties 2*ceil(log_d w) for qubit registers:")
for w in (2, 3, 4, 5, 8, 16, 100):
    p = min_parties(w, 2)
    note = "  (constructions start at m=4)" if p < 4 else ""
    print(f"  w={w:>3}: {p} parties{note}")
