#!/usr/bin/env python3
"""Walk through the strip-weight analysis of a large shifted skew shape.

Shows the classification record (two-cell diagonal count, connected
components of the one-cell part), the weight polynomial assembled from
coarsening sums, and its agreement with the Pfaffian value of the same skew.
Ends with one lowering step of the combinatorial rule: every strict nu whose
skew lam/nu is a k-cell generalized double strip, with its weight.
"""

from hcchar.characters import gds_expansion, sbs_principal, wt_gds
from hcchar.partitions import classify_skew
from hcchar.pfaffian import skew_Q_principal

LAM = (15, 14, 10, 8, 7, 6, 5, 3, 1)
MU = (13, 11, 8, 6, 5, 4, 2, 1)


def shifted_cells(lam):
    """Cells of the shifted diagram: row i covers columns i .. i+lam_i-1."""
    return frozenset(
        (i, j) for i, p in enumerate(lam, start=1) for j in range(i, i + p)
    )


def draw(lam, mu) -> None:
    lam_cells = shifted_cells(lam)
    mu_cells = shifted_cells(mu)
    rows = max(i for i, _ in lam_cells)
    cols = max(j for _, j in lam_cells)
    for i in range(1, rows + 1):
        line = []
        for j in range(1, cols + 1):
            if (i, j) in mu_cells:
                line.append(".")
            elif (i, j) in lam_cells:
                line.append("#")
            else:
                line.append(" ")
        print("".join(line))


def main() -> None:
    print(f"outer shape {LAM}")
    print(f"inner shape {MU}")
    draw(LAM, MU)
    cls = classify_skew(LAM, MU)
    print(f"kind: {cls.kind.value}")
    print(f"two-cell diagonals: c = {cls.c}")
    print(f"one-cell components (rows, top to bottom): {cls.beta_components}")
    for rows in cls.beta_components:
        print(f"  component {rows}: {sbs_principal(rows).to_text()}")
    weight = wt_gds(LAM, MU)
    print(f"weight: {weight.to_text()}")
    pf = skew_Q_principal(LAM, MU)
    print(f"Pfaffian value of the same skew: {pf.to_text()}")
    print(f"equal: {weight == pf}")

    print()
    print("small specials:")
    for lam, mu in [((6,), ()), ((4, 2), ()), ((4, 2), (4, 1)), ((6, 5, 4, 3, 2), (5, 4, 2))]:
        cls = classify_skew(lam, mu)
        print(f"  {lam}/{mu}: {cls.kind.value}, weight {wt_gds(lam, mu).to_text()}")

    print()
    lam, k = (6, 5, 4, 3, 2), 5
    print(f"one lowering step of the combinatorial rule, lam = {lam}, k = {k}:")
    for nu, weight in gds_expansion(lam, k):
        print(f"  {lam}/{nu}: weight {weight.to_text()}")


if __name__ == "__main__":
    main()
