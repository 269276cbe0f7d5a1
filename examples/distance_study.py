#!/usr/bin/env python3
"""Reproduce the paper's Section V-B distance study (Figures 16-18).

Measures selected pairings on the Core 2 Duo at 10/25/50/100 cm —
every point is a real measurement through the full alternation
methodology; only the 25 cm *calibration target* is synthesized by
interpolating the paper's published 10/50/100 cm matrices.  Off-chip
events stay visible while on-chip events (L2 hits, DIV) sink into the
floor with distance — the paper's argument for assessing vulnerability
at attack-realistic range.

The four distances run as one :func:`repro.run_study` study: each
pairing's activity trace is produced once and measured at all four
distances from memory, so the sweep costs barely more than a single
distance.

Run:  python examples/distance_study.py
"""

from repro import run_study
from repro.analysis import bar_chart, crossover_distance

PAIRINGS = (
    ("ADD", "LDM"),
    ("ADD", "LDL2"),
    ("ADD", "DIV"),
    ("LDL2", "LDM"),
    ("STL2", "STM"),
)

EVENTS = ("ADD", "DIV", "LDL2", "LDM", "STL2", "STM")

DISTANCES_M = (0.10, 0.25, 0.50, 1.00)


def main() -> None:
    study = run_study(
        ["core2duo"],
        DISTANCES_M,
        events=EVENTS,
        repetitions=2,
        seed=0,
    )
    results: dict[float, dict[str, float]] = {}
    for distance, matrix in zip(DISTANCES_M, study.matrices):
        results[distance] = {
            f"{a}/{b}": matrix.cell(a, b) for a, b in PAIRINGS
        }
        phases = matrix.metadata["execution"]["cell_phase_seconds"]
        produced = sum("prime" in cell for cell in phases.values())
        print(
            f"measured {len(PAIRINGS)} pairings at {distance * 100:.0f} cm "
            f"({produced} trace(s) produced)"
        )

    print()
    header = "pairing".ljust(12) + "".join(f"{d * 100:>9.0f}cm" for d in DISTANCES_M)
    print(header)
    for pairing in results[DISTANCES_M[0]]:
        values = "".join(f"{results[d][pairing]:>11.2f}" for d in DISTANCES_M)
        print(f"{pairing:<12}{values}")
    print("(values in zJ)")

    # The physics the figures illustrate: every pairing's signal decays
    # monotonically as the antenna moves away, until it sinks into the
    # measurement's error floor (the same-instruction diagonal) — past
    # that point only floor noise remains, so steps inside the floor are
    # exempt from the monotonicity check.
    floors = {
        distance: float(matrix.symmetrized().diagonal().mean())
        for distance, matrix in zip(DISTANCES_M, study.matrices)
    }
    for pairing in results[DISTANCES_M[0]]:
        series = [results[d][pairing] for d in DISTANCES_M]
        for near, far in zip(DISTANCES_M, DISTANCES_M[1:]):
            decayed = results[far][pairing] <= results[near][pairing]
            at_floor = results[far][pairing] <= floors[far] * 1.25
            assert decayed or at_floor, (
                f"{pairing} SAVAT rises above the floor with distance: {series}"
            )
    print("every pairing decays monotonically with distance (down to the floor)")

    print()
    for distance in (0.50, 1.00):
        rows = [(pairing, results[distance][pairing]) for pairing in results[distance]]
        print(bar_chart(rows, title=f"Figure 16 (measured) at {distance * 100:.0f} cm:"))
        print()

    # Where does the DIV advantage sink below the off-chip signal?
    div_series = [results[d]["ADD/DIV"] for d in DISTANCES_M]
    offchip_series = [results[d]["ADD/LDM"] for d in DISTANCES_M]
    crossover = crossover_distance(list(DISTANCES_M), div_series, offchip_series)
    if crossover is None:
        print("ADD/LDM dominates ADD/DIV at every measured distance —")
        print("off-chip accesses are the long-range attacker's best target.")
    else:
        print(f"ADD/DIV falls below ADD/LDM at about {crossover * 100:.0f} cm.")


if __name__ == "__main__":
    main()
