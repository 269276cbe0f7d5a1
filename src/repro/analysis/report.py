"""Paper-vs-measured reporting (the tables EXPERIMENTS.md records).

:func:`experiment_report` renders one experiment's comparison — the
measured matrix, the paper's matrix, and the shape-agreement statistics
— as plain text; :func:`claims_report` checks the paper's headline
qualitative claims against a measured matrix one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import matrix_correlations
from repro.analysis.visualize import matrix_table
from repro.core.matrix import SavatMatrix
from repro.machines.reference_data import ReferenceMatrix


@dataclass
class ClaimCheck:
    """One qualitative claim from the paper, checked against data."""

    claim: str
    holds: bool
    detail: str

    def __str__(self) -> str:
        status = "PASS" if self.holds else "FAIL"
        return f"[{status}] {self.claim} ({self.detail})"


def experiment_report(matrix: SavatMatrix, reference: ReferenceMatrix) -> str:
    """Side-by-side report of a measured campaign vs the paper."""
    measured = matrix.mean()
    paper = reference.values_zj
    correlations = matrix_correlations(measured, paper)
    if matrix.repetitions < 2:
        spread = "undefined over 1 repetition"
    else:
        spread = f"{matrix.std_over_mean():.3f}"
    lines = [
        f"Machine: {matrix.machine} at {matrix.distance_m * 100:.0f} cm "
        f"({reference.figure})",
        "",
        matrix_table(measured, matrix.events, title="Measured SAVAT (zJ):"),
        "",
        matrix_table(paper, matrix.events, title="Paper SAVAT (zJ):"),
        "",
        f"Shape agreement: Pearson {correlations['pearson']:.3f}, "
        f"Spearman {correlations['spearman']:.3f}, "
        f"mean relative error {correlations['mean_relative_error']:.1%}",
        f"Repeatability (std/mean): {spread} (paper reports ~0.05)",
    ]
    return "\n".join(lines)


def core2duo_claims(matrix: SavatMatrix) -> list[ClaimCheck]:
    """The paper's Section V-A claims, checked on a Core 2 Duo campaign."""
    mean = matrix.mean()
    checks: list[ClaimCheck] = []

    # 0.15 zJ tolerance: the paper's own table has a few display-
    # precision ties on its diagonal.
    rows_minimal, columns_minimal = matrix.diagonal_minimality(tolerance_zj=0.15)
    count = len(matrix.events)
    checks.append(
        ClaimCheck(
            claim="diagonal (A/A) is the smallest entry in its row and column "
            "(the paper allows one exception)",
            holds=rows_minimal >= count - 2 and columns_minimal >= count - 2,
            detail=f"{rows_minimal}/{count} rows, {columns_minimal}/{count} columns "
            "(0.15 zJ tolerance)",
        )
    )

    add_sub = matrix.cell("ADD", "SUB")
    add_add = matrix.cell("ADD", "ADD")
    checks.append(
        ClaimCheck(
            claim="ADD/SUB is as hard to distinguish as ADD/ADD "
            "(similar-activity instructions have very low mutual SAVAT)",
            holds=add_sub <= 2.0 * add_add,
            detail=f"ADD/SUB {add_sub:.2f} zJ vs ADD/ADD {add_add:.2f} zJ",
        )
    )

    arithmetic_vs_offchip = matrix.cell("ADD", "LDM")
    checks.append(
        ClaimCheck(
            claim="off-chip accesses vs on-chip activity have high SAVAT",
            holds=arithmetic_vs_offchip >= 3.0 * add_add,
            detail=f"ADD/LDM {arithmetic_vs_offchip:.2f} zJ vs ADD/ADD {add_add:.2f} zJ",
        )
    )

    add_ldl2 = matrix.cell("ADD", "LDL2")
    checks.append(
        ClaimCheck(
            claim="L2 hits are about as distinguishable from arithmetic as "
            "off-chip accesses are (at short distance)",
            holds=0.3 <= add_ldl2 / max(arithmetic_vs_offchip, 1e-12) <= 3.0,
            detail=f"ADD/LDL2 {add_ldl2:.2f} zJ vs ADD/LDM {arithmetic_vs_offchip:.2f} zJ",
        )
    )

    ldm_ldl2 = matrix.cell("LDM", "LDL2")
    checks.append(
        ClaimCheck(
            claim="LDM and LDL2 are even easier to tell apart from each other "
            "than from arithmetic (their fields differ)",
            holds=ldm_ldl2 > max(arithmetic_vs_offchip, add_ldl2),
            detail=f"LDM/LDL2 {ldm_ldl2:.2f} zJ",
        )
    )

    add_div = matrix.cell("ADD", "DIV")
    add_mul = matrix.cell("ADD", "MUL")
    checks.append(
        ClaimCheck(
            claim="DIV is noticeably easier to distinguish than other arithmetic",
            holds=add_div > 1.2 * add_mul,
            detail=f"ADD/DIV {add_div:.2f} zJ vs ADD/MUL {add_mul:.2f} zJ",
        )
    )

    stl2_mean = float(np.mean([matrix.cell("STL2", e) for e in ("ADD", "SUB", "MUL", "NOI")]))
    ldl2_mean = float(np.mean([matrix.cell("LDL2", e) for e in ("ADD", "SUB", "MUL", "NOI")]))
    checks.append(
        ClaimCheck(
            claim="an L2 store hit is noticeably easier to distinguish than an "
            "L2 load hit (write-back activity)",
            holds=stl2_mean > ldl2_mean,
            detail=f"STL2 vs arith {stl2_mean:.2f} zJ, LDL2 vs arith {ldl2_mean:.2f} zJ",
        )
    )
    return checks


def distance_claims(
    matrix_10cm: SavatMatrix, matrix_50cm: SavatMatrix, matrix_100cm: SavatMatrix
) -> list[ClaimCheck]:
    """The paper's Section V-B distance claims."""
    checks: list[ClaimCheck] = []

    near = matrix_10cm.cell("ADD", "LDM")
    mid = matrix_50cm.cell("ADD", "LDM")
    far = matrix_100cm.cell("ADD", "LDM")
    checks.append(
        ClaimCheck(
            claim="SAVAT drops sharply from 10 cm to 50 cm",
            holds=mid < 0.7 * near,
            detail=f"ADD/LDM {near:.2f} -> {mid:.2f} zJ",
        )
    )
    checks.append(
        ClaimCheck(
            claim="SAVAT does not drop much from 50 cm to 100 cm",
            holds=far > 0.5 * mid,
            detail=f"ADD/LDM {mid:.2f} -> {far:.2f} zJ",
        )
    )

    offchip_far = matrix_100cm.cell("ADD", "LDM")
    l2_far = matrix_100cm.cell("ADD", "LDL2")
    checks.append(
        ClaimCheck(
            claim="at long range, off-chip accesses are by far the most "
            "distinguishable events",
            holds=offchip_far > 1.3 * l2_far,
            detail=f"ADD/LDM {offchip_far:.2f} zJ vs ADD/LDL2 {l2_far:.2f} zJ at 100 cm",
        )
    )

    div_near_ratio = matrix_10cm.cell("ADD", "DIV") / matrix_10cm.cell("ADD", "MUL")
    div_far_ratio = matrix_100cm.cell("ADD", "DIV") / matrix_100cm.cell("ADD", "MUL")
    checks.append(
        ClaimCheck(
            claim="DIV's advantage over other arithmetic shrinks with distance",
            holds=div_far_ratio < div_near_ratio,
            detail=f"ADD/DIV over ADD/MUL: {div_near_ratio:.2f}x at 10 cm, "
            f"{div_far_ratio:.2f}x at 100 cm",
        )
    )
    return checks


def claims_summary(checks: list[ClaimCheck]) -> str:
    """Render claim checks with a pass count header."""
    passed = sum(1 for check in checks if check.holds)
    lines = [f"{passed}/{len(checks)} claims hold"]
    lines.extend(str(check) for check in checks)
    return "\n".join(lines)
