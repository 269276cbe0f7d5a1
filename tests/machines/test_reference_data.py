"""Tests validating the published reference matrices against the
paper's own textual claims — these pin the data used for calibration."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.isa.events import EVENT_ORDER
from repro.machines.reference_data import (
    CORE2DUO_10CM,
    CORE2DUO_50CM,
    CORE2DUO_100CM,
    PENTIUM3M_10CM,
    REFERENCE_MATRICES,
    SELECTED_PAIRINGS,
    TURIONX2_10CM,
    alignment_score,
    get_reference,
    reconstruction_report,
)


class TestCore2Duo10cm:
    def test_shape_and_order(self):
        assert CORE2DUO_10CM.values_zj.shape == (11, 11)

    def test_spot_values_from_figure9(self):
        assert CORE2DUO_10CM.cell("LDM", "LDM") == 1.8
        assert CORE2DUO_10CM.cell("STL2", "LDM") == 11.5
        assert CORE2DUO_10CM.cell("ADD", "DIV") == 1.0
        assert CORE2DUO_10CM.cell("DIV", "STL2") == 9.3

    def test_diagonal_smallest_with_one_exception(self):
        """Section V: "each of the diagonal entries ... is the smallest
        value in its respective row and column (with one exception for
        STM/LDM)."  At the table's 0.1 zJ display precision a few
        diagonals tie their row minimum; every deviation is at most one
        display quantum."""
        matrix = CORE2DUO_10CM.values_zj
        for i in range(11):
            assert matrix[i, i] <= matrix[i].min() + 0.1 + 1e-9, EVENT_ORDER[i]
            assert matrix[i, i] <= matrix[:, i].min() + 0.1 + 1e-9, EVENT_ORDER[i]
        strict_row_violations = [
            EVENT_ORDER[i] for i in range(11) if matrix[i, i] > matrix[i].min() + 1e-9
        ]
        assert "STM" in strict_row_violations

    def test_four_group_structure(self):
        """Off-chip / L2 / arith+L1 / DIV group means separate cleanly."""
        arithmetic = ("LDL1", "STL1", "NOI", "ADD", "SUB", "MUL")
        intra_arith = np.mean(
            [CORE2DUO_10CM.cell(a, b) for a in arithmetic for b in arithmetic if a != b]
        )
        offchip_vs_arith = np.mean(
            [CORE2DUO_10CM.cell(a, b) for a in ("LDM", "STM") for b in arithmetic]
        )
        assert intra_arith < 1.0
        assert offchip_vs_arith > 3.5

    def test_ldm_ldl2_higher_than_either_vs_arith(self):
        assert CORE2DUO_10CM.cell("LDM", "LDL2") > CORE2DUO_10CM.cell("LDM", "ADD")
        assert CORE2DUO_10CM.cell("LDM", "LDL2") > CORE2DUO_10CM.cell("LDL2", "ADD")

    def test_symmetrized_is_symmetric(self):
        symmetric = CORE2DUO_10CM.symmetrized()
        assert np.allclose(symmetric, symmetric.T)


class TestDistanceMatrices:
    def test_values_drop_with_distance(self):
        for a, b in (("ADD", "LDM"), ("ADD", "LDL2"), ("STL2", "DIV")):
            assert CORE2DUO_50CM.cell(a, b) < CORE2DUO_10CM.cell(a, b)

    def test_small_change_from_50_to_100(self):
        near = CORE2DUO_50CM.values_zj
        far = CORE2DUO_100CM.values_zj
        assert np.abs(near - far).max() <= 0.3

    def test_offchip_dominates_at_distance(self):
        for matrix in (CORE2DUO_50CM, CORE2DUO_100CM):
            assert matrix.cell("ADD", "LDM") > 1.3 * matrix.cell("ADD", "LDL2")


class TestReconstructedMatrices:
    def test_flagged_inexact(self):
        assert not PENTIUM3M_10CM.exact
        assert not TURIONX2_10CM.exact
        assert CORE2DUO_10CM.exact

    def test_pentium3m_prose_claims(self):
        """'the ADD/DIV SAVAT is an order of magnitude higher than the
        ADD/MUL SAVAT' and 'LDM has higher SAVAT values than STM'."""
        assert PENTIUM3M_10CM.cell("ADD", "DIV") >= 8 * PENTIUM3M_10CM.cell("ADD", "MUL")
        assert PENTIUM3M_10CM.cell("LDM", "ADD") > PENTIUM3M_10CM.cell("STM", "ADD")

    def test_pentium3m_offchip_above_l2(self):
        """'off-chip accesses here have much higher SAVAT values than do
        L2 accesses'."""
        assert PENTIUM3M_10CM.cell("LDM", "ADD") > 3 * PENTIUM3M_10CM.cell("LDL2", "ADD")

    def test_turionx2_div_rivals_offchip(self):
        """'the DIV instruction here has an even higher SAVAT — they
        rival those of off-chip memory accesses'."""
        div_vs_arith = np.mean(
            [TURIONX2_10CM.symmetrized()[10, j] for j in range(6, 10)]
        )
        offchip_vs_arith = np.mean(
            [TURIONX2_10CM.symmetrized()[0, j] for j in range(6, 10)]
        )
        assert div_vs_arith > 0.5 * offchip_vs_arith

    def test_reconstruction_selection_is_best(self):
        """Inserting the stray value at the front must beat every other
        insertion point on asymmetry."""
        report = reconstruction_report()
        chosen = report["insert@0"]["asymmetry"]
        assert all(
            chosen <= entry["asymmetry"] + 1e-12 for entry in report.values()
        )


class TestLookup:
    def test_published_lookup(self):
        assert get_reference("core2duo", 0.10) is CORE2DUO_10CM
        assert get_reference("CORE2DUO", 0.5) is CORE2DUO_50CM

    def test_unpublished_lookup_rejected(self):
        with pytest.raises(ConfigurationError, match="no published matrix"):
            get_reference("pentium3m", 0.50)

    @pytest.mark.parametrize("distance", [0.104, 0.0951, 0.105, 0.4996])
    def test_nearby_distance_is_not_snapped_to_a_published_one(self, distance):
        with pytest.raises(ConfigurationError, match="no published matrix"):
            get_reference("core2duo", distance)

    @pytest.mark.parametrize(
        "distance, expected",
        [(0.1000000001, CORE2DUO_10CM), (0.10004, CORE2DUO_10CM), (0.49996, CORE2DUO_50CM)],
    )
    def test_published_distance_matches_to_a_tenth_of_a_millimetre(
        self, distance, expected
    ):
        assert get_reference("core2duo", distance) is expected

    def test_five_published_matrices(self):
        assert len(REFERENCE_MATRICES) == 5

    def test_selected_pairings_are_figure11(self):
        assert ("ADD", "ADD") in SELECTED_PAIRINGS
        assert ("STL2", "DIV") in SELECTED_PAIRINGS
        assert len(SELECTED_PAIRINGS) == 11

    def test_cell_accessor_case_insensitive(self):
        assert CORE2DUO_10CM.cell("add", "ldm") == CORE2DUO_10CM.cell("ADD", "LDM")

    def test_negative_values_rejected(self):
        from repro.machines.reference_data import ReferenceMatrix

        with pytest.raises(ConfigurationError):
            ReferenceMatrix("x", 0.1, -np.ones((11, 11)), "test")

    def test_wrong_shape_rejected(self):
        from repro.machines.reference_data import ReferenceMatrix

        with pytest.raises(ConfigurationError):
            ReferenceMatrix("x", 0.1, np.ones((4, 4)), "test")
