"""Table 4 (SCID lengths), Figure 5 (nybble entropy), Table 1 (summary)."""

import random

import pytest

from repro.core.scid_entropy import (
    chi_square_uniformity,
    is_structured,
    nybble_matrix,
)
from repro.core.scid_stats import table4
from repro.core.summary import summarize


class TestTable4:
    def test_scid_lengths_per_origin(self, small_capture):
        stats = table4(small_capture)
        assert stats["Cloudflare"].dominant_length == 20
        assert stats["Facebook"].dominant_length == 8
        assert stats["Google"].dominant_length == 8
        assert stats["Remaining"].dominant_length == 8

    def test_google_most_unique_scids(self, small_capture):
        """Table 4 ordering: Google > Facebook > Remaining > Cloudflare."""
        stats = table4(small_capture)
        assert stats["Google"].unique_count > stats["Facebook"].unique_count
        assert stats["Facebook"].unique_count > stats["Cloudflare"].unique_count

    def test_remaining_has_rare_other_lengths(self, small_capture):
        summary = table4(small_capture)["Remaining"].length_summary()
        assert summary.startswith("8")

    def test_length_summary_empty(self):
        from repro.core.scid_stats import ScidStats

        assert ScidStats(origin="x", unique_scids=set()).length_summary() == "-"


class TestNybbles:
    def test_matrix_rows_sum_to_one(self):
        rng = random.Random(1)
        scids = {rng.getrandbits(64).to_bytes(8, "big") for _ in range(200)}
        matrix = nybble_matrix(scids)
        assert matrix.positions == 16
        for row in matrix.freq:
            assert sum(row) == pytest.approx(1.0)

    def test_empty_population(self):
        matrix = nybble_matrix(set())
        assert matrix.positions == 0
        assert not is_structured(matrix)


class TestStructureDetection:
    """Figure 5: Google uniform, Facebook structured."""

    def test_google_scids_look_random(self, small_capture):
        scids = table4(small_capture)["Google"].unique_scids
        matrix = nybble_matrix(scids)
        assert not is_structured(matrix)

    def test_facebook_scids_structured(self, small_capture):
        scids = table4(small_capture)["Facebook"].unique_scids
        matrix = nybble_matrix(scids)
        assert is_structured(matrix)
        # Structure concentrates in the leading positions (host/worker IDs).
        hot = matrix.hot_positions(threshold=0.2)
        assert hot and min(hot) == 0

    def test_cloudflare_scids_structured(self, small_capture):
        scids = table4(small_capture)["Cloudflare"].unique_scids
        matrix = nybble_matrix(scids)
        assert is_structured(matrix)
        # First byte is fixed 0x01: position 0 frequency of nybble 0 is 1.
        assert matrix.freq[0][0] == pytest.approx(1.0)
        assert matrix.freq[1][1] == pytest.approx(1.0)

    def test_entropy_per_position(self, small_capture):
        scids = table4(small_capture)["Facebook"].unique_scids
        matrix = nybble_matrix(scids)
        entropy = matrix.entropy_per_position()
        # Leading (structured) positions carry less entropy than the random
        # tail of the mvfst CID.
        assert entropy[0] < entropy[-1]
        assert entropy[-1] > 3.5

    def test_chi_square_flags_fixed_position(self):
        scids = {bytes([0x01]) + bytes([i]) * 7 for i in range(100)}
        matrix = nybble_matrix(scids)
        stats = chi_square_uniformity(matrix)
        assert stats[0] > 100  # fixed first nybble


class TestTable1Summary:
    def test_matches_paper_matrix(self, small_capture):
        summary = summarize(small_capture)
        cf, fb, gg = (
            summary["Cloudflare"],
            summary["Facebook"],
            summary["Google"],
        )
        # Coalescence: CF yes (rarely), FB no, GG yes.
        assert cf.coalescence and gg.coalescence and not fb.coalescence
        # Server-chosen IDs: CF/FB yes, GG no (echo).
        assert cf.server_chosen_ids and fb.server_chosen_ids
        assert not gg.server_chosen_ids
        # Structured SCIDs: CF/FB yes, GG no.
        assert cf.structured_scids and fb.structured_scids
        assert not gg.structured_scids
        # L7LB quantifiable only for Facebook.
        assert fb.l7_load_balancers
        assert not gg.l7_load_balancers
        assert not cf.l7_load_balancers
        # Initial RTO: 1 / 0.4 / 0.3 s.
        assert cf.initial_rto == pytest.approx(1.0, abs=0.07)
        assert fb.initial_rto == pytest.approx(0.4, abs=0.05)
        assert gg.initial_rto == pytest.approx(0.3, abs=0.05)

    def test_labels(self, small_capture):
        summary = summarize(small_capture)
        assert summary["Facebook"].rto_label() == "0.4 s"
        assert "-" in summary["Facebook"].resend_label()
