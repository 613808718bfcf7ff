"""Worker-level enumeration from mvfst SCIDs."""

import random

from repro.core.l7lb import worker_count_distribution, workers_per_host
from repro.core.scid_stats import table4
from repro.quic.cid.mvfst import MvfstCid


def make_scid(host_id, worker_id, rng):
    return MvfstCid(
        version=1,
        host_id=host_id,
        worker_id=worker_id,
        process_id=0,
        random_bits=rng.getrandbits(37),
    ).encode()


class TestWorkersPerHost:
    def test_grouping(self):
        rng = random.Random(1)
        scids = [
            make_scid(1, 0, rng),
            make_scid(1, 1, rng),
            make_scid(1, 1, rng),
            make_scid(2, 3, rng),
        ]
        grouped = workers_per_host(scids)
        assert grouped[1] == {0, 1}
        assert grouped[2] == {3}

    def test_non_mvfst_ignored(self):
        assert workers_per_host([b"\x00" * 8, b"\x01" * 20]) == {}

    def test_distribution(self):
        rng = random.Random(2)
        scids = [make_scid(h, w, rng) for h in range(5) for w in range(4)]
        dist = worker_count_distribution(scids)
        assert dist == {4: 5}

    def test_facebook_backscatter_shows_multiple_workers(self, small_capture):
        """Active fact behind §4.3: hosts run several worker processes."""
        scids = table4(small_capture)["Facebook"].unique_scids
        grouped = workers_per_host(scids)
        assert grouped
        busiest = max(grouped.values(), key=len)
        # The Facebook profile runs 4 workers per host.
        assert 2 <= len(busiest) <= 4
        assert all(len(w) <= 4 for w in grouped.values())
