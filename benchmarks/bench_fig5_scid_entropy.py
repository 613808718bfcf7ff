"""Figure 5 — relative frequency of SCID nybble values per position.

Paper: Google's SCIDs are uniform (every cell ≈ 1/16 = 0.063); Facebook's
first bytes show strong structure (the mvfst version/host/worker fields).
"""

from conftest import report

from repro.core.scid_entropy import is_structured
from repro.core.scid_stats import table4


def _render_matrix(name: str, matrix) -> str:
    lines = [
        "%s (n=%d): nybble frequency by position (paper: uniform=0.063)"
        % (name, matrix.sample_size),
        "pos  " + " ".join("%4x" % v for v in range(16)),
    ]
    for position, row in enumerate(matrix.freq[:16]):
        lines.append(
            "%3d  " % position + " ".join("%4.2f" % value for value in row)
        )
    entropy = matrix.entropy_per_position()[:16]
    lines.append("entropy/position: " + " ".join("%.1f" % h for h in entropy))
    return "\n".join(lines)


def test_fig5_scid_entropy(benchmark, capture_2022):
    def build():
        stats = table4(capture_2022)
        return {origin: stats[origin].matrix() for origin in ("Google", "Facebook")}

    matrices = benchmark.pedantic(build, rounds=1, iterations=1)
    report(
        "fig5_scid_entropy",
        "Figure 5\n\n"
        + _render_matrix("Google", matrices["Google"])
        + "\n\n"
        + _render_matrix("Facebook", matrices["Facebook"]),
    )

    google, facebook = matrices["Google"], matrices["Facebook"]
    assert not is_structured(google)
    assert is_structured(facebook)
    # Facebook's structure lives in the leading (host/worker) positions;
    # its random tail is as flat as Google's everywhere.
    assert max(facebook.freq[0]) > 0.2
    assert facebook.entropy_per_position()[0] < 3.0
    assert facebook.entropy_per_position()[-1] > 3.5
    assert all(h > 3.5 for h in google.entropy_per_position())
