"""Hosting/CDN model tests."""

import numpy as np
import pytest

from repro.web import hosting as hosting_module
from repro.web.hosting import HostingModel, ServerKind, cdn_probability


@pytest.fixture(scope="module")
def hosting():
    return HostingModel(seed=0)


def test_cdn_probability_declines_with_rank():
    probabilities = [cdn_probability(r) for r in (1, 100, 1000, 100_000, 900_000)]
    assert probabilities == sorted(probabilities, reverse=True)
    assert probabilities[0] > 0.85
    assert probabilities[-1] < 0.45


def test_resolution_deterministic_per_domain(hosting, monkeypatch):
    """A pure function of (domain, rank, region, seed): memoised,
    fresh and evicted-then-recomputed answers agree."""
    first = hosting.resolve("example.com", 5000, "UK")
    assert hosting.resolve("example.com", 5000, "UK") == first
    assert HostingModel(seed=0).resolve("example.com", 5000, "UK") == first
    monkeypatch.setattr(hosting_module, "_RESOLVED_MAX", 1)
    small = HostingModel(seed=0)
    small.resolve("example.com", 5000, "UK")
    small.resolve("other.example", 5000, "UK")  # evicts example.com
    assert len(small._resolved) == 1
    assert small.resolve("example.com", 5000, "UK") == first


def test_resolution_varies_by_region(hosting):
    resolutions = {
        region: hosting.resolve("some-site.example", 5000, region)
        for region in ("UK", "USA", "AU")
    }
    assert len({r.server_one_way_s for r in resolutions.values()}) > 1


def test_top_sites_mostly_cdn(hosting):
    kinds = [
        hosting.resolve(f"top-{i}.example", 10, "UK").kind for i in range(300)
    ]
    cdn_fraction = sum(1 for k in kinds if k is ServerKind.CDN_EDGE) / len(kinds)
    assert cdn_fraction > 0.8


def test_tail_sites_often_remote(hosting):
    kinds = [
        hosting.resolve(f"tail-{i}.example", 800_000, "UK").kind for i in range(400)
    ]
    cdn_fraction = sum(1 for k in kinds if k is ServerKind.CDN_EDGE) / len(kinds)
    assert cdn_fraction < 0.6


def test_popular_sites_closer_on_average(hosting):
    popular = np.mean(
        [
            hosting.resolve(f"p-{i}.example", 50, "UK").server_one_way_s
            for i in range(300)
        ]
    )
    unpopular = np.mean(
        [
            hosting.resolve(f"u-{i}.example", 500_000, "UK").server_one_way_s
            for i in range(300)
        ]
    )
    assert unpopular > 1.5 * popular


def test_au_pays_more_than_uk(hosting):
    au = np.mean(
        [
            hosting.resolve(f"x-{i}.example", 5000, "AU").server_one_way_s
            for i in range(300)
        ]
    )
    uk = np.mean(
        [
            hosting.resolve(f"x-{i}.example", 5000, "UK").server_one_way_s
            for i in range(300)
        ]
    )
    assert au > uk


def test_think_time_positive(hosting):
    for i in range(50):
        resolved = hosting.resolve(f"t-{i}.example", 1000, "EU")
        assert resolved.server_think_s > 0


def test_latencies_physical(hosting):
    for i in range(200):
        resolved = hosting.resolve(f"l-{i}.example", int(10 ** (i % 6) + 1), "USA")
        assert 0.0 < resolved.server_one_way_s < 0.4
