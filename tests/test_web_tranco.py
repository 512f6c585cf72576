"""Tranco-list tests."""

import pytest

from repro.errors import ConfigurationError
from repro.rng import stream
from repro.web.tranco import GOOGLE_SERVICE_DOMAINS, POPULAR_CUTOFF_RANK, TrancoList


@pytest.fixture(scope="module")
def tranco():
    return TrancoList()


def test_head_domains_recognisable(tranco):
    assert tranco.site(1).domain == "google.com"
    assert tranco.site(2).domain == "youtube.com"


def test_tail_domains_synthetic(tranco):
    site = tranco.site(123_456)
    assert site.domain.endswith(".example.com")
    assert site.rank == 123_456


def test_rank_bounds(tranco):
    with pytest.raises(ConfigurationError):
        tranco.site(0)
    with pytest.raises(ConfigurationError):
        tranco.site(tranco.size + 1)


def test_rank_to_domain_stable(tranco):
    assert tranco.site(777).domain == tranco.site(777).domain


def test_popular_cutoff(tranco):
    assert tranco.site(POPULAR_CUTOFF_RANK).is_popular
    assert not tranco.site(POPULAR_CUTOFF_RANK + 1).is_popular


def test_google_service_flag(tranco):
    # Figure 4 selects its Google-service requests by this set.
    assert tranco.site(1).domain in GOOGLE_SERVICE_DOMAINS
    domain = tranco.site(50).domain
    google_or_youtube = domain in ("google.com", "youtube.com")
    assert google_or_youtube or domain not in GOOGLE_SERVICE_DOMAINS


def test_details_tab_sample_recipe(tranco):
    rng = stream(0, "tranco-test")
    sample = tranco.details_tab_sample(rng)
    assert len(sample) == 10
    ranks = [s.rank for s in sample]
    assert sum(1 for r in ranks[:5] if r <= 500) == 5
    assert sum(1 for r in ranks[5:8] if 500 < r <= 10_000) == 3
    assert sum(1 for r in ranks[8:] if r > 10_000) == 2


def test_details_tab_no_duplicate_top500(tranco):
    rng = stream(1, "tranco-test")
    sample = tranco.details_tab_sample(rng)
    top = [s.rank for s in sample[:5]]
    assert len(set(top)) == 5


def test_organic_visits_head_heavy(tranco):
    rng = stream(2, "tranco-test")
    ranks = [tranco.organic_rank(rng) for _ in range(5000)]
    top200 = sum(1 for r in ranks if r <= 200)
    assert top200 / len(ranks) > 0.4
    assert max(ranks) <= tranco.size


def test_zipf_exponent_validated():
    with pytest.raises(ConfigurationError):
        TrancoList(zipf_exponent=1.0)


def test_size_validated():
    with pytest.raises(ConfigurationError):
        TrancoList(size=3)
