"""The canonical CampaignConfig JSON codec.

``to_json_dict``/``from_json_dict`` are the wire dialect of the
campaign service and of the fabric's ``plan.json``: the
round trip must be bit-exact, unknown or mistyped keys must be
rejected by name, and every dataclass field must have a registered
decoder so a new field can never silently skip validation.
"""

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError
from repro.extension.campaign import (
    _CONFIG_FIELD_DECODERS,
    CampaignConfig,
)
from repro.runtime.checkpoint import campaign_fingerprint

#: One non-default, JSON-expressible value per dataclass field.
EXPLICIT = dict(
    seed=7,
    duration_s=3 * 86_400.0,
    request_fraction=0.25,
    shell_planes=24,
    shell_sats_per_plane=12,
    cities=("london", "seattle"),
    speedtest_boost=2.5,
    n_workers=3,
    mp_start_method="spawn",
    shard_timeout_s=12.5,
    max_shard_retries=4,
    retry_backoff_s=0.125,
    checkpoint_dir="/tmp/ckpt",
    resume=True,
    storage="spill",
    storage_dir="/tmp/segments",
    storage_segment_records=512,
)


# -- round trips -----------------------------------------------------------


def test_defaults_round_trip():
    config = CampaignConfig()
    assert CampaignConfig.from_json_dict(config.to_json_dict()) == config


def test_every_field_explicit_round_trips_bit_exact():
    config = CampaignConfig(**EXPLICIT)
    decoded = CampaignConfig.from_json_dict(config.to_json_dict())
    assert decoded == config
    assert campaign_fingerprint(decoded) == campaign_fingerprint(config)


def test_round_trip_survives_json_serialisation():
    config = CampaignConfig(**EXPLICIT)
    document = json.loads(json.dumps(config.to_json_dict()))
    assert CampaignConfig.from_json_dict(document) == config


def test_to_json_dict_covers_every_field_with_json_types():
    data = CampaignConfig(**EXPLICIT).to_json_dict()
    assert set(data) == {f.name for f in dataclasses.fields(CampaignConfig)}
    assert isinstance(data["cities"], list)  # tuples leave as lists
    json.dumps(data)  # nothing non-JSON sneaks through


def test_partial_document_takes_defaults():
    config = CampaignConfig.from_json_dict({"seed": 5})
    assert config.seed == 5
    assert config == CampaignConfig(seed=5)
    assert CampaignConfig.from_json_dict({}) == CampaignConfig()


def test_cities_list_becomes_tuple_and_none_stays_none():
    config = CampaignConfig.from_json_dict({"cities": ["london"]})
    assert config.cities == ("london",)
    assert CampaignConfig.from_json_dict({"cities": None}).cities is None


def test_int_accepted_for_float_fields():
    config = CampaignConfig.from_json_dict({"duration_s": 86400})
    assert config.duration_s == 86400.0
    assert isinstance(config.duration_s, float)


# -- strictness ------------------------------------------------------------


def test_unknown_keys_rejected_by_name():
    with pytest.raises(ConfigurationError, match=r"\['sed'\]"):
        CampaignConfig.from_json_dict({"sed": 1})
    # every offending key is named, not just the first
    with pytest.raises(ConfigurationError, match=r"\['citys', 'sed'\]"):
        CampaignConfig.from_json_dict({"sed": 1, "citys": ["london"]})


def test_retired_analytics_key_rejected_as_unknown():
    """Every artefact is computed exactly now, so a submission or an
    older fabric plan that still carries ``analytics`` is refused with
    the unknown-key error rather than silently ignored."""
    for value in ("exact", "streaming", None):
        with pytest.raises(ConfigurationError, match=r"unknown .*\['analytics'\]"):
            CampaignConfig.from_json_dict({"seed": 1, "analytics": value})


def test_non_object_document_rejected():
    with pytest.raises(ConfigurationError, match="JSON object"):
        CampaignConfig.from_json_dict([1, 2, 3])
    with pytest.raises(ConfigurationError, match="JSON object"):
        CampaignConfig.from_json_dict("seed=1")


@pytest.mark.parametrize(
    "key,bad",
    [
        ("seed", "7"),
        ("seed", True),  # bools are not integers on the wire
        ("seed", 1.5),
        ("duration_s", "long"),
        ("duration_s", False),
        ("request_fraction", None),
        ("cities", "london"),  # a bare string is not a list of cities
        ("cities", [1, 2]),
        ("resume", "yes"),
        ("resume", 1),
        ("mp_start_method", 3),
        ("shard_timeout_s", "fast"),
        ("storage_segment_records", 2.5),
    ],
)
def test_mistyped_values_rejected_naming_the_key(key, bad):
    with pytest.raises(ConfigurationError, match=key):
        CampaignConfig.from_json_dict({key: bad})


def test_semantic_validation_still_runs_after_decoding():
    with pytest.raises(ConfigurationError, match="n_workers"):
        CampaignConfig.from_json_dict({"n_workers": 0})
    with pytest.raises(ConfigurationError, match="storage"):
        CampaignConfig.from_json_dict({"storage": "cloud"})


def test_every_dataclass_field_has_a_registered_decoder():
    field_names = {f.name for f in dataclasses.fields(CampaignConfig)}
    assert set(_CONFIG_FIELD_DECODERS) == field_names


# -- fingerprints ----------------------------------------------------------


def test_fingerprint_invariant_under_execution_only_changes():
    base = CampaignConfig(seed=3, duration_s=86_400.0)
    tweaked = dataclasses.replace(
        base,
        n_workers=4,
        mp_start_method="spawn",
        storage="spill",
        storage_dir="/tmp/elsewhere",
        checkpoint_dir="/tmp/ckpt",
        resume=True,
    )
    assert campaign_fingerprint(tweaked) == campaign_fingerprint(base)


@pytest.mark.parametrize(
    "change",
    [{"seed": 4}, {"duration_s": 2 * 86_400.0}, {"cities": ("london",)}],
)
def test_fingerprint_changes_with_data_affecting_fields(change):
    base = CampaignConfig(seed=3, duration_s=86_400.0)
    assert campaign_fingerprint(
        dataclasses.replace(base, **change)
    ) != campaign_fingerprint(base)
