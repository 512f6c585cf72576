"""The knob table: one precedence rule, one check, both CLIs.

Every execution knob is a row of :data:`repro.knobs.KNOBS` and resolves
explicit value > ``REPRO_*`` variable > default.  Parametrized over
the rows, these tests pin that rule, the row checks (a bad variable
is named in the error), that every flag both CLIs build from the table
reaches the runner (through the resolver, or as the runner's
``n_workers`` when the knob has no variable), and that each consumer
reads its knob through it.
"""

import dataclasses
import os

import pytest

from repro import knobs
from repro.errors import ConfigurationError
from repro.extension.campaign import CampaignConfig

ROWS = list(knobs.KNOBS.values())
ENV_ROWS = [knob for knob in ROWS if knob.env]
FLAG_ROWS = [knob for knob in ROWS if knob.flag]

#: One allowed, non-default value per knob.
SAMPLES = {
    "n_workers": 3,
    "checkpoint_dir": "ckpt-root",
    "resume": True,
    "max_shard_retries": 5,
    "shard_timeout_s": 9.5,
    "retry_backoff_s": 0.25,
    "mp_start_method": "spawn",
    "storage": "spill",
    "storage_dir": "segments",
    "storage_segment_records": 512,
}

#: A value each knob's row refuses (directory knobs take any string).
BAD = {
    "n_workers": 0,
    "resume": "maybe",
    "max_shard_retries": -1,
    "shard_timeout_s": 0.0,
    "retry_backoff_s": -0.5,
    "mp_start_method": "threads",
    "storage": "cloud",
    "storage_segment_records": 0,
}
BAD_ENV_ROWS = [knob for knob in ENV_ROWS if knob.name in BAD]
BAD_EXPLICIT_ROWS = [k for k in ROWS if k.name in BAD and k.kind is not bool]


def _ids(rows):
    return [knob.name for knob in rows]


def _default(knob):
    return knob.default() if callable(knob.default) else knob.default


def _other(knob):
    """An allowed value different from the knob's sample."""
    sample = SAMPLES[knob.name]
    if knob.allowed:
        return next(value for value in knob.allowed if value != sample)
    if knob.kind is bool:
        return not sample
    if knob.kind is str:
        return sample + "-explicit"
    return sample * 2


@pytest.fixture
def clean_env(monkeypatch):
    """Every knob variable unset, and restored after the test however
    the code under test wrote it."""
    for knob in ENV_ROWS:
        monkeypatch.setenv(knob.env, "x")
        monkeypatch.delenv(knob.env)


def test_every_row_has_a_sample():
    assert set(SAMPLES) == set(knobs.KNOBS)
    for knob in ROWS:
        assert knob.check(SAMPLES[knob.name]) == SAMPLES[knob.name]
        assert SAMPLES[knob.name] != _default(knob)


# -- one precedence rule ---------------------------------------------------


@pytest.mark.parametrize("knob", ROWS, ids=_ids(ROWS))
def test_precedence(knob, clean_env, monkeypatch):
    """explicit > variable > default; an empty variable is unset."""
    default = _default(knob)
    assert knobs.resolve(knob.name) == default
    sample = SAMPLES[knob.name]
    if knob.env:
        monkeypatch.setenv(knob.env, "")
        assert knobs.resolve(knob.name) == default
        monkeypatch.setenv(knob.env, knob.render(sample))
        assert knobs.resolve(knob.name) == sample
    explicit = _other(knob)
    assert knobs.resolve(knob.name, explicit) == explicit


@pytest.mark.parametrize("knob", BAD_ENV_ROWS, ids=_ids(BAD_ENV_ROWS))
def test_bad_env_value_names_the_variable(knob, clean_env, monkeypatch):
    monkeypatch.setenv(knob.env, str(BAD[knob.name]))
    with pytest.raises(ConfigurationError, match=knob.env):
        knobs.resolve(knob.name)


@pytest.mark.parametrize("knob", BAD_EXPLICIT_ROWS, ids=_ids(BAD_EXPLICIT_ROWS))
def test_bad_explicit_value_names_the_knob(knob, clean_env):
    bad = BAD[knob.name]
    with pytest.raises(ConfigurationError, match=knob.name):
        knobs.resolve(knob.name, bad)
    with pytest.raises(ConfigurationError, match=knob.name):
        CampaignConfig(**{knob.name: bad})
    with pytest.raises(ConfigurationError, match=knob.name):
        CampaignConfig.from_json_dict({knob.name: bad})


def test_config_fields_are_the_table_rows():
    """The config carries every knob of the table as a field, with the
    same plain defaults, and the fingerprint excludes them."""
    from repro.runtime.checkpoint import campaign_fingerprint

    fields = {f.name: f for f in dataclasses.fields(CampaignConfig)}
    assert len(fields) == 17
    rows = set(knobs.KNOBS)
    assert rows <= set(fields)
    assert knobs.EXECUTION_ONLY_FIELDS == rows
    for name in rows:
        assert fields[name].default in (None, knobs.KNOBS[name].default), name
    base = CampaignConfig(seed=3)
    tweaked = CampaignConfig(seed=3, **{name: SAMPLES[name] for name in rows})
    assert campaign_fingerprint(tweaked) == campaign_fingerprint(base)


# -- both CLIs build their flags from the table -----------------------------


def _argv(knob):
    if knob.kind is bool:
        return [knob.flag]
    return [knob.flag, knob.render(SAMPLES[knob.name])]


def _reached(knob, n_workers):
    """The knob's value as the runner sees it: its ``n_workers``
    argument for a knob without a variable, else the resolver's."""
    return knobs.resolve(knob.name) if knob.env else n_workers


class _Rendered:
    def render(self):
        return ""


def _fake_runner(knob, seen):
    def run_experiment(experiment_id, seed=0, scale=1.0, n_workers=1):
        seen["value"] = _reached(knob, n_workers)
        return _Rendered()

    return run_experiment


@pytest.mark.parametrize("knob", FLAG_ROWS, ids=_ids(FLAG_ROWS))
def test_cli_flag_reaches_the_resolver(knob, clean_env, monkeypatch, capsys):
    from repro.experiments import __main__ as cli

    seen = {}
    monkeypatch.setattr(cli, "run_experiment", _fake_runner(knob, seen))
    assert cli.main([*_argv(knob), "table1"]) == 0
    assert seen["value"] == SAMPLES[knob.name]


@pytest.mark.parametrize("knob", FLAG_ROWS, ids=_ids(FLAG_ROWS))
def test_report_flag_reaches_the_resolver(knob, clean_env, monkeypatch, tmp_path):
    from repro.experiments import report

    seen = {}

    def fake_generate(path, seed=0, n_workers=1):
        seen["value"] = _reached(knob, n_workers)
        return []  # no failed shape check

    monkeypatch.setattr(report, "generate", fake_generate)
    assert report.main([*_argv(knob), "--out", str(tmp_path / "E.md")]) == 0
    assert seen["value"] == SAMPLES[knob.name]


def test_unset_workers_flag_runs_the_default(clean_env, monkeypatch, capsys):
    from repro.experiments import __main__ as cli

    seen = {}
    runner = _fake_runner(knobs.KNOBS["n_workers"], seen)
    monkeypatch.setattr(cli, "run_experiment", runner)
    assert cli.main(["table1"]) == 0
    assert seen["value"] == 1


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("cli_name", ["experiments", "report"])
def test_cli_refuses_a_bad_worker_count(
    cli_name, value, clean_env, monkeypatch, capsys, tmp_path
):
    """``--workers`` is checked with the other knob flags: exit 2 and
    the row's message on both CLIs, before anything runs."""
    from repro.experiments import __main__ as cli
    from repro.experiments import report

    def must_not_run(*args, **kwargs):
        raise AssertionError("ran with a bad worker count")

    monkeypatch.setattr(cli, "run_experiment", must_not_run)
    monkeypatch.setattr(report, "generate", must_not_run)
    argv = ["--workers", value, "--storage", "spill"]
    if cli_name == "experiments":
        main, argv = cli.main, [*argv, "table1"]
    else:
        main, argv = report.main, [*argv, "--out", str(tmp_path / "E.md")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "n_workers must be >= 1" in capsys.readouterr().err
    assert "REPRO_STORAGE" not in os.environ


def test_cli_refuses_an_out_of_bound_flag(clean_env, capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["--max-retries", "-1", "--list"])
    assert exit_info.value.code == 2
    assert "max_shard_retries must be >= 0" in capsys.readouterr().err
    assert "REPRO_MAX_RETRIES" not in os.environ


# -- each consumer reads its knob through the resolver ----------------------


def _config(**knob_fields):
    return CampaignConfig(seed=5, duration_s=86_400.0, **knob_fields)


def _start_method(value):
    from repro.runtime.supervision import mp_context

    return mp_context(_config(mp_start_method=value)).get_start_method()


def _coordinator(**knob_fields):
    from repro.runtime.fabric import FabricCoordinator

    return FabricCoordinator(_config(**knob_fields), "fabric", shards=[(0, [0])])


def _max_retries(value):
    return _coordinator(max_shard_retries=value).max_retries


def _shard_timeout(value):
    return _coordinator(shard_timeout_s=value).shard_timeout_s


def _checkpoint_root(value):
    from repro.runtime.checkpoint import campaign_dir

    return os.path.dirname(campaign_dir(_config(checkpoint_dir=value)))


def _storage(value):
    from repro.extension.backends import backend_for_config

    return backend_for_config(_config(storage=value)).name


def _storage_dir(value):
    from repro.extension.backends import backend_for_config

    config = _config(storage="spill", storage_dir=value)
    return backend_for_config(config).directory


#: Knob → its consumer, called with the explicit value (``None``:
#: unset) and returning the value the consumer ends up with.
CONSUMERS = {
    "mp_start_method": _start_method,
    "max_shard_retries": _max_retries,
    "shard_timeout_s": _shard_timeout,
    "checkpoint_dir": _checkpoint_root,
    "storage": _storage,
    "storage_dir": _storage_dir,
}


@pytest.mark.parametrize("name", sorted(CONSUMERS))
def test_consumer_reads_knob(name, clean_env, monkeypatch, tmp_path):
    """The variable reaches the consumer when its explicit value is
    unset, and an explicit value beats the variable."""
    knob = knobs.KNOBS[name]
    monkeypatch.chdir(tmp_path)  # directory knobs stay under tmp_path
    monkeypatch.setenv(knob.env, knob.render(SAMPLES[name]))
    assert CONSUMERS[name](None) == SAMPLES[name]
    assert CONSUMERS[name](_other(knob)) == _other(knob)


def test_resume_false_field_defers_to_the_variable(clean_env, monkeypatch, tmp_path):
    """``resume`` is a plain bool field, so ``False`` counts as unset:
    ``REPRO_RESUME=1`` still resumes (the CLI's ``--resume``)."""
    from repro.runtime.pool import run_campaign

    config = CampaignConfig(
        seed=2,
        duration_s=86_400.0,
        request_fraction=0.05,
        cities=("london",),
        shell_planes=24,
        shell_sats_per_plane=12,
        checkpoint_dir=str(tmp_path),
    )
    first, stats = run_campaign(config)
    assert stats.resumed_shards == 0
    monkeypatch.setenv("REPRO_RESUME", "1")
    again, stats = run_campaign(config)
    assert stats.resumed_shards == 1
    assert again.page_loads == first.page_loads
    monkeypatch.setenv("REPRO_RESUME", "0")
    _, stats = run_campaign(dataclasses.replace(config, resume=True))
    assert stats.resumed_shards == 1
