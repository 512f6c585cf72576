"""The end-to-end extension measurement campaign.

Wires the whole §3.1 pipeline together: a user population browsing with
diurnal sessions, per-ISP connection models (Starlink users ride their
city's bent pipe under generated weather), the Tranco list and hosting
model, the page-load simulator, IPinfo classification, speedtests to
the Iowa server, and the privacy-preserving dataset.

A full six-month campaign reproduces the scale of the paper's ~50k
readings in about a minute; tests and quick examples shrink
``duration_s`` and ``request_fraction``.

Execution is organised per user: every record a user contributes is a
pure function of ``(CampaignConfig, user)`` — sessions, connection
draws, page profiles and capacity noise all come from RNG streams
keyed by the root seed plus user-scoped labels.  That contract is what
lets the campaign executor (:mod:`repro.runtime.pool`) shard the
population across worker processes (``CampaignConfig.n_workers``) and
still produce a dataset bit-for-bit identical to the serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import ConfigurationError
from repro.extension.connection import connection_for_user
from repro.extension.ipinfo import lookup_isp
from repro.extension.records import PageLoadRecord, SpeedtestRecord
from repro.extension.sessions import EventKind, SessionGenerator
from repro.extension.storage import Dataset
from repro.extension.users import User, UserPopulation
from repro.geo.cities import city
from repro.knobs import EXECUTION_ONLY_FIELDS, KNOBS
from repro.orbits.constellation import WalkerShell, starlink_shell1
from repro.rng import stream
from repro.starlink.access import terrestrial_delay_s
from repro.starlink.asn import AsPlan
from repro.starlink.bentpipe import BentPipeModel, ServingGeometryCache
from repro.starlink.pop import pop_for_city
from repro.timeline import CAMPAIGN_DURATION_S
from repro.weather.history import WeatherHistory
from repro.web.browser import PageLoadSimulator
from repro.web.hosting import HostingModel
from repro.web.page import PageProfileGenerator
from repro.web.speedtest import run_browser_speedtest
from repro.web.tranco import TrancoList

#: Float data fields coerced on construction, so ``7200`` and
#: ``7200.0`` are the same config (and fingerprint) on every path,
#: including the float-only JSON round trip the fabric ships configs
#: through.  Float knobs are coerced by their row's check.
_FLOAT_FIELDS = ("duration_s", "request_fraction", "speedtest_boost")


@dataclass
class CampaignConfig:
    """Knobs of a campaign run.

    Attributes:
        seed: Root seed; everything derives deterministically from it.
        duration_s: Campaign length (default: the full six months).
        request_fraction: Scales every user's activity — 1.0 targets
            Table 1's request counts; tests use small fractions.
        shell_planes / shell_sats_per_plane: Constellation resolution.
            The default 36x18 subsample keeps six-month campaigns fast;
            geometry (altitude/inclination/mask) is unchanged.
        cities: Restrict the population to these cities (None = all).
        speedtest_boost: Multiplier on the (rare) speedtest rate, used
            by speedtest-focused experiments to gather enough samples
            without inflating page-load volume.
        n_workers: Worker processes for :meth:`ExtensionCampaign.run`.
            1 runs serially in-process; any value produces the same
            dataset (the per-user determinism contract).
        precompute_timelines: Whether :meth:`ExtensionCampaign.run`
            precomputes one per-city serving timeline up front (and,
            when sharding, ships it to every worker).  None (default)
            decides automatically: precompute for sharded runs whose
            epoch count stays under
            :data:`repro.runtime.pool.TIMELINE_AUTO_EPOCH_CAP`.  Timelines are
            bit-identical to the on-demand scan path, so this knob
            never changes the dataset — only how fast it is produced.
        mp_start_method: Multiprocessing start method
            (``fork``/``spawn``/``forkserver``) for sharded runs.
        shard_timeout_s: Per-shard-attempt wall-clock budget for the
            supervisor; hung workers are killed and the shard retried.
        max_shard_retries: Re-attempts per shard after its first
            failure before the supervisor degrades to an in-process
            run.
        retry_backoff_s: Base delay of the supervisor's exponential
            retry backoff.
        checkpoint_dir: Spill directory for completed shards (resume
            support); unset means no checkpointing.
        resume: Adopt surviving checkpointed shards (validated against
            the config fingerprint and the planned partition) instead
            of re-running them.  ``False`` counts as unset, so
            ``REPRO_RESUME=1`` still turns resuming on.  None of the
            supervision/checkpoint knobs ever change the dataset —
            recovery is bit-identical by the determinism contract.
        storage: Dataset storage backend — ``memory`` (default),
            ``columnar`` (numpy column chunks) or ``spill``
            (bounded-memory ``.npz`` segments on disk, see DESIGN.md
            §9).  The dataset's records are bit-identical across
            backends.
        storage_dir: Directory for the ``spill`` backend's segments;
            unset means a fresh temporary directory.
        storage_segment_records: Records per columnar chunk / spill
            segment (the bound on staged records in memory).
        analytics: Analysis path of the figure/table aggregations over
            this campaign's dataset: ``"exact"`` (default,
            bit-identical to the historical outputs) or
            ``"streaming"`` (mergeable sketches, medians within the 1 %
            rank-error bound, see :mod:`repro.analysis.streaming`).

    Every field from ``n_workers`` on is an execution knob: a row of
    :data:`repro.knobs.KNOBS`, checked against it here and resolved
    where it is used (explicit field > ``REPRO_*`` variable > default,
    DESIGN.md §5).  ``None`` means unset.  Knobs never change the
    dataset, so the campaign fingerprint excludes them.
    """

    seed: int = 0
    duration_s: float = CAMPAIGN_DURATION_S
    request_fraction: float = 1.0
    shell_planes: int = 36
    shell_sats_per_plane: int = 18
    cities: tuple[str, ...] | None = None
    speedtest_boost: float = 1.0
    n_workers: int = 1
    precompute_timelines: bool | None = None
    mp_start_method: str | None = None
    shard_timeout_s: float | None = None
    max_shard_retries: int | None = None
    retry_backoff_s: float | None = None
    checkpoint_dir: str | None = None
    resume: bool = False
    storage: str | None = None
    storage_dir: str | None = None
    storage_segment_records: int = 4096
    analytics: str | None = None

    def __post_init__(self) -> None:
        for name in _FLOAT_FIELDS:
            setattr(self, name, float(getattr(self, name)))
        for name in EXECUTION_ONLY_FIELDS:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, KNOBS[name].check(value))

    # -- canonical JSON codec ---------------------------------------------

    @classmethod
    def execution_only_fields(cls) -> frozenset[str]:
        """Fields that steer execution, never the dataset's bits.

        Exactly the set :func:`repro.runtime.checkpoint.campaign_fingerprint`
        excludes — the knob table's config fields, which two
        interchangeable configs may differ in.
        """
        return EXECUTION_ONLY_FIELDS

    def to_json_dict(self) -> dict:
        """Canonical JSON-safe rendering of every field.

        The wire/document form of a campaign config: plain JSON types
        only (tuples become lists), one key per dataclass field, and a
        guaranteed bit-exact round-trip through
        :meth:`from_json_dict`.  Checkpoint metadata and the campaign
        service's submission body both speak this dialect.
        """
        data = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = list(value)
            data[field.name] = value
        return data

    @classmethod
    def from_json_dict(cls, data) -> "CampaignConfig":
        """Decode :meth:`to_json_dict` output (or any submitted JSON).

        Strict by design: unknown keys are rejected with an error
        naming each offending key (a typo must never silently become a
        default), and every value is type-checked against its field
        before ``__post_init__`` runs the semantic validation.  Absent
        keys take their defaults, so a partial document is a valid
        submission.

        Raises:
            ConfigurationError: naming the unknown or mistyped key(s).
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                "a campaign config document must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown CampaignConfig key(s) {unknown}; "
                f"known keys: {sorted(known)}"
            )
        kwargs = {}
        for name, value in data.items():
            decode = _CONFIG_FIELD_DECODERS.get(name)
            if decode is None:
                raise ConfigurationError(
                    f"CampaignConfig field {name!r} has no wire decoder "
                    "registered; add it to _CONFIG_FIELD_DECODERS"
                )
            kwargs[name] = decode(name, value)
        return cls(**kwargs)


def _decode_int(name: str, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"CampaignConfig key {name!r} must be an integer, "
            f"got {value!r}"
        )
    return value


def _decode_float(name: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"CampaignConfig key {name!r} must be a number, got {value!r}"
        )
    return float(value)


def _decode_bool(name: str, value):
    if not isinstance(value, bool):
        raise ConfigurationError(
            f"CampaignConfig key {name!r} must be a boolean, got {value!r}"
        )
    return value


def _optional(decode):
    def decoder(name: str, value):
        return None if value is None else decode(name, value)

    return decoder


def _decode_str(name: str, value):
    if not isinstance(value, str):
        raise ConfigurationError(
            f"CampaignConfig key {name!r} must be a string, got {value!r}"
        )
    return value


def _decode_cities(name: str, value):
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(city, str) for city in value
    ):
        raise ConfigurationError(
            f"CampaignConfig key {name!r} must be a list of city names "
            f"or null, got {value!r}"
        )
    return tuple(value)


_KIND_DECODERS = {
    int: _decode_int,
    float: _decode_float,
    bool: _decode_bool,
    str: _decode_str,
}


def _knob_decoder(field):
    decode = _KIND_DECODERS[KNOBS[field.name].kind]
    return _optional(decode) if field.default is None else decode


#: Field-by-field wire decoders; every dataclass field must appear here
#: (enforced by the codec test) so a new field cannot silently skip
#: validation.  Knob fields decode by their row's kind, optional where
#: the field defaults to ``None`` (unset).
_CONFIG_FIELD_DECODERS = {
    "seed": _decode_int,
    "duration_s": _decode_float,
    "request_fraction": _decode_float,
    "shell_planes": _decode_int,
    "shell_sats_per_plane": _decode_int,
    "cities": _optional(_decode_cities),
    "speedtest_boost": _decode_float,
    **{
        field.name: _knob_decoder(field)
        for field in fields(CampaignConfig)
        if field.name in EXECUTION_ONLY_FIELDS
    },
}


class ExtensionCampaign:
    """Builds and runs one campaign, producing a :class:`Dataset`."""

    def __init__(self, config: CampaignConfig | None = None) -> None:
        self.config = config if config is not None else CampaignConfig()
        cfg = self.config
        self.shell: WalkerShell = starlink_shell1(
            n_planes=cfg.shell_planes, sats_per_plane=cfg.shell_sats_per_plane
        )
        self.weather = WeatherHistory(seed=cfg.seed, duration_s=cfg.duration_s)
        self.as_plan = AsPlan()
        self.tranco = TrancoList()
        self.hosting = HostingModel(seed=cfg.seed)
        self.pages = PageProfileGenerator()
        self.population = UserPopulation(seed=cfg.seed, duration_s=cfg.duration_s)
        if cfg.cities is not None:
            self.population.users = [
                u for u in self.population.users if u.city_name in cfg.cities
            ]
        self._bentpipes: dict[str, BentPipeModel] = {}
        self._geometry_caches: dict[str, ServingGeometryCache] = {}
        self._timelines: dict = {}
        #: Timing/throughput counters of the most recent :meth:`run`.
        self.last_run_stats = None

    def geometry_cache_for_city(self, city_name: str) -> ServingGeometryCache:
        """The epoch-keyed serving-geometry cache shared by a city.

        Every bent-pipe model of a city (the legacy shared one and all
        per-user ones) has identical geometry inputs, so they share one
        cache and each scheduler epoch is scanned at most once per
        process.
        """
        if city_name not in self._geometry_caches:
            self._geometry_caches[city_name] = ServingGeometryCache()
        return self._geometry_caches[city_name]

    def geometry_caches(self) -> list[ServingGeometryCache]:
        """All per-city geometry caches created so far."""
        return list(self._geometry_caches.values())

    # -- serving timelines ------------------------------------------------

    def timeline_for_city(self, city_name: str):
        """The precomputed serving timeline of a city, building it on
        first use (one vectorised pass over every scheduler epoch of
        the campaign window — see :mod:`repro.starlink.timeline`)."""
        if city_name not in self._timelines:
            from repro.starlink.timeline import compute_serving_timeline

            pop = pop_for_city(city_name)
            self._timelines[city_name] = compute_serving_timeline(
                self.shell,
                city(city_name).location,
                pop.gateway,
                start_s=0.0,
                end_s=self.config.duration_s,
            )
        return self._timelines[city_name]

    def install_timelines(self, timelines: dict) -> None:
        """Adopt precomputed per-city timelines (``{city: timeline}``).

        The sharded engine calls this in each worker with the
        timelines the parent computed, before any bent pipe is built.
        Bent pipes built earlier (e.g. by a runner that touched
        :meth:`bentpipe_for_city` before installing) adopt their
        city's timeline too, so lookup order cannot change coverage.
        """
        self._timelines.update(timelines)
        for city_name, bentpipe in self._bentpipes.items():
            timeline = self._timelines.get(city_name)
            if timeline is not None:
                bentpipe.attach_timeline(timeline)

    def timelines(self) -> list:
        """All per-city serving timelines held by this campaign."""
        return list(self._timelines.values())

    def bentpipe_for_city(self, city_name: str) -> BentPipeModel:
        """The (shared) bent-pipe model of a city's Starlink users."""
        if city_name not in self._bentpipes:
            self._bentpipes[city_name] = self._build_bentpipe(city_name)
        return self._bentpipes[city_name]

    def bentpipe_for_user(self, user: User) -> BentPipeModel:
        """A per-user bent-pipe model with user-keyed noise streams.

        Geometry (and its cache) is shared with every other model of
        the user's city; only the stochastic draws — wireless queueing
        and capacity noise — are keyed to the user, so the user's
        record stream does not depend on who else ran before them.
        """
        return self._build_bentpipe(user.city_name, user_key=user.user_id)

    def _build_bentpipe(
        self, city_name: str, user_key: str | None = None
    ) -> BentPipeModel:
        pop = pop_for_city(city_name)
        return BentPipeModel(
            self.shell,
            city(city_name).location,
            pop.gateway,
            city_name,
            weather=self.weather,
            seed=self.config.seed,
            user_key=user_key,
            geometry_cache=self.geometry_cache_for_city(city_name),
            timeline=self._timelines.get(city_name),
        )

    def run(self) -> Dataset:
        """Execute the campaign and return the collected dataset.

        Runs :func:`repro.runtime.pool.run_campaign` on this campaign's
        config: in-process for ``n_workers == 1``, sharded across
        worker processes otherwise, checkpointed and resumed as the
        config asks — the dataset is identical either way.
        :attr:`last_run_stats` afterwards holds per-shard
        timing/throughput counters.
        """
        from repro.runtime.pool import run_campaign

        dataset, self.last_run_stats = run_campaign(self.config)
        return dataset

    def run_user(
        self, user: User
    ) -> tuple[list[PageLoadRecord], list[SpeedtestRecord]]:
        """Produce one user's records (the sharding unit of work).

        Pure in the determinism-contract sense: depends only on the
        campaign config and the user, never on which other users ran
        in this process before.
        """
        page_loads: list[PageLoadRecord] = []
        speedtests: list[SpeedtestRecord] = []
        if not user.shares_data:
            return page_loads, speedtests
        cfg = self.config
        iowa = city("iowa")
        user_city = city(user.city_name)
        bentpipe = self.bentpipe_for_user(user) if user.isp.is_starlink else None
        connection = connection_for_user(user, bentpipe, self.as_plan, cfg.seed)
        simulator = PageLoadSimulator(connection)
        rng = stream(cfg.seed, "campaign", user.user_id)
        # Scale activity without changing the population definition.
        scaled_user = replace(
            user, pages_per_day=user.pages_per_day * cfg.request_fraction
        )
        events = SessionGenerator(
            scaled_user,
            seed=cfg.seed,
            details_tab_daily_rate=0.08 * cfg.request_fraction,
            speedtest_daily_rate=0.05
            * max(cfg.request_fraction, 0.2)
            * cfg.speedtest_boost,
        ).events(0.0, cfg.duration_s)
        iowa_extra_s = terrestrial_delay_s(user_city.location, iowa.location)
        for event in events:
            if event.kind is EventKind.SPEEDTEST:
                speedtests.append(
                    self._speedtest_record(
                        user, connection, event.t_s, iowa_extra_s, rng
                    )
                )
                continue
            sites = (
                self.tranco.details_tab_sample(rng)
                if event.kind is EventKind.DETAILS_TAB
                else [self.tranco.organic_site(rng)]
            )
            for site in sites:
                page_loads.append(
                    self._page_load_record(
                        user, connection, simulator, site, event.t_s, rng
                    )
                )
        return page_loads, speedtests

    def _page_load_record(
        self, user, connection, simulator, site, t_s, rng
    ) -> PageLoadRecord:
        user_city = city(user.city_name)
        hosting = self.hosting.resolve(site.domain, site.rank, user_city.region)
        profile = self.pages.draw(site, rng)
        timing = simulator.load(
            profile, hosting, t_s, rng, device_multiplier=user.device_multiplier
        )
        info = lookup_isp(user, t_s, self.as_plan)
        return PageLoadRecord(
            user_id=user.user_id,
            city=info.city_name,
            region=info.region,
            isp=user.isp.value,
            is_starlink=info.is_starlink,
            exit_asn=info.asn,
            t_s=t_s,
            domain=site.domain,
            rank=site.rank,
            is_popular=site.is_popular,
            timing=timing,
        )

    def _speedtest_record(
        self, user, connection, t_s, iowa_extra_s, rng
    ) -> SpeedtestRecord:
        rtt = connection.rtt_sample_s(t_s) + 2.0 * iowa_extra_s
        result = run_browser_speedtest(
            t_s,
            dl_capacity_bps=connection.bandwidth_bps(t_s),
            ul_capacity_bps=connection.uplink_bps(t_s),
            rtt_s=rtt,
            rng=rng,
        )
        return SpeedtestRecord(
            user_id=user.user_id,
            city=user.city_name,
            isp=user.isp.value,
            is_starlink=user.isp.is_starlink,
            t_s=t_s,
            download_mbps=result.download_mbps,
            upload_mbps=result.upload_mbps,
            ping_ms=result.ping_ms,
        )
