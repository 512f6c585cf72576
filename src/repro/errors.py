"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  Subsystem-specific subclasses allow
finer-grained handling (for example, distinguishing a malformed TLE from a
simulation misconfiguration).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class TLEError(ReproError):
    """A Two-Line Element set could not be parsed or validated."""


class PropagationError(ReproError):
    """Orbit propagation failed (e.g. non-convergent Kepler solve)."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class RoutingError(SimulationError):
    """A packet could not be forwarded (no route / no such node)."""


class FlowError(ReproError):
    """A transport flow was driven through an invalid state transition."""


class DatasetError(ReproError):
    """A measurement dataset is missing required fields or records."""


class SupervisionError(ReproError):
    """The multi-process campaign runtime reached an unrecoverable state."""


class ShardFailedError(SupervisionError):
    """A shard used up its re-dispatch budget (``max_shard_retries``).

    Raised once every other shard was accepted and stored, so a resumed
    run re-runs only the lost shard(s).

    Attributes:
        failures: The :class:`repro.runtime.shard.ShardFailure` log of
            every failed attempt, across all shards, up to the point
            the campaign was abandoned.
    """

    def __init__(self, message: str, failures=()):
        super().__init__(message)
        self.failures = list(failures)


class CampaignCancelledError(SupervisionError):
    """A campaign run was cancelled before every shard completed.

    Raised by the campaign executor when its ``should_stop`` seam
    fires.  Shards that completed before the cancel were already
    stored (in the checkpoint directory, when one is configured), so a
    later resume re-runs only what the cancel lost.

    Attributes:
        completed_shards: Shards accepted before the cancel took effect.
        n_shards: Shards the cancelled run had planned in total.
    """

    def __init__(
        self, message: str, completed_shards: int = 0, n_shards: int = 0
    ):
        super().__init__(message)
        self.completed_shards = completed_shards
        self.n_shards = n_shards


class FabricError(SupervisionError):
    """The campaign fabric reached an unrecoverable state.

    Raised by the fabric coordinator when every local worker exits with
    work still unclaimed, when a fabric directory belongs to a
    different campaign fingerprint, or by a worker that finds no
    usable plan.
    """


class LeaseLostError(FabricError):
    """A worker's shard lease vanished or was fenced mid-run.

    Raised by the heartbeat path when the lease file is gone, carries a
    different owner token, or a coordinator fence names this worker's
    token.  The worker must stop treating the shard as its own —
    though it may still *speculatively* finish and offer a manifest
    (first valid manifest wins; the loser is discarded).
    """


class CheckpointError(ReproError):
    """A campaign checkpoint directory is unusable or inconsistent."""


class VisibilityError(ReproError):
    """No satellite is visible when one is required (coverage gap)."""
