"""Execution knobs: one table, one precedence rule.

An *execution knob* changes how a campaign or experiment runs — start
method, retries, checkpoints, storage, packet engine — never the
records it produces or the artefacts computed from them (DESIGN.md
§5).  Every knob is one row of :data:`KNOBS`, and every consumer reads
its knob through :func:`resolve`, at the one place it is used::

    explicit value  >  REPRO_* environment variable  >  default

"Explicit" is whatever the consumer holds (a ``CampaignConfig`` or
``AccessConfig`` field, a keyword argument); ``None`` means unset.
The variables set a knob for a whole process, and carry the CLIs'
flags to experiments that build their own configs behind the uniform
runner signature (:func:`export`).  The CLI flags, the
``CampaignConfig`` field checks and :data:`EXECUTION_ONLY_FIELDS` all
derive from the table.

A leaf module (standard library and :mod:`repro.errors` only), so any
layer may import it at no cost.
"""

from __future__ import annotations

import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import ConfigurationError


def _start_methods() -> list[str]:
    import multiprocessing

    return multiprocessing.get_all_start_methods()


def _default_start_method() -> str:
    # fork is cheapest (workers inherit the parent's pages
    # copy-on-write); elsewhere keep the interpreter's default.
    if "fork" in _start_methods():
        return "fork"
    import multiprocessing

    return multiprocessing.get_start_method()


@dataclass(frozen=True)
class Knob:
    """One execution knob.

    ``name`` is the knob's ``CampaignConfig`` field / keyword / argparse
    ``dest``; ``kind`` (``str``, ``int``, ``float`` or ``bool``) is what
    its variable parses into; a callable ``default`` is called at
    resolve time.  ``allowed`` lists a ``str`` knob's values (empty:
    any), ``bound`` is ``">= N"`` / ``"> N"`` for a number, and
    ``available`` returns the values this platform offers.  ``flag``
    is the CLI flag both CLIs take (``None``: no flag).
    ``config_field`` says whether ``CampaignConfig`` carries the knob,
    so the fingerprint excludes it.
    """

    name: str
    kind: type
    default: object
    help: str
    env: str | None = None
    allowed: tuple[str, ...] = ()
    bound: str | None = None
    available: Callable[[], list[str]] | None = None
    flag: str | None = None
    config_field: bool = True

    def check(self, value, source: str | None = None):
        """``value`` if the row allows it (ints widen to floats).

        Raises:
            ConfigurationError: naming ``source`` (default: the knob).
        """
        source = source or self.name
        if self.kind is float and isinstance(value, int):
            value = float(value)
        if self.allowed and value not in self.allowed:
            raise ConfigurationError(
                f"{source} must be one of {self.allowed}, got {value!r}"
            )
        if self.available is not None and value not in self.available():
            raise ConfigurationError(
                f"{source} {value!r} is unavailable on this platform "
                f"(available: {self.available()})"
            )
        if self.bound is not None:
            op, limit = self.bound.split()
            if not _BOUND_OPS[op](value, float(limit)):
                raise ConfigurationError(
                    f"{source} must be {self.bound}, got {value!r}"
                )
        return value

    def parse(self, text: str):
        """An environment string as a checked value of ``kind``."""
        try:
            if self.kind is bool:
                value = _BOOL_WORDS[text.strip().lower()]
            else:
                value = self.kind(text)
        except (KeyError, ValueError):
            raise ConfigurationError(
                f"{self.env} must be {_KIND_WORDS[self.kind]}, got {text!r}"
            ) from None
        return self.check(value, source=self.env)

    def render(self, value) -> str:
        """``value`` as the environment string :meth:`parse` reads back."""
        if self.kind is bool:
            return "1" if value else "0"
        return str(value)


_BOUND_OPS = {">=": operator.ge, ">": operator.gt}
_BOOL_WORDS = {"1": True, "true": True, "yes": True}
_BOOL_WORDS.update({"0": False, "false": False, "no": False})
_KIND_WORDS = {int: "an integer", float: "a number", bool: "1/true/yes or 0/false/no"}
#: argparse metavars of the knobs without ``allowed`` values.
_METAVARS = {int: "N", float: "SECONDS", str: "DIR"}

# fmt: off
#: The execution knobs, in CLI order.
KNOBS: dict[str, Knob] = {knob.name: knob for knob in (
    Knob("n_workers", int, 1, bound=">= 1", flag="--workers",
         help="worker processes for a campaign (any value, same dataset)"),
    Knob("checkpoint_dir", str, None, env="REPRO_CHECKPOINT_DIR",
         flag="--checkpoint-dir",
         help="spill completed campaign shards here (enables --resume)"),
    Knob("resume", bool, False, env="REPRO_RESUME", flag="--resume",
         help="adopt surviving checkpointed shards from --checkpoint-dir "
         "instead of re-running them (bit-identical dataset)"),
    Knob("max_shard_retries", int, 2, env="REPRO_MAX_RETRIES", bound=">= 0",
         flag="--max-retries",
         help="supervisor re-attempts per failed campaign shard"),
    Knob("shard_timeout_s", float, None, env="REPRO_SHARD_TIMEOUT_S",
         bound="> 0", flag="--shard-timeout",
         help="kill and retry campaign shards exceeding this wall-clock "
         "budget (unset: no timeout)"),
    Knob("retry_backoff_s", float, 0.05, bound=">= 0",
         help="base delay of the supervisor's exponential retry backoff"),
    Knob("mp_start_method", str, _default_start_method, env="REPRO_MP_START",
         allowed=("fork", "spawn", "forkserver"), available=_start_methods,
         flag="--mp-start",
         help="multiprocessing start method for campaign workers "
         "(default: fork where available)"),
    Knob("storage", str, "memory", env="REPRO_STORAGE",
         allowed=("memory", "spill"), flag="--storage",
         help="dataset storage backend (memory = typed columns in RAM; "
         "spill = the same columns as bounded-memory .npz segments on "
         "disk; dataset is bit-identical across backends)"),
    Knob("storage_dir", str, None, env="REPRO_STORAGE_DIR",
         flag="--storage-dir",
         help="segment directory for --storage spill (default: a fresh "
         "temporary directory)"),
    Knob("storage_segment_records", int, 4096, bound=">= 1",
         help="records per storage segment (in RAM or on disk)"),
    Knob("engine", str, "event", env="REPRO_ENGINE",
         allowed=("event", "batch"), flag="--engine", config_field=False,
         help="packet-path engine: 'event' is the heap-driven oracle, "
         "'batch' the vectorised engine (statistically equivalent, "
         ">=10x faster on packet-level experiments)"),
)}
# fmt: on

#: ``CampaignConfig`` fields that steer execution, not data: two runs
#: differing only here produce bit-identical datasets, so the campaign
#: fingerprint excludes them and their checkpoints are interchangeable.
EXECUTION_ONLY_FIELDS = frozenset(k.name for k in KNOBS.values() if k.config_field)


def resolve(name: str, explicit=None):
    """Knob ``name``'s value: ``explicit`` unless ``None``, else its
    variable unless unset or empty, else its default.

    Raises:
        ConfigurationError: for a value the row does not allow; a bad
            environment value names its variable.
    """
    knob = KNOBS[name]
    if explicit is not None:
        return knob.check(explicit)
    text = os.environ.get(knob.env) if knob.env else None
    if text:
        return knob.parse(text)
    return knob.default() if callable(knob.default) else knob.default


def check(name: str, value):
    """``value`` checked against knob ``name``'s row (``None`` passes)."""
    return value if value is None else KNOBS[name].check(value)


def export(values: Mapping[str, object]) -> dict[str, str | None]:
    """Hand explicit knob values to later :func:`resolve` calls.

    Checks every non-``None`` entry of ``values`` (knob name → value)
    whose knob has a variable, then writes them all to the environment.
    Returns each written variable's previous value (``None``: unset).
    """
    checked = [
        (knob, knob.check(values[knob.name]))
        for knob in KNOBS.values()
        if knob.env is not None and values.get(knob.name) is not None
    ]
    previous = {}
    for knob, value in checked:
        previous[knob.env] = os.environ.get(knob.env)
        os.environ[knob.env] = knob.render(value)
    return previous


@contextmanager
def scoped(values: Mapping[str, object]):
    """:func:`export` ``values`` for the duration of a ``with`` block."""
    previous = export(values)
    try:
        yield
    finally:
        for env, value in previous.items():
            if value is None:
                os.environ.pop(env, None)
            else:
                os.environ[env] = value


def add_flags(parser) -> None:
    """Add the flag of every knob to ``parser``.

    Each flag stores under the knob's name with a ``None`` default, so
    the parsed namespace feeds :func:`export`; its help ends with the
    knob's variable, if it has one, and plain default.
    """
    for knob in KNOBS.values():
        if knob.flag is None:
            continue
        notes = [knob.env] if knob.env else []
        if knob.kind is not bool and isinstance(knob.default, (str, int, float)):
            notes.append(f"default {knob.default}")
        kwargs = {"dest": knob.name, "default": None}
        if knob.kind is bool:
            kwargs["action"] = "store_true"
        else:
            kwargs["type"] = knob.kind
            kwargs["choices"] = knob.allowed or None
            kwargs["metavar"] = None if knob.allowed else _METAVARS[knob.kind]
        parser.add_argument(
            knob.flag, help=f"{knob.help} [{'; '.join(notes)}]", **kwargs
        )
