"""Packet-loss models.

Three families matter for the paper:

* i.i.d. (Bernoulli) loss — the ablation baseline.
* Gilbert-Elliott two-state loss — bursty residual wireless loss.
* Handover-gated burst loss — severe loss concentrated in windows around
  serving-satellite handovers.  This is the mechanism the paper's
  Figure 7 identifies: clumps of up to ~50% packet loss coinciding with
  the serving satellite going out of line of sight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol as TypingProtocol

import numpy as np

from repro.errors import ConfigurationError
from repro.net.packet import Packet


class LossModel(TypingProtocol):
    """Decides the fate of each packet offered to a link.

    Models may additionally implement ``drop_mask(times_s)`` — a
    batched equivalent returning a boolean array for a sorted vector of
    transmission times, consuming the generator in the same order as
    the equivalent sequence of ``should_drop`` calls.  ``drop_mask``
    may return ``None`` instead of an array when it drops nothing; the
    models here do so when they also draw nothing (``NoLoss`` always,
    a zero rate, no time inside a loss window), so a caller that
    reads ``None`` as no drops skips a mask.  The batch engine
    (:mod:`repro.net.batch`) uses it when present and falls back to
    per-packet ``should_drop`` otherwise.
    """

    def should_drop(self, packet: Packet, now_s: float) -> bool:
        """Return True to drop ``packet`` at time ``now_s``."""
        ...


@dataclass
class NoLoss:
    """Never drops."""

    def should_drop(self, packet: Packet, now_s: float) -> bool:
        """Always False."""
        return False

    def drop_mask(self, times_s: np.ndarray) -> None:
        """``None``: nothing dropped, no generator consumption."""
        return None

    def reset(self) -> None:
        """No state to clear."""


@dataclass
class BernoulliLoss:
    """Independent per-packet loss with fixed probability."""

    rate: float
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"loss rate must be a probability: {self.rate}")

    def should_drop(self, packet: Packet, now_s: float) -> bool:
        """Drop with fixed probability, independent of history."""
        if self.rate == 0.0:
            return False
        return bool(self.rng.random() < self.rate)

    def drop_mask(self, times_s: np.ndarray) -> np.ndarray | None:
        """Batched draws, bit-identical to sequential ``should_drop``.

        ``Generator.random(n)`` consumes the stream exactly like ``n``
        scalar calls, so the scalar and batched paths drop the same
        packets (the oracle-identity tests pin this).  A zero rate
        draws nothing and returns ``None``.
        """
        if self.rate == 0.0:
            return None
        return self.rng.random(len(times_s)) < self.rate

    def reset(self) -> None:
        """No state to clear (draws are i.i.d.)."""


@dataclass
class GilbertElliottLoss:
    """Two-state (good/bad) Markov loss model.

    State transitions are evaluated in continuous time using exponential
    sojourns, so the burst structure is independent of packet rate.

    Attributes:
        mean_good_s: Mean sojourn in the good state, seconds.
        mean_bad_s: Mean sojourn in the bad state, seconds.
        loss_good: Loss probability while good.
        loss_bad: Loss probability while bad.
    """

    mean_good_s: float
    mean_bad_s: float
    loss_good: float = 0.0
    loss_bad: float = 0.5
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    _in_bad: bool = field(default=False, init=False)
    _next_transition_s: float = field(default=0.0, init=False)
    _initialised: bool = field(default=False, init=False)
    _last_now_s: float = field(default=float("-inf"), init=False)

    def __post_init__(self) -> None:
        if self.mean_good_s <= 0 or self.mean_bad_s <= 0:
            raise ConfigurationError("state sojourn means must be positive")
        for probability in (self.loss_good, self.loss_bad):
            if not 0.0 <= probability <= 1.0:
                raise ConfigurationError(
                    f"loss probability out of range: {probability}"
                )

    def reset(self) -> None:
        """Forget the Markov state so the model can serve a fresh run.

        The chain restarts in the good state at the next ``should_drop``
        call; the generator itself is not rewound (it was passed in, and
        callers who need bit-identical replays pass a freshly seeded one).
        """
        self._in_bad = False
        self._next_transition_s = 0.0
        self._initialised = False
        self._last_now_s = float("-inf")

    def _advance(self, now_s: float) -> None:
        if now_s < self._last_now_s:
            # Time went backwards (model reused across simulator runs
            # without reset()): the cached state describes the future.
            # Restart the chain rather than silently answering from it.
            self.reset()
        self._last_now_s = now_s
        if not self._initialised:
            self._initialised = True
            self._next_transition_s = now_s + self.rng.exponential(self.mean_good_s)
        while now_s >= self._next_transition_s:
            self._in_bad = not self._in_bad
            sojourn_mean = self.mean_bad_s if self._in_bad else self.mean_good_s
            self._next_transition_s += self.rng.exponential(sojourn_mean)

    def should_drop(self, packet: Packet, now_s: float) -> bool:
        """Drop with the current state's probability (time-driven)."""
        self._advance(now_s)
        probability = self.loss_bad if self._in_bad else self.loss_good
        if probability == 0.0:
            return False
        return bool(self.rng.random() < probability)

    def drop_mask(self, times_s: np.ndarray) -> np.ndarray:
        """Batched evaluation over sorted times.

        The chain is inherently sequential (sojourn draws interleave
        with drop draws), so this replays exactly the scalar call
        pattern — same generator consumption, bit-identical mask — in a
        tight loop free of the event-loop machinery.
        """
        mask = np.zeros(len(times_s), dtype=bool)
        for index, now_s in enumerate(times_s):
            self._advance(float(now_s))
            probability = self.loss_bad if self._in_bad else self.loss_good
            if probability != 0.0:
                mask[index] = self.rng.random() < probability
        return mask


@dataclass
class HandoverBurstLoss:
    """Severe loss inside windows around satellite handover events.

    Given the handover schedule produced by
    :class:`repro.orbits.tracking.SatelliteTracker`, packets offered
    within ``burst_duration_s`` after a handover are dropped with
    ``burst_loss``; LOS-lost/outage handovers use the (higher)
    ``outage_loss``.  Outside bursts, ``residual_loss`` applies.

    Attributes:
        burst_windows: Sorted (start_s, end_s, loss_probability) tuples.
        residual_loss: Background loss probability between bursts.
    """

    burst_windows: list[tuple[float, float, float]]
    residual_loss: float = 0.0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    _cursor: int = field(default=0, init=False)
    _last_now_s: float = field(default=float("-inf"), init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.residual_loss <= 1.0:
            raise ConfigurationError(
                f"residual loss out of range: {self.residual_loss}"
            )
        previous_start = float("-inf")
        for start, end, probability in self.burst_windows:
            if end < start:
                raise ConfigurationError(
                    f"burst window ends before it starts: {(start, end)}"
                )
            if start < previous_start:
                raise ConfigurationError("burst windows must be sorted by start time")
            if not 0.0 <= probability <= 1.0:
                raise ConfigurationError(f"burst loss out of range: {probability}")
            previous_start = start

    def reset(self) -> None:
        """Rewind the window cursor so the model can serve a fresh run."""
        self._cursor = 0
        self._last_now_s = float("-inf")

    def loss_probability_at(self, now_s: float) -> float:
        """Effective loss probability at ``now_s``."""
        # Advance the cursor past windows that ended (packets arrive in
        # time order on a link, so a moving cursor is sufficient).  If
        # time runs backwards — the model was reused across simulator
        # runs without reset() — rewind instead of answering from a
        # cursor that already skipped the windows covering ``now_s``.
        if now_s < self._last_now_s:
            self._cursor = 0
        self._last_now_s = now_s
        while (
            self._cursor < len(self.burst_windows)
            and self.burst_windows[self._cursor][1] < now_s
        ):
            self._cursor += 1
        probability = self.residual_loss
        for start, end, window_loss in self.burst_windows[self._cursor :]:
            if start > now_s:
                break
            if start <= now_s <= end:
                probability = max(probability, window_loss)
        return probability

    def should_drop(self, packet: Packet, now_s: float) -> bool:
        """Drop with the window-dependent probability at ``now_s``."""
        probability = self.loss_probability_at(now_s)
        if probability == 0.0:
            return False
        return bool(self.rng.random() < probability)

    def probabilities(self, times_s: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`loss_probability_at` over sorted times.

        Pure window geometry — no generator consumption and no cursor
        movement, so it composes with the scalar path.
        """
        times = np.asarray(times_s, dtype=float)
        probabilities = np.full(len(times), self.residual_loss)
        for start, end, window_loss in self.burst_windows:
            inside = (times >= start) & (times <= end)
            np.maximum(probabilities, np.where(inside, window_loss, 0.0),
                       out=probabilities)
        return probabilities

    def drop_mask(self, times_s: np.ndarray) -> np.ndarray | None:
        """Batched drop decisions, bit-identical to scalar evaluation.

        The scalar path draws a uniform only where the probability is
        non-zero; the batch draws one block for exactly those
        positions, preserving the stream alignment.  ``None`` when no
        time has a non-zero probability (nothing drawn or dropped).
        """
        probabilities = self.probabilities(times_s)
        drawing = probabilities > 0.0
        n_draws = int(drawing.sum())
        if not n_draws:
            return None
        mask = np.zeros(len(probabilities), dtype=bool)
        mask[drawing] = self.rng.random(n_draws) < probabilities[drawing]
        return mask

    @classmethod
    def from_handovers(
        cls,
        events: list,
        rng: np.random.Generator,
        burst_duration_s: float = 4.0,
        burst_loss: float = 0.26,
        outage_loss: float = 0.85,
        residual_loss: float = 0.002,
        severity_sigma: float = 0.6,
    ) -> "HandoverBurstLoss":
        """Build burst windows from tracker handover events.

        ``events`` are :class:`repro.orbits.tracking.HandoverEvent`;
        LOS-lost and outage events get ``outage_loss`` severity (and a
        doubled window: reconnection after losing the beam takes far
        longer than a scheduled switch), routine reschedules get
        ``burst_loss``.  Per-burst severity is jittered lognormally
        (``severity_sigma``): most handovers are mild, a few are
        brutal — which is what produces Figure 6(c)'s tail out to ~50%
        test-level loss.  ACQUIRED events are skipped: the tracker
        emits one at its own cold start (the terminal was already
        connected in reality), and re-acquisition after a true outage
        is already covered by the OUTAGE window.
        """
        from repro.orbits.tracking import HandoverReason

        windows: list[tuple[float, float, float]] = []
        for event in events:
            if event.reason is HandoverReason.ACQUIRED:
                continue
            severe = event.reason in (HandoverReason.LOS_LOST, HandoverReason.OUTAGE)
            base = outage_loss if severe else burst_loss
            duration = burst_duration_s * (2.0 if severe else 1.0)
            probability = min(0.95, base * float(rng.lognormal(0.0, severity_sigma)))
            windows.append((event.t_s, event.t_s + duration, probability))
        windows.sort(key=lambda w: w[0])
        return cls(burst_windows=windows, residual_loss=residual_loss, rng=rng)


@dataclass
class CompositeLoss:
    """Drops when any component model drops (evaluated in order)."""

    models: list
    extra_rate: float = 0.0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self) -> None:
        if not 0.0 <= self.extra_rate <= 1.0:
            raise ConfigurationError(f"extra rate out of range: {self.extra_rate}")

    def should_drop(self, packet: Packet, now_s: float) -> bool:
        """Drop when any component (or the extra rate) says so.

        Every component is consulted on every packet — no
        short-circuiting — so stateful models (e.g. Gilbert-Elliott
        chains) advance their clocks even when an earlier component
        already dropped the packet.  Otherwise a drop by component A
        would freeze component B's state evolution, making B's burst
        pattern depend on A's drops.
        """
        dropped = False
        for model in self.models:
            if model.should_drop(packet, now_s):
                dropped = True
        if dropped:
            return True
        return self.extra_rate > 0.0 and self.rng.random() < self.extra_rate

    def drop_mask(self, times_s: np.ndarray) -> np.ndarray | None:
        """Batched composite decisions (component order preserved).

        Components with a ``drop_mask`` evaluate batched; others fall
        back per-packet.  A component's ``None`` reads as no drops.  The
        extra-rate uniform is drawn only where no component dropped,
        matching the scalar short-circuit.  ``None`` when every
        component answered ``None`` and there is no extra rate.
        """
        times = np.asarray(times_s, dtype=float)
        dropped = None
        for model in self.models:
            batched = getattr(model, "drop_mask", None)
            if batched is not None:
                component = batched(times)
                if component is None:
                    continue
            else:
                component = np.zeros(len(times), dtype=bool)
                for index, now_s in enumerate(times):
                    component[index] = model.should_drop(None, float(now_s))
            if dropped is None:
                dropped = np.zeros(len(times), dtype=bool)
            dropped |= component
        if self.extra_rate > 0.0:
            if dropped is None:
                dropped = np.zeros(len(times), dtype=bool)
            survivors = ~dropped
            n_draws = int(survivors.sum())
            if n_draws:
                dropped[survivors] = self.rng.random(n_draws) < self.extra_rate
        return dropped

    def reset(self) -> None:
        """Reset every component that carries state."""
        for model in self.models:
            reset = getattr(model, "reset", None)
            if reset is not None:
                reset()
