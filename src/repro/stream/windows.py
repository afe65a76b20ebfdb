"""Windowed per-subnet counter state for the streaming engine.

The batch pipeline sees one month of beacons at once; the online
engine sees them one at a time.  State is organised as an *open
window* of integer per-subnet counters plus a *closed aggregate* that
absorbs each window when it closes:

    aggregate <- aggregate * decay + window

- ``decay == 1.0`` is a **tumbling accumulate**: integer counters add
  exactly, so a drained stream holds precisely the counts a batch run
  over the same events would -- the stream/batch differential test
  rests on this.
- ``decay < 1.0`` is an **exponentially decayed** view: each window
  advance multiplies history by ``decay``, so old evidence fades with
  a half-life of ``ln(0.5)/ln(decay)`` windows.  Counters become
  floats, deliberately and visibly.

Windows advance on *event count* (every ``window_events`` ingested
events), never on wall clock: replaying the same event sequence yields
bit-identical state on any machine at any speed -- the deterministic,
seed-stable semantics the differential and crash-resume tests need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.net.prefix import Prefix

#: Number -- int under tumbling accumulation, float once decayed.
Count = float


@dataclass
class SubnetWindowCounts:
    """Mutable per-subnet counters (mirrors ``SubnetBeaconCounts``).

    Metadata (``asn``, ``country``) is pinned by the first event for
    the subnet, exactly like ``BeaconDataset.observe_hit``.
    """

    asn: int
    country: str
    hits: Count = 0
    api_hits: Count = 0
    cellular_hits: Count = 0

    def observe(self, api_enabled: bool, cellular_labeled: bool) -> None:
        self.hits += 1
        if api_enabled:
            self.api_hits += 1
            if cellular_labeled:
                self.cellular_hits += 1
        elif cellular_labeled:
            raise ValueError("cellular label without API data")

    def scaled(self, factor: float) -> "SubnetWindowCounts":
        return SubnetWindowCounts(
            asn=self.asn,
            country=self.country,
            hits=self.hits * factor,
            api_hits=self.api_hits * factor,
            cellular_hits=self.cellular_hits * factor,
        )

    def add(self, other: "SubnetWindowCounts") -> None:
        """Fold ``other`` in; metadata must agree (first writer wins)."""
        if (self.asn, self.country) != (other.asn, other.country):
            raise ValueError(
                f"conflicting subnet metadata: AS{self.asn}/{self.country} "
                f"vs AS{other.asn}/{other.country}"
            )
        self.hits += other.hits
        self.api_hits += other.api_hits
        self.cellular_hits += other.cellular_hits

    def as_row(self) -> List:
        return [self.asn, self.country, self.hits, self.api_hits,
                self.cellular_hits]


@dataclass(frozen=True)
class WindowPolicy:
    """Deterministic window semantics.

    ``window_events`` -- events per window (the tumbling size).
    ``decay`` -- multiplier applied to the closed aggregate at each
    window advance; 1.0 accumulates exactly (stream == batch).
    """

    window_events: int = 10_000
    decay: float = 1.0

    def __post_init__(self) -> None:
        if self.window_events < 1:
            raise ValueError("window_events must be >= 1")
        if not 0 < self.decay <= 1:
            raise ValueError("decay must be in (0, 1]")


class WindowedSubnetState:
    """Open window + decayed aggregate over per-subnet counters."""

    def __init__(self, policy: Optional[WindowPolicy] = None) -> None:
        self.policy = policy or WindowPolicy()
        #: Events in the currently open window.
        self.window_fill = 0
        #: Total windows closed so far.
        self.windows_closed = 0
        self._window: Dict[Prefix, SubnetWindowCounts] = {}
        self._aggregate: Dict[Prefix, SubnetWindowCounts] = {}
        #: Optional observer called at the top of :meth:`advance` with
        #: ``(window_seq, window_counts)`` -- the *closing* window's raw
        #: counters before they are folded into the (possibly decayed)
        #: aggregate.  The census drift monitor
        #: (:class:`repro.obs.health.CensusDriftMonitor`) hangs here.
        self.on_advance = None

    # ---- ingestion -------------------------------------------------------

    def observe(
        self,
        subnet: Prefix,
        asn: int,
        country: str,
        api_enabled: bool,
        cellular_labeled: bool,
    ) -> bool:
        """Fold one event in; returns True when a window just closed."""
        counts = self._window.get(subnet)
        if counts is None:
            counts = SubnetWindowCounts(asn=asn, country=country)
            self._window[subnet] = counts
        counts.observe(api_enabled, cellular_labeled)
        self.window_fill += 1
        if self.window_fill >= self.policy.window_events:
            self.advance()
            return True
        return False

    def advance(self) -> None:
        """Close the open window into the aggregate (decay applies)."""
        if self.on_advance is not None:
            # Observe-before-fold: the monitor sees the closing
            # window's fresh evidence, untouched by decay or history.
            self.on_advance(self.windows_closed + 1, self._window)
        decay = self.policy.decay
        if decay != 1.0:
            for subnet in list(self._aggregate):
                self._aggregate[subnet] = self._aggregate[subnet].scaled(decay)
        for subnet, counts in self._window.items():
            current = self._aggregate.get(subnet)
            if current is None:
                # Copy: the window dict is cleared and reused.
                self._aggregate[subnet] = SubnetWindowCounts(
                    asn=counts.asn,
                    country=counts.country,
                    hits=counts.hits,
                    api_hits=counts.api_hits,
                    cellular_hits=counts.cellular_hits,
                )
            else:
                current.add(counts)
        self._window.clear()
        self.window_fill = 0
        self.windows_closed += 1

    # ---- views -----------------------------------------------------------

    def combined(self) -> Iterator[Tuple[Prefix, SubnetWindowCounts]]:
        """Aggregate plus open window, one summed row per subnet.

        Rows come out in canonical subnet order (family, value,
        length) so downstream tables are deterministic regardless of
        event arrival order.
        """
        merged: Dict[Prefix, SubnetWindowCounts] = {}
        for source in (self._aggregate, self._window):
            for subnet, counts in source.items():
                current = merged.get(subnet)
                if current is None:
                    merged[subnet] = SubnetWindowCounts(
                        asn=counts.asn,
                        country=counts.country,
                        hits=counts.hits,
                        api_hits=counts.api_hits,
                        cellular_hits=counts.cellular_hits,
                    )
                else:
                    current.add(counts)
        for subnet in sorted(
            merged, key=lambda s: (s.family, s.value, s.length)
        ):
            yield subnet, merged[subnet]

    def subnet_count(self) -> int:
        keys = set(self._aggregate)
        keys.update(self._window)
        return len(keys)

    def hits_by_asn(self) -> Dict[int, Count]:
        """Live per-AS hit totals (AS filter rule 2 input)."""
        totals: Dict[int, Count] = {}
        for _subnet, counts in self.combined():
            totals[counts.asn] = totals.get(counts.asn, 0) + counts.hits
        return totals

    # ---- snapshot round-trip ---------------------------------------------

    def to_snapshot(self) -> Dict:
        """JSON-shaped state (exact: ints stay ints under decay=1)."""

        def rows(table: Dict[Prefix, SubnetWindowCounts]) -> List[List]:
            return [
                [s.family, s.value, s.length] + table[s].as_row()
                for s in sorted(
                    table, key=lambda s: (s.family, s.value, s.length)
                )
            ]

        return {
            "policy": {
                "window_events": self.policy.window_events,
                "decay": self.policy.decay,
            },
            "window_fill": self.window_fill,
            "windows_closed": self.windows_closed,
            "window": rows(self._window),
            "aggregate": rows(self._aggregate),
        }

    @classmethod
    def from_snapshot(cls, raw: Dict) -> "WindowedSubnetState":
        policy = WindowPolicy(
            window_events=raw["policy"]["window_events"],
            decay=raw["policy"]["decay"],
        )
        state = cls(policy)
        state.window_fill = raw["window_fill"]
        state.windows_closed = raw["windows_closed"]

        def fill(
            rows: List[List], table: Dict[Prefix, SubnetWindowCounts]
        ) -> None:
            for family, value, length, asn, country, hits, api, cell in rows:
                table[Prefix(family, value, length)] = SubnetWindowCounts(
                    asn=asn, country=country, hits=hits,
                    api_hits=api, cellular_hits=cell,
                )

        fill(raw["window"], state._window)
        fill(raw["aggregate"], state._aggregate)
        return state
