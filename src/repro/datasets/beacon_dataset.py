"""The BEACON dataset: per-subnet Network Information API label counts.

Aggregates RUM beacon hits by /24 (IPv4) and /48 (IPv6) subnet, exactly
the granularity at which section 4 computes cellular ratios.  The
dataset also keeps global per-browser API counters, which is all
Figure 1 needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.net.prefix import Prefix
from repro.world.population import Browser


@dataclass
class SubnetBeaconCounts:
    """Label counts for one subnet.

    ``hits`` counts all beacon hits, ``api_hits`` the subset carrying
    Network Information API data, and ``cellular_hits`` the API hits
    whose ConnectionType was cellular.
    """

    subnet: Prefix
    asn: int
    country: str
    hits: int = 0
    api_hits: int = 0
    cellular_hits: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not 0 <= self.cellular_hits <= self.api_hits <= self.hits:
            raise ValueError(
                f"{self.subnet}: need 0 <= cellular <= api <= hits, got "
                f"{self.cellular_hits}/{self.api_hits}/{self.hits}"
            )

    @property
    def noncellular_hits(self) -> int:
        """API hits with a non-cellular ConnectionType."""
        return self.api_hits - self.cellular_hits

    @property
    def cellular_ratio(self) -> Optional[float]:
        """Fraction of API hits labeled cellular; None without API data.

        This is the paper's core quantity (section 4.1).
        """
        if self.api_hits == 0:
            return None
        return self.cellular_hits / self.api_hits

    def to_json(self) -> str:
        return json.dumps(
            {
                "subnet": str(self.subnet),
                "asn": self.asn,
                "country": self.country,
                "hits": self.hits,
                "api": self.api_hits,
                "cell": self.cellular_hits,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "SubnetBeaconCounts":
        raw = json.loads(line)
        return cls(
            subnet=Prefix.parse(raw["subnet"]),
            asn=raw["asn"],
            country=raw["country"],
            hits=raw["hits"],
            api_hits=raw["api"],
            cellular_hits=raw["cell"],
        )


class BeaconDataset:
    """All BEACON observations for one collection month."""

    def __init__(self, month: str) -> None:
        self.month = month
        self._by_subnet: Dict[Prefix, SubnetBeaconCounts] = {}
        #: Global (hits, api_hits) per browser, for Figure 1.
        self.browser_counts: Dict[Browser, Tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._by_subnet)

    def __contains__(self, subnet: Prefix) -> bool:
        return subnet in self._by_subnet

    def __iter__(self) -> Iterator[SubnetBeaconCounts]:
        return iter(self._by_subnet.values())

    def get(self, subnet: Prefix) -> Optional[SubnetBeaconCounts]:
        return self._by_subnet.get(subnet)

    def add_counts(self, counts: SubnetBeaconCounts) -> None:
        """Add (or merge) a subnet's counts."""
        counts.validate()
        existing = self._by_subnet.get(counts.subnet)
        if existing is None:
            self._by_subnet[counts.subnet] = counts
            return
        if (existing.asn, existing.country) != (counts.asn, counts.country):
            raise ValueError(f"conflicting metadata for {counts.subnet}")
        existing.hits += counts.hits
        existing.api_hits += counts.api_hits
        existing.cellular_hits += counts.cellular_hits

    def observe_hit(
        self,
        subnet: Prefix,
        asn: int,
        country: str,
        browser: Browser,
        api_enabled: bool,
        cellular_labeled: bool,
    ) -> None:
        """Accumulate one beacon hit."""
        counts = self._by_subnet.get(subnet)
        if counts is None:
            counts = SubnetBeaconCounts(subnet, asn, country)
            self._by_subnet[subnet] = counts
        counts.hits += 1
        if api_enabled:
            counts.api_hits += 1
            if cellular_labeled:
                counts.cellular_hits += 1
        elif cellular_labeled:
            raise ValueError("cellular label without API data")
        hits, api = self.browser_counts.get(browser, (0, 0))
        self.browser_counts[browser] = (hits + 1, api + (1 if api_enabled else 0))

    def observe_browser_batch(
        self, browser: Browser, hits: int, api_hits: int
    ) -> None:
        """Accumulate aggregated per-browser counters (fast path)."""
        if not 0 <= api_hits <= hits:
            raise ValueError("need 0 <= api_hits <= hits")
        prev_hits, prev_api = self.browser_counts.get(browser, (0, 0))
        self.browser_counts[browser] = (prev_hits + hits, prev_api + api_hits)

    #: Hits folded per columnar batch by :meth:`from_hits`.
    INGEST_BATCH_ROWS = 65536

    @classmethod
    def from_hits(
        cls, month: str, hits, batch_rows: Optional[int] = None
    ) -> "BeaconDataset":
        """Aggregate an iterable of :class:`~repro.cdn.logs.BeaconHit`.

        The ingestion path a real deployment uses: raw per-page-load
        records stream in (e.g. via ``repro.cdn.logs.read_jsonl``) and
        fold into per-subnet counts without ever being held in memory.
        Hits from other months are rejected -- the BEACON dataset is a
        monthly collection.

        Hits are folded one bounded record batch at a time through the
        columnar group-accumulate kernel (:mod:`repro.columnar`) in
        first-seen order, so the resulting dataset is identical --
        iteration order, metadata, browser counters -- to folding each
        hit through :meth:`observe_hit` (the row-wise reference).
        """
        from repro.cdn.logs import iter_batched
        from repro.columnar import kernels_np as kernels
        from repro.columnar import ops as columnar_ops
        from repro.columnar.batch import BeaconBatch

        dataset = cls(month=month)
        by_subnet = dataset._by_subnet
        browser_ids: Dict[Browser, int] = {}
        browsers_seen: List[Browser] = []
        mask64 = (1 << 64) - 1
        batch_rows = batch_rows or cls.INGEST_BATCH_ROWS
        for chunk in iter_batched(hits, batch_rows):
            family: List[int] = []
            value_hi: List[int] = []
            value_lo: List[int] = []
            length: List[int] = []
            asn: List[int] = []
            country: List[str] = []
            api: List[int] = []
            cell: List[int] = []
            browser_id: List[int] = []
            subnets: List[Prefix] = []
            for hit in chunk:
                if hit.month != month:
                    raise ValueError(
                        f"hit from {hit.month} in a {month} collection"
                    )
                api_enabled = hit.api_enabled
                cellular = hit.is_cellular_labeled
                if cellular and not api_enabled:
                    raise ValueError("cellular label without API data")
                subnet = hit.subnet
                subnets.append(subnet)
                family.append(subnet.family)
                value_hi.append(subnet.value >> 64)
                value_lo.append(subnet.value & mask64)
                length.append(subnet.length)
                asn.append(hit.asn)
                country.append(hit.country)
                api.append(1 if api_enabled else 0)
                cell.append(1 if cellular else 0)
                ident = browser_ids.get(hit.browser)
                if ident is None:
                    ident = browser_ids[hit.browser] = len(browsers_seen)
                    browsers_seen.append(hit.browser)
                browser_id.append(ident)
            n = len(subnets)
            batch = BeaconBatch(
                idx=kernels.index_col(range(n)),
                family=kernels.index_col(family),
                value_hi=kernels.u64_col(value_hi),
                value_lo=kernels.u64_col(value_lo),
                length=kernels.index_col(length),
                asn=kernels.int_col(asn),
                country=country,
                hits=kernels.int_col([1] * n),
                api=kernels.int_col(api),
                cell=kernels.int_col(cell),
            )
            grouped = columnar_ops.group_accumulate_beacons(
                batch, order="first_seen"
            )
            for (
                idx, _family, _value, _length, group_asn, group_country,
                group_hits, group_api, group_cell,
            ) in grouped.to_rows():
                # idx is the group's first chunk row: reuse its Prefix
                # and keep first-seen metadata, like observe_hit.
                subnet = subnets[idx]
                counts = by_subnet.get(subnet)
                if counts is None:
                    by_subnet[subnet] = SubnetBeaconCounts(
                        subnet, group_asn, group_country,
                        group_hits, group_api, group_cell,
                    )
                else:
                    counts.hits += group_hits
                    counts.api_hits += group_api
                    counts.cellular_hits += group_cell
            # Per-browser (hits, api) totals via the same grouping
            # kernels; intern ids ascend in first-seen order, which is
            # exactly observe_hit's browser_counts insertion order.
            id_col = kernels.index_col(browser_id)
            perm = kernels.lex_argsort([id_col])
            starts = kernels.group_bounds([id_col], perm)
            uniq = kernels.segment_first(id_col, perm, starts)
            hit_sums = kernels.segment_sum_int(
                kernels.int_col([1] * n), perm, starts
            )
            api_sums = kernels.segment_sum_int(
                kernels.int_col(api), perm, starts
            )
            for ident, browser_hits, browser_api in zip(
                uniq, hit_sums, api_sums
            ):
                dataset.observe_browser_batch(
                    browsers_seen[int(ident)], int(browser_hits),
                    int(browser_api),
                )
        return dataset

    @classmethod
    def merge(cls, datasets: Iterable["BeaconDataset"]) -> "BeaconDataset":
        """Reduce per-shard datasets into one (associative + commutative).

        Subnets present in several shards have their counts summed via
        :meth:`add_counts`; browser counters add.  The merged dataset
        is in canonical subnet order, so any grouping or ordering of
        the same shards reduces to the identical dataset.  All inputs
        must cover the same collection month.
        """
        parts = list(datasets)
        if not parts:
            raise ValueError("nothing to merge")
        months = {part.month for part in parts}
        if len(months) > 1:
            raise ValueError(f"cannot merge across months: {sorted(months)}")
        merged = cls(month=parts[0].month)
        for part in parts:
            for browser, (hits, api) in part.browser_counts.items():
                merged.observe_browser_batch(browser, hits, api)
            for counts in part:
                merged.add_counts(
                    SubnetBeaconCounts(
                        subnet=counts.subnet,
                        asn=counts.asn,
                        country=counts.country,
                        hits=counts.hits,
                        api_hits=counts.api_hits,
                        cellular_hits=counts.cellular_hits,
                    )
                )
        merged._by_subnet = {
            counts.subnet: counts
            for counts in sorted(
                merged._by_subnet.values(),
                key=lambda c: (c.subnet.family, c.subnet.value, c.subnet.length),
            )
        }
        merged.browser_counts = dict(
            sorted(merged.browser_counts.items(), key=lambda kv: kv[0].value)
        )
        return merged

    # ---- aggregate views -------------------------------------------------

    def subnets(self, family: Optional[int] = None) -> List[SubnetBeaconCounts]:
        """Subnets with any hits, optionally filtered by family."""
        if family is None:
            return list(self._by_subnet.values())
        return [
            counts
            for counts in self._by_subnet.values()
            if counts.subnet.family == family
        ]

    @property
    def total_hits(self) -> int:
        return sum(counts.hits for counts in self._by_subnet.values())

    @property
    def total_api_hits(self) -> int:
        return sum(counts.api_hits for counts in self._by_subnet.values())

    def hits_by_asn(self) -> Dict[int, int]:
        """Total beacon hits per ASN (AS filtering rule 2 input)."""
        totals: Dict[int, int] = {}
        for counts in self._by_subnet.values():
            totals[counts.asn] = totals.get(counts.asn, 0) + counts.hits
        return totals

    def api_share(self) -> float:
        """Fraction of hits with functional API data (Figure 1 total)."""
        hits = self.total_hits
        return self.total_api_hits / hits if hits else 0.0

    # ---- persistence -----------------------------------------------------

    def dump(self, stream: IO[str]) -> int:
        """Write the dataset as JSONL (header line + one line per subnet)."""
        header = {
            "month": self.month,
            "browsers": {
                browser.value: list(counts)
                for browser, counts in self.browser_counts.items()
            },
        }
        stream.write(json.dumps(header, separators=(",", ":")))
        stream.write("\n")
        count = 0
        for counts in self._by_subnet.values():
            stream.write(counts.to_json())
            stream.write("\n")
            count += 1
        return count

    @classmethod
    def load(
        cls, stream: IO[str], policy: Optional["IngestPolicy"] = None
    ) -> "BeaconDataset":
        """Read a dataset back from :meth:`dump` output.

        ``policy`` (:class:`repro.runtime.policies.IngestPolicy`)
        governs malformed record lines: the default strict policy
        raises :class:`~repro.runtime.policies.IngestFault` with line
        number and field context; ``skip`` / ``quarantine`` policies
        drop (and optionally sidecar) bad lines, subject to the
        policy's error budget.  A missing or malformed header is
        always fatal -- there is no dataset without one.
        """
        from repro.runtime.policies import IngestPolicy, line_error

        if policy is None:
            policy = IngestPolicy.strict()
        header_line = stream.readline()
        if not header_line.strip():
            raise ValueError("missing BEACON header line")
        try:
            header = json.loads(header_line)
            dataset = cls(month=header["month"])
            for name, (hits, api) in header.get("browsers", {}).items():
                dataset.browser_counts[Browser(name)] = (hits, api)
        except Exception as exc:
            raise ValueError(
                f"line 1: BeaconDataset header: {exc}"
            ) from exc
        for line_no, line in enumerate(stream, start=2):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                dataset.add_counts(SubnetBeaconCounts.from_json(stripped))
            except Exception as exc:  # noqa: BLE001 -- policy classifies
                policy.reject(
                    line_error(line_no, "SubnetBeaconCounts", stripped, exc),
                    line,
                )
                continue
            policy.accept()
        policy.finish()
        return dataset
