"""One serial, in-process sweep campaign, timed and checked.

:func:`run_campaign` runs a campaign the way ``repro sweep SPEC --serial``
does — :class:`SweepRunner` with a :class:`CampaignStore` journal and a
record sink — and times it: the campaign's wall time is the
``SweepRunner.run`` call, and each point's wall time is the gap between
consecutive progress events (a point's run, its pickle check and its
journal append).  It then checks the campaign's outputs and digests the
report and record files, which are written byte-for-byte as the CLI
writes them, so a digest here can be compared with a ``cmp`` of CLI runs.

The checks never compare against stored digests; a point fails when its
own outputs are inconsistent:

- its record's ``status`` is not ``"ok"``;
- a link direction in its report is not ``conserved``;
- its record-row count differs from its ``measurement_rows_total``;
- the campaign's record sink is not ``conserved`` (this fails every
  point of the campaign).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Set

from repro.obs.export import write_json
from repro.results import records_path
from repro.runner import CampaignStore, SweepRunner, SweepSpec

__all__ = ["CampaignResult", "counter_total", "failed_points", "run_campaign"]


@dataclass
class CampaignResult:
    """What one campaign measured: its timings, check failures and digests."""

    points: int
    failed: int
    wall_s: float
    point_s: List[float]
    report_sha256: str
    records_sha256: str


def counter_total(snapshot: Mapping[str, object], name: str, **labels: str) -> float:
    """Sum one counter of a metrics snapshot, filtered by label values."""
    instrument = snapshot.get("instruments", {}).get(name)
    if instrument is None:
        return 0
    positions = [
        (instrument["labels"].index(label), value) for label, value in labels.items()
    ]
    return sum(
        value for key, value in instrument["values"]
        if all(key[index] == wanted for index, wanted in positions)
    )


def failed_points(report: Mapping[str, object]) -> Set[int]:
    """Grid indexes of the points whose outputs fail a check."""
    bad: Set[int] = set()
    points = report["points"]
    for record in points:
        if record.get("status") != "ok":
            bad.add(record["index"])
            continue
        directions = [
            entry
            for link in record["report"].get("links", {}).values()
            for name, entry in link.items()
            if name != "conserved"
        ]
        if not all(entry["conserved"] for entry in directions):
            bad.add(record["index"])
        elif len(record.get("records", ())) != counter_total(
            record["report"]["metrics"], "measurement_rows_total"
        ):
            bad.add(record["index"])
    if not report["summary"]["records"]["conserved"]:
        bad.update(record["index"] for record in points)
    return bad


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_campaign(
    spec: SweepSpec,
    prefix: str,
    on_record: Optional[Callable[[Mapping[str, object]], None]] = None,
) -> CampaignResult:
    """Run ``spec`` as one journaled campaign writing files at ``prefix``.

    ``on_record`` sees every ``status == "ok"`` point record after the
    timed region.  The campaign's files are removed before returning.
    """
    clock = time.perf_counter
    marks: List[float] = []
    store = CampaignStore(f"{prefix}.journal.jsonl", spec.content_hash())
    runner = SweepRunner(
        spec,
        serial=True,
        store=store,
        record_path=records_path(prefix),
        progress=lambda _event: marks.append(clock()),
    )
    try:
        start = clock()
        report = runner.run()
        wall = clock() - start
    finally:
        store.close()
    point_s = [end - begin for begin, end in zip([start] + marks, marks)]

    bad = failed_points(report)
    if on_record is not None:
        for record in report["points"]:
            if record["index"] not in bad:
                on_record(record)
    report_path = write_json(f"{prefix}.report.json", report)
    result = CampaignResult(
        points=len(report["points"]),
        failed=len(bad),
        wall_s=wall,
        point_s=point_s,
        report_sha256=_sha256(report_path),
        records_sha256=_sha256(records_path(prefix)),
    )
    for path in (report_path, records_path(prefix), store.path):
        os.remove(path)
    return result
