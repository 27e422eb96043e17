"""Restart cost and journal footprint of the serving layer.

The segmented journal's contract (ISSUE acceptance): after ``N``
batches with ``checkpoint_interval=c``, the data directory holds at
most the active segment plus segments newer than the checkpoint
watermark -- bounded by ``c`` batches, *independent of N* -- and
:meth:`CoreService.open` replays only that post-watermark tail.  This
benchmark drives one service through a short update phase and one
through a 3.4x longer phase, then measures what unbounded-journal
designs get wrong:

* **journal directory size** (events retained on disk, live segments,
  bytes) after the final batch;
* **restart latency** of ``CoreService.open`` and the number of events
  it replayed through the maintenance path.

Assertions encode the compaction invariant:

* everything the checkpoint watermark covers is gone from disk, so the
  retained tail is bounded by ``checkpoint_interval`` batches;
* both phases retain *exactly the same* number of events and replay
  exactly the same tail on restart, although one applied 3.4x the
  batches -- the footprint and the replay prefix do not grow with N.

Rows land in ``BENCH_RESULTS.json`` through the shared results sink
(raw metrics under ``_``-prefixed keys), and ``repro report`` digests
them under the table.
"""

import json
import os
import shutil
import tempfile
import time

from repro.core.engines import engine_names
from repro.service import CoreService, EventJournal
from repro.service.workload import generate_updates, in_batches

from benchmarks.conftest import load_bench_dataset, once

DATASET = "lj"
CHECKPOINT_INTERVAL = 4
SEGMENT_EVENTS = 64
BATCH_SIZE = 16
UPDATE_SEED = 29

#: Batches applied before the restart: a short run and a 3.4x longer
#: one.  Neither is a multiple of the checkpoint interval, so both
#: finish with the same non-trivial uncovered tail -- the quantity the
#: invariant says is independent of N.
PHASES = (10, 34)

ENGINES = engine_names()


def _run_phase(engine, num_batches):
    """Seed, stream updates, kill, reopen; return the measurements."""
    workdir = tempfile.mkdtemp(prefix="bench_restart_")
    data_dir = os.path.join(workdir, "svc")
    try:
        storage = load_bench_dataset(DATASET)
        service = CoreService.from_storage(
            storage, engine=engine, data_dir=data_dir,
            checkpoint_interval=CHECKPOINT_INTERVAL,
            segment_events=SEGMENT_EVENTS)
        updates = generate_updates(list(service.graph.edges()),
                                   service.num_nodes,
                                   num_batches * BATCH_SIZE,
                                   seed=UPDATE_SEED)
        for events in in_batches(updates, BATCH_SIZE):
            service.apply(events)
        jstats = service.journal.stats()
        service.close()
        storage.close()

        with open(os.path.join(data_dir, "manifest.json"),
                  encoding="ascii") as handle:
            manifest = json.load(handle)
        watermark = manifest["events_applied"]

        # The compaction invariant: nothing the checkpoint covers is
        # still on disk, so the retained tail is bounded by the
        # checkpoint interval -- however many batches ran.
        assert jstats["first_retained_event"] == watermark, \
            "sealed-and-covered segments survived compaction"
        assert jstats["retained_events"] \
            <= CHECKPOINT_INTERVAL * BATCH_SIZE
        with EventJournal(data_dir) as journal:
            for segment in journal.segments()[:-1]:
                assert segment["base_events"] + segment["events"] \
                    > watermark, "segment %s is fully covered" % segment

        restart_storage = load_bench_dataset(DATASET)
        started = time.perf_counter()
        resumed = CoreService.open(data_dir, restart_storage,
                                   engine=engine)
        restart_seconds = time.perf_counter() - started
        assert resumed.epoch == num_batches
        events_replayed = resumed.events_applied - watermark
        assert events_replayed == jstats["retained_events"], \
            "open() replayed more than the post-watermark tail"
        resumed.close()
        restart_storage.close()
        return {
            "batches": num_batches,
            "events_total": num_batches * BATCH_SIZE,
            "watermark": watermark,
            "retained_events": jstats["retained_events"],
            "segments": jstats["segments"],
            "journal_bytes": jstats["disk_bytes"],
            "restart_seconds": restart_seconds,
            "events_replayed": events_replayed,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_service_restart(benchmark, results):
    outcome = {}

    def run():
        for engine in ENGINES:
            outcome[engine] = [_run_phase(engine, num_batches)
                               for num_batches in PHASES]

    once(benchmark, run)

    for engine in ENGINES:
        for phase in outcome[engine]:
            results.add(
                "Service restart (%s)" % DATASET,
                engine=engine,
                batches=phase["batches"],
                events=phase["events_total"],
                retained=phase["retained_events"],
                segments=phase["segments"],
                journal_kb="%.1f" % (phase["journal_bytes"] / 1024.0),
                replayed=phase["events_replayed"],
                restart_ms="%.1f" % (1e3 * phase["restart_seconds"]),
                _events_applied=phase["events_total"],
                _retained_events=phase["retained_events"],
                _journal_segments=phase["segments"],
                _journal_disk_bytes=phase["journal_bytes"],
                _events_replayed=phase["events_replayed"],
                _restart_seconds=phase["restart_seconds"],
            )
        shorter, longer = outcome[engine]
        # The bounded-footprint claim: 3.4x the batches, identical
        # journal tail and identical replay work on restart.
        assert longer["retained_events"] == shorter["retained_events"], \
            "journal footprint grew with N under %s" % engine
        assert longer["events_replayed"] == shorter["events_replayed"], \
            "restart replay grew with N under %s" % engine
        assert longer["segments"] <= CHECKPOINT_INTERVAL + 1
