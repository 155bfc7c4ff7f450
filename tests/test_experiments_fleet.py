"""Tests for the work-stealing fleet layer (leases, units, workers, status).

The load-bearing guarantees:

* lease claims and steals are exclusive under races (exactly one winner),
* staleness is clock-skew tolerant and orphans are swept at startup,
* :func:`enumerate_units` enumerates *precisely* the trial artifacts a
  single-process pipeline run writes, per kind,
* a fleet of workers produces byte-identical reports to a single process.
"""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.artifacts import ArtifactStore
from repro.experiments.fleet import (
    FleetSettings,
    FleetStats,
    LeaseManager,
    WORKER_ID_ENV_VAR,
    default_worker_id,
    enumerate_units,
    fleet_status,
    format_fleet_status,
    read_worker_records,
    run_worker,
    work_steal,
    write_worker_record,
)
from repro.experiments.pipeline import load_pipeline_spec, run_pipeline, validate_pipeline_mapping
from repro.utils.specs import SpecError

DIGEST = "a" * 64
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def make_spec(root, kind="trials", *, n_trials=2, extra_experiment=None, extra_tables=None):
    raw = {
        "experiment": {
            "name": f"fleet-{kind}",
            "kind": kind,
            "algorithm": "fosc",
            "scenario": "labels",
            "amounts": [0.1],
            "datasets": ["Iris"],
            "seed": 7,
        },
        "parameters": {"n_trials": n_trials, "n_folds": 3, "minpts_range": [3, 6, 9]},
        "artifacts": {"root": str(root)},
    }
    if kind == "robustness":
        # The robustness kind sweeps every algorithm and owns its oracle.
        del raw["experiment"]["algorithm"]
        raw["oracle"] = {"flip_rates": [0.2]}
    if kind == "ablation":
        del raw["experiment"]["scenario"]
    raw["experiment"].update(extra_experiment or {})
    raw.update(extra_tables or {})
    spec, problems = validate_pipeline_mapping(raw, "inline")
    assert spec is not None, problems
    return spec


def backdate(path, seconds):
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestLeaseManager:
    def test_claim_is_exclusive_and_released(self, tmp_path):
        first = LeaseManager(tmp_path, "w1")
        second = LeaseManager(tmp_path, "w2")
        assert first.claim(DIGEST)
        assert not second.claim(DIGEST)
        assert first.release(DIGEST)
        assert second.claim(DIGEST)

    def test_claim_payload_identifies_the_holder(self, tmp_path):
        manager = LeaseManager(tmp_path, "holder-7")
        manager.claim(DIGEST)
        payload = manager.read_lease(DIGEST)
        assert payload["worker"] == "holder-7"
        assert payload["digest"] == DIGEST
        assert payload["pid"] == os.getpid()

    def test_release_missing_lease_is_false(self, tmp_path):
        assert not LeaseManager(tmp_path, "w").release(DIGEST)

    def test_refresh_rescues_a_stale_lease(self, tmp_path):
        manager = LeaseManager(tmp_path, "w", ttl_s=5.0)
        manager.claim(DIGEST)
        backdate(manager.lease_path(DIGEST), 100)
        assert manager.is_stale(DIGEST)
        assert manager.refresh(DIGEST)
        assert not manager.is_stale(DIGEST)

    def test_refresh_missing_lease_is_false(self, tmp_path):
        assert not LeaseManager(tmp_path, "w").refresh(DIGEST)

    def test_future_mtime_reads_as_just_refreshed(self, tmp_path):
        # Clock skew between machines sharing a store must delay reclaim,
        # never trigger it early or produce negative ages.
        manager = LeaseManager(tmp_path, "w", ttl_s=1.0)
        manager.claim(DIGEST)
        future = time.time() + 300
        os.utime(manager.lease_path(DIGEST), (future, future))
        assert manager.lease_age_s(DIGEST) == 0.0
        assert not manager.is_stale(DIGEST)
        assert not manager.steal(DIGEST)

    def test_steal_requires_staleness(self, tmp_path):
        holder = LeaseManager(tmp_path, "holder", ttl_s=60.0)
        thief = LeaseManager(tmp_path, "thief", ttl_s=60.0)
        holder.claim(DIGEST)
        assert not thief.steal(DIGEST)
        backdate(holder.lease_path(DIGEST), 120)
        assert thief.steal(DIGEST)
        assert thief.read_lease(DIGEST)["worker"] == "thief"

    def test_concurrent_steal_exactly_one_wins(self, tmp_path):
        holder = LeaseManager(tmp_path, "dead-worker", ttl_s=1.0)
        holder.claim(DIGEST)
        backdate(holder.lease_path(DIGEST), 60)

        barrier = threading.Barrier(8)
        outcomes = []
        lock = threading.Lock()

        def contend(index):
            manager = LeaseManager(tmp_path, f"stealer-{index}", ttl_s=1.0)
            barrier.wait()
            won = manager.steal(DIGEST)
            with lock:
                outcomes.append((index, won))

        threads = [threading.Thread(target=contend, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        winners = [index for index, won in outcomes if won]
        assert len(winners) == 1
        payload = holder.read_lease(DIGEST)
        assert payload["worker"] == f"stealer-{winners[0]}"

    def test_sweep_orphans_removes_stale_and_leftovers(self, tmp_path):
        manager = LeaseManager(tmp_path, "sweeper", ttl_s=5.0)
        manager.claim("b" * 64)  # fresh: must survive
        dead = LeaseManager(tmp_path, "dead", ttl_s=5.0)
        dead.claim("c" * 64)
        backdate(dead.lease_path("c" * 64), 100)
        leftover = manager.leases_dir / f"{'d' * 64}.stale-crashed-1234abcd"
        leftover.write_text("{}", encoding="utf-8")

        assert manager.sweep_orphans() == 2
        assert manager.lease_path("b" * 64).exists()
        assert not manager.lease_path("c" * 64).exists()
        assert not leftover.exists()

    def test_sweep_on_missing_dir_is_zero(self, tmp_path):
        assert LeaseManager(tmp_path / "nowhere", "w").sweep_orphans() == 0

    def test_holding_heartbeats_keep_the_lease_fresh(self, tmp_path):
        manager = LeaseManager(tmp_path, "beater", ttl_s=0.4)
        manager.claim(DIGEST)
        with manager.holding(DIGEST):
            backdate(manager.lease_path(DIGEST), 100)
            time.sleep(0.3)  # > heartbeat interval (ttl / 4 = 0.1s)
            assert not manager.is_stale(DIGEST)

    def test_holding_reclaims_a_vanished_lease(self, tmp_path):
        manager = LeaseManager(tmp_path, "beater", ttl_s=0.4)
        manager.claim(DIGEST)
        with manager.holding(DIGEST):
            manager.lease_path(DIGEST).unlink()
            time.sleep(0.3)
            assert manager.lease_path(DIGEST).exists()

    def test_list_leases_reports_age_and_staleness(self, tmp_path):
        manager = LeaseManager(tmp_path, "w", ttl_s=5.0)
        manager.claim("b" * 64)
        manager.claim("c" * 64)
        backdate(manager.lease_path("c" * 64), 100)
        leases = manager.list_leases()
        assert set(leases) == {"b" * 64, "c" * 64}
        assert not leases["b" * 64]["stale"]
        assert leases["c" * 64]["stale"]
        assert leases["c" * 64]["worker"] == "w"


class TestWorkSteal:
    def test_two_workers_partition_the_units(self, tmp_path):
        digests = [f"{i:064d}" for i in range(12)]
        done: set = set()
        lock = threading.Lock()

        def is_done(digest):
            with lock:
                return digest in done

        def compute(digest):
            time.sleep(0.01)
            with lock:
                done.add(digest)

        stats = [FleetStats(), FleetStats()]

        def drive(index):
            manager = LeaseManager(tmp_path, f"w{index}", ttl_s=60.0)
            work_steal(
                digests,
                manager=manager,
                is_done=is_done,
                compute=compute,
                poll_interval_s=0.01,
                stats=stats[index],
            )

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert done == set(digests)
        # Every unit is computed exactly once: leases never expire here.
        assert stats[0].claimed + stats[1].claimed == len(digests)
        assert stats[0].stolen == stats[1].stolen == 0
        assert stats[0].claimed > 0 and stats[1].claimed > 0

    def test_already_done_units_are_skipped(self, tmp_path):
        manager = LeaseManager(tmp_path, "w")
        outcomes = []
        stats = work_steal(
            [DIGEST],
            manager=manager,
            is_done=lambda digest: True,
            compute=lambda digest: pytest.fail("must not compute a done unit"),
            on_unit=lambda digest, outcome: outcomes.append(outcome),
        )
        assert stats.already_done == 1 and stats.completed == 0
        assert outcomes == ["done"]

    def test_done_unit_under_a_fresh_foreign_lease_waits_then_retires_it(self, tmp_path):
        # A worker killed after its trial artifact landed but before it
        # released the lease leaves a done unit under a fresh lease.  The
        # unit stays pending until the lease goes stale, then the orphan
        # lease is retired: no lease survives the loop.
        LeaseManager(tmp_path, "victim", ttl_s=0.3).claim(DIGEST)
        manager = LeaseManager(tmp_path, "survivor", ttl_s=0.3)
        outcomes = []
        stats = work_steal(
            [DIGEST],
            manager=manager,
            is_done=lambda digest: True,
            compute=lambda digest: pytest.fail("must not compute a done unit"),
            poll_interval_s=0.05,
            on_unit=lambda digest, outcome: outcomes.append(outcome),
        )
        assert outcomes == ["done"]
        assert stats.already_done == 1 and stats.completed == 0
        assert stats.waits >= 1
        assert not manager.lease_path(DIGEST).exists()
        assert not list(manager.leases_dir.iterdir())

    def test_done_unit_under_a_stale_lease_retires_it_at_once(self, tmp_path):
        LeaseManager(tmp_path, "victim", ttl_s=5.0).claim(DIGEST)
        manager = LeaseManager(tmp_path, "survivor", ttl_s=5.0)
        backdate(manager.lease_path(DIGEST), 100)
        stats = work_steal(
            [DIGEST], manager=manager, is_done=lambda digest: True,
            compute=lambda digest: pytest.fail("must not compute a done unit"),
        )
        assert stats.already_done == 1 and stats.waits == 0
        assert not manager.lease_path(DIGEST).exists()

    def test_releases_the_lease_even_when_compute_raises(self, tmp_path):
        manager = LeaseManager(tmp_path, "w")

        def explode(digest):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            work_steal([DIGEST], manager=manager, is_done=lambda d: False, compute=explode)
        assert not manager.lease_path(DIGEST).exists()


def unit_spec(root, case):
    """The spec of one enumeration case: ``<kind>``, ``<kind>-cosine`` or ``precomputed``."""
    if case == "precomputed":
        return load_pipeline_spec(EXAMPLES / "precomputed_similarity.toml").with_overrides(
            artifacts_root=root
        )
    kind, _, metric = case.partition("-")
    tables = {"dataset": {"metric": metric}} if metric else None
    return make_spec(root, kind=kind, n_trials=2, extra_tables=tables)


class TestEnumerateUnits:
    # No "robustness-cosine" case: the sweep runs MPCKMeans, so the config
    # validator rejects any non-Euclidean metric for that kind.
    @pytest.mark.parametrize(
        "case",
        [
            "trials", "comparison", "correlation", "robustness",
            "trials-cosine", "comparison-cosine", "correlation-cosine",
            "precomputed",
        ],
    )
    def test_units_match_the_pipeline_store_exactly(self, case, tmp_path):
        # The decisive sync contract: the digests a worker steals over are
        # precisely the trial artifacts a single-process run writes.
        spec = unit_spec(tmp_path / "store", case)
        store = ArtifactStore(spec.artifacts_root)
        run_pipeline(spec, store=store, write_reports=False)
        written = {path.stem for path in (store.root / "trial").glob("*/*.json")}
        enumerated = {unit.digest for unit in enumerate_units(spec)}
        assert enumerated == written
        assert enumerated  # the contract is vacuous on an empty grid

    @pytest.mark.parametrize("kind", ["curves", "ablation"])
    def test_unitless_kinds_enumerate_empty(self, kind, tmp_path):
        spec = make_spec(tmp_path / "store", kind=kind, n_trials=1)
        assert enumerate_units(spec) == []

    def test_units_are_deduplicated(self, tmp_path):
        spec = make_spec(tmp_path / "store", kind="trials")
        units = enumerate_units(spec)
        assert len({unit.digest for unit in units}) == len(units)


class TestEngineKeyPins:
    """Trial-key digests of the quickstart grid under three engines, pinned.

    The digests were computed before the engine fields moved into
    ``ExperimentConfig.execution``; a changed byte here would orphan every
    stored trial of that engine.
    """

    PINS = {
        "quickstart": [
            "1340adf67f6b513796773d8dd4fabc3743faca4ad1ce44e327aa1946817e64f2",
            "d518c821a6a43d8d9ec1f9def2b95f52787a828cf0631279638afa0f60ad3a2c",
        ],
        "cosine": [
            "ce06ca00b12cefc12eb2b388b2ab262c172e2c7279f683e9be71a38fb1769878",
            "90060b3113c26ee7b7b7fe942a87419a99eae71c62a08818fa82103fe37e1800",
        ],
        "neighbors": [
            "614a78614d45cfc070f45a0b4411e6cee129025b126950ede720d3f582eedd6a",
            "f319bf95082f46023b76f86be9a16af455af9087f8a673f5ebe5c248d61d93f9",
        ],
    }
    TABLES = {
        "quickstart": {},
        "cosine": {"dataset": {"metric": "cosine"}},
        "neighbors": {
            "execution": {"backend": "serial", "distance_backend": "neighbors", "epsilon": 2.5}
        },
    }

    @pytest.mark.parametrize("case", sorted(PINS))
    def test_quickstart_trial_keys_are_pinned(self, case):
        mapping = load_pipeline_spec(EXAMPLES / "quickstart.toml").to_spec()
        mapping.update(self.TABLES[case])
        spec, problems = validate_pipeline_mapping(mapping, "inline")
        assert spec is not None, problems
        assert [unit.digest for unit in enumerate_units(spec)] == self.PINS[case]


class TestWorkerRegistry:
    def test_write_then_read_with_liveness(self, tmp_path):
        write_worker_record(tmp_path, "w1", phase="stealing", stats=FleetStats(claimed=3), n_units=9)
        records = read_worker_records(tmp_path, ttl_s=60.0)
        assert len(records) == 1
        record = records[0]
        assert record["worker"] == "w1" and record["phase"] == "stealing"
        assert record["stats"]["claimed"] == 3 and record["n_units"] == 9
        assert record["alive"] and record["age_s"] < 5.0

    def test_silent_mid_run_worker_counts_as_lost(self, tmp_path):
        path = write_worker_record(tmp_path, "w1", phase="stealing", stats=FleetStats(), n_units=4)
        backdate(path, 120)
        assert not read_worker_records(tmp_path, ttl_s=60.0)[0]["alive"]

    def test_done_worker_is_finished_not_dead(self, tmp_path):
        path = write_worker_record(tmp_path, "w1", phase="done", stats=FleetStats(), n_units=4)
        backdate(path, 3600)
        assert read_worker_records(tmp_path, ttl_s=60.0)[0]["alive"]


class TestRunWorker:
    def test_single_worker_matches_single_process_byte_for_byte(self, tmp_path):
        reference_spec = make_spec(tmp_path / "single", kind="trials")
        run_pipeline(reference_spec)
        worker_spec = make_spec(tmp_path / "fleet", kind="trials")
        report = run_worker(worker_spec, worker_id="solo")

        assert report.stats.claimed == report.n_units > 0
        single = (tmp_path / "single" / "reports" / worker_spec.name / "summary.json").read_bytes()
        fleet = (tmp_path / "fleet" / "reports" / worker_spec.name / "summary.json").read_bytes()
        assert fleet == single

    def test_two_workers_share_one_store(self, tmp_path):
        reference_spec = make_spec(tmp_path / "single", kind="trials", n_trials=4)
        run_pipeline(reference_spec)

        shared = tmp_path / "shared"
        reports = [None, None]

        def drive(index):
            spec = make_spec(shared, kind="trials", n_trials=4)
            reports[index] = run_worker(
                spec, store=ArtifactStore(shared), worker_id=f"w{index}"
            )

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        n_units = reports[0].n_units
        assert n_units == 4
        computed = sum(report.stats.completed for report in reports)
        reused = sum(report.stats.already_done for report in reports)
        assert computed + reused == 2 * n_units  # both walked every unit
        assert computed == n_units  # each unit computed exactly once

        single = (tmp_path / "single" / "reports" / reference_spec.name / "summary.json").read_bytes()
        fleet = (shared / "reports" / reference_spec.name / "summary.json").read_bytes()
        assert fleet == single

    def test_resumes_into_pure_cache_hits(self, tmp_path):
        spec = make_spec(tmp_path / "store", kind="trials")
        run_worker(spec, worker_id="first")
        report = run_worker(spec, worker_id="second")
        assert report.stats.completed == 0
        assert report.stats.already_done == report.n_units

    def test_worker_sweeps_orphans_on_startup(self, tmp_path):
        root = tmp_path / "store"
        spec = make_spec(root, kind="trials")
        dead = LeaseManager(root, "dead", ttl_s=1.0)
        dead.claim(DIGEST)
        backdate(dead.lease_path(DIGEST), 60)
        report = run_worker(spec, worker_id="survivor")
        assert report.swept == 1
        assert not dead.lease_path(DIGEST).exists()


class TestFleetStatus:
    def test_status_counts_after_a_run(self, tmp_path):
        spec = make_spec(tmp_path / "store", kind="trials")
        run_worker(spec, worker_id="w1")
        status = fleet_status(spec)
        assert status.kind == "trials"
        assert status.total_units == status.done > 0
        assert status.remaining == 0
        assert status.trial_artifacts >= status.done
        assert [record["worker"] for record in status.workers] == ["w1"]
        assert status.as_dict()["done"] == status.done

    @pytest.mark.parametrize("case", ["trials-cosine", "comparison-cosine", "precomputed"])
    def test_every_unit_is_done_after_a_plain_run(self, case, tmp_path):
        # Units and artifacts must agree under a [dataset] table too: a
        # complete single-process run leaves nothing for a fleet to do.
        spec = unit_spec(tmp_path / "store", case)
        run_pipeline(spec, write_reports=False)
        status = fleet_status(spec)
        assert status.total_units == status.done == status.trial_artifacts == 2

    def test_format_renders_workers_and_progress(self, tmp_path):
        spec = make_spec(tmp_path / "store", kind="trials")
        run_worker(spec, worker_id="w1")
        text = format_fleet_status(fleet_status(spec))
        assert "100%" in text and "worker w1" in text and "alive" in text

    def test_format_on_an_empty_store(self, tmp_path):
        spec = make_spec(tmp_path / "store", kind="trials")
        text = format_fleet_status(fleet_status(spec))
        assert "0/2 done" in text and "workers: none registered" in text

    def test_unitless_kind_is_explained(self, tmp_path):
        spec = make_spec(tmp_path / "store", kind="curves", n_trials=1)
        text = format_fleet_status(fleet_status(spec))
        assert "no stealable trial units" in text


class TestFleetSettings:
    def test_with_overrides_ignores_none(self):
        settings = FleetSettings(lease_ttl_s=10.0, poll_interval_s=0.2)
        assert settings.with_overrides(lease_ttl_s=None, poll_interval_s=None) == settings
        assert settings.with_overrides(lease_ttl_s=3.0).lease_ttl_s == 3.0

    @pytest.mark.parametrize("value", [-1.0, 0, float("nan"), float("inf"), True, "60"])
    def test_every_construction_checks_the_durations(self, value):
        line = f"fleet.lease_ttl_s: must be a positive number of seconds, got {value!r}"
        for build in (
            lambda: FleetSettings(lease_ttl_s=value),
            lambda: FleetSettings().with_overrides(lease_ttl_s=value),
            lambda: FleetSettings.from_spec({"lease_ttl_s": value}),
        ):
            with pytest.raises(SpecError) as excinfo:
                build()
            assert excinfo.value.source == "fleet"
            assert excinfo.value.problems == [line]

    def test_durations_are_coerced_to_float(self):
        settings = FleetSettings(lease_ttl_s=30, poll_interval_s=1)
        assert settings.to_spec() == {"lease_ttl_s": 30.0, "poll_interval_s": 1.0}
        assert all(isinstance(value, float) for value in settings.to_spec().values())

    def test_default_worker_id_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKER_ID_ENV_VAR, "pinned-identity")
        assert default_worker_id() == "pinned-identity"
        monkeypatch.delenv(WORKER_ID_ENV_VAR)
        generated = default_worker_id()
        assert str(os.getpid()) in generated


class TestFleetConfigTable:
    def test_fleet_table_configures_the_spec(self, tmp_path):
        spec = make_spec(
            tmp_path, extra_tables={"fleet": {"lease_ttl_s": 12.5, "poll_interval_s": 0.25}}
        )
        assert spec.fleet == FleetSettings(lease_ttl_s=12.5, poll_interval_s=0.25)

    def test_fleet_table_defaults(self, tmp_path):
        assert make_spec(tmp_path).fleet == FleetSettings()

    def test_unknown_and_invalid_fleet_keys_are_problems(self, tmp_path):
        raw = {
            "experiment": {
                "name": "x",
                "kind": "trials",
                "algorithm": "fosc",
                "scenario": "labels",
                "amounts": [0.1],
                "datasets": ["Iris"],
                "seed": 1,
            },
            "fleet": {"lease_ttl_s": 0, "poll_interval_s": True, "cadence": 3},
        }
        spec, problems = validate_pipeline_mapping(raw, "inline")
        text = "\n".join(problems)
        assert spec is None
        assert "fleet.lease_ttl_s" in text
        assert "fleet.poll_interval_s" in text
        assert "fleet.cadence: unknown key" in text

    def test_worker_record_survives_json_roundtrip(self, tmp_path):
        path = write_worker_record(
            tmp_path,
            "w1",
            phase="done",
            stats=FleetStats(claimed=1, stolen=2, already_done=3, waits=4),
            n_units=6,
            store_stats={"hits": 5, "misses": 1, "writes": 2},
        )
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["stats"] == {
            "claimed": 1,
            "stolen": 2,
            "completed": 3,
            "already_done": 3,
            "waits": 4,
        }
        assert payload["store"]["hits"] == 5
