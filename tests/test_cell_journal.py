"""Tests for the per-scope cell journal of the artifact store.

An in-flight trial (or online replay step) appends each finished cell as
one JSON line to ``<root>/journal/<digest[:2]>/<digest>.jsonl``.  The
guarantees checked here:

* a torn tail, or a torn fragment a later append was glued onto, only
  costs the cells on the damaged line: the resumed trial equals a plain run;
* a journal filed under another scope's path serves nothing;
* concurrent appenders lose no line, and duplicate cells are harmless;
* a landed (or cached) trial or step removes its journal;
* the ``cell`` hit/miss/write accounting equals what the former per-file
  ``cell`` artifacts produced for the same interrupted runs;
* ``cell/`` files of older stores are never read.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.core.cvcp as cvcp_module
import repro.experiments.runner as runner_module
from repro.clustering.hierarchy import clear_structure_cache
from repro.datasets import make_blobs
from repro.experiments import ExperimentConfig, run_trial, trial_artifact_key
from repro.experiments.artifacts import SCHEMA_VERSION, ArtifactStore
from repro.experiments.online import StreamSpec, replay_constraint_stream
from repro.utils.cache import clear_distance_cache

TINY = ExperimentConfig(
    n_trials=2,
    n_folds=3,
    n_aloi_datasets=1,
    minpts_range=(3, 6, 9),
    mpck_n_init=1,
    mpck_max_iter=8,
    max_k=5,
    datasets=("Iris",),
    seed=0,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def dataset():
    return make_blobs([25, 25, 25], 3, center_spread=8.0, random_state=0, name="store-test")


def interrupt_at(monkeypatch, module, name, call):
    """Make ``module.name`` raise ``KeyboardInterrupt`` on its ``call``-th call."""
    original = getattr(module, name)
    calls = {"count": 0}

    def interrupting(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] == call:
            raise KeyboardInterrupt
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, interrupting)
    return lambda: monkeypatch.setattr(module, name, original)


def interrupted_trial(monkeypatch, store, dataset, *, seed=7, call=5):
    """Run a fosc/labels trial killed inside its CVCP grid, ``call - 1`` cells in."""
    restore = interrupt_at(monkeypatch, cvcp_module, "score_partition", call)
    with pytest.raises(KeyboardInterrupt):
        run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=seed, store=store)
    restore()
    return store.journal(trial_artifact_key(TINY, dataset, "fosc", "labels", 0.1, seed))


def counts(store):
    stats = store.stats_for("cell")
    return stats.hits, stats.misses, stats.writes


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(
        [sys.executable, "-c", script, *map(str, args)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def start_together(processes, tmp_path):
    """Release processes that wait on ``<tmp>/go`` once all wrote their ready file."""
    deadline = time.monotonic() + 120.0
    while len(list(tmp_path.glob("ready-*"))) < len(processes):
        assert all(process.poll() is None for process in processes), [
            process.communicate()[1] for process in processes if process.poll() is not None
        ]
        assert time.monotonic() < deadline, "workers never became ready"
        time.sleep(0.01)
    (tmp_path / "go").touch()
    outputs = []
    for process in processes:
        out, err = process.communicate(timeout=300)
        assert process.returncode == 0, err
        outputs.append(out)
    return outputs


BARRIER = """
import sys, time
from pathlib import Path
barrier = Path(sys.argv[1])
(barrier / f"ready-{sys.argv[2]}").touch()
while not (barrier / "go").exists():
    time.sleep(0.001)
"""


class TestTornJournal:
    def test_torn_last_line_is_recomputed(self, tmp_path, dataset, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        journal = interrupted_trial(monkeypatch, store, dataset)
        data = journal.path.read_bytes()
        journal.path.write_bytes(data[:-10])  # cut into the last line
        assert store.count("cell") == 3
        store.reset_stats()
        resumed = run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7, store=store)
        assert store.stats_for("cell").hits == 3
        assert resumed == run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7)
        assert not journal.path.exists()

    def test_torn_fragment_glued_to_a_later_append_is_skipped(self, tmp_path, dataset, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        journal = interrupted_trial(monkeypatch, store, dataset)
        lines = journal.path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 4
        # A writer died mid-line; the next append landed right after it.
        journal.path.write_bytes(lines[0] + lines[1] + lines[2][:25] + lines[3])
        assert store.count("cell") == 2
        store.reset_stats()
        resumed = run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7, store=store)
        assert store.stats_for("cell").hits == 2
        assert resumed == run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7)

    def test_lines_lacking_fields_or_of_wrong_type_are_skipped(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        journal = store.journal({"scope": 1})
        journal.put("grid", 0, 0, 0.25)
        good = json.loads(journal.path.read_text(encoding="utf-8"))
        bad = [
            {key: value for key, value in good.items() if key != "payload"},
            dict(good, phase="other", fold=1),
            dict(good, value_index="1"),
            dict(good, fold=[1]),
            [1, 2, 3],
            "text",
        ]
        with journal.path.open("a", encoding="utf-8") as handle:
            for record in bad:
                handle.write(json.dumps(record) + "\n")
            handle.write("\n\xff{not json\n")
        assert store.count("cell") == 1
        assert store.journal({"scope": 1}).get("grid", 0, 0) == 0.25

    def test_first_copy_of_a_cell_wins(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        journal = store.journal({"scope": 1})
        journal.put("grid", 1, 2, 0.25)
        journal.put("grid", 1, 2, 0.5)
        journal.put("external", 1, None, {"external": 0.5, "silhouette": 0.1})
        assert store.count("cell") == 2
        fresh = store.journal({"scope": 1})
        assert fresh.get("grid", 1, 2) == 0.25
        assert fresh.get("external", 1) == {"external": 0.5, "silhouette": 0.1}
        assert fresh.get("grid", 1, 0) is None
        stats = store.stats_for("cell")
        assert (stats.hits, stats.misses, stats.writes) == (2, 1, 3)


class TestScopes:
    def test_journal_under_another_scopes_path_only_misses(self, tmp_path, dataset, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        journal = interrupted_trial(monkeypatch, store, dataset, seed=7)
        other = store.journal(trial_artifact_key(TINY, dataset, "fosc", "labels", 0.1, 8))
        other.path.parent.mkdir(parents=True, exist_ok=True)
        other.path.write_bytes(journal.path.read_bytes())
        assert store.count("cell") == 4  # only the journal under its own digest
        store.reset_stats()
        resumed = run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=8, store=store)
        assert store.stats_for("cell").hits == 0
        assert resumed == run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=8)

    def test_duplicate_cells_take_the_first_copy(self, tmp_path, dataset, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        journal = interrupted_trial(monkeypatch, store, dataset)
        data = journal.path.read_bytes()
        journal.path.write_bytes(data + data)
        assert store.count("cell") == 4
        store.reset_stats()
        resumed = run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7, store=store)
        assert store.stats_for("cell").hits == 4
        assert resumed == run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7)

    def test_legacy_cell_files_are_never_read(self, tmp_path, dataset):
        store = ArtifactStore(tmp_path / "store")
        key = trial_artifact_key(TINY, dataset, "fosc", "labels", 0.1, 7)
        legacy = dict(key, phase="grid", value_index=0, fold=0)
        store.put("cell", legacy, 0.123)  # the old per-file layout
        store.reset_stats()
        result = run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7, store=store)
        assert store.stats_for("cell").hits == 0
        assert result == run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7)
        assert store.count("cell") == 0
        assert store.count() == 1 + store.count("structure")  # the trial and its structures

    def test_refresh_trial_interrupted_in_its_external_fits_keeps_its_grid(
        self, tmp_path, dataset, monkeypatch
    ):
        root = tmp_path / "store"
        restore = interrupt_at(monkeypatch, runner_module, "silhouette_score", 1)
        with pytest.raises(KeyboardInterrupt):
            run_trial(
                dataset, "fosc", "labels", 0.1, config=TINY, random_state=7,
                store=ArtifactStore(root, refresh=True),
            )
        restore()
        store = ArtifactStore(root)
        # The 3 values × 3 folds the grid journalled survive the external
        # fits: the trial shares the grid's journal object, so the refresh
        # discards the old journal once, before the grid.
        assert store.count("cell") == 9
        resumed = run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7, store=store)
        assert counts(store) == (9, 3, 3)
        assert resumed == run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7)

    def test_refresh_discards_the_old_journal(self, tmp_path):
        root = tmp_path / "store"
        ArtifactStore(root).journal({"scope": 1}).put("grid", 0, 0, 0.5)
        refreshing = ArtifactStore(root, refresh=True)
        journal = refreshing.journal({"scope": 1})
        assert journal.get("grid", 0, 0) is None
        journal.put("grid", 0, 0, 0.75)
        assert ArtifactStore(root).journal({"scope": 1}).get("grid", 0, 0) == 0.75


class TestConcurrentAppenders:
    APPEND = BARRIER + """
from repro.experiments.artifacts import ArtifactStore
journal = ArtifactStore(sys.argv[3]).journal({"scope": "race"})
for fold in range(int(sys.argv[4])):
    journal.put("grid", int(sys.argv[2]), fold, fold / 7)
"""

    RUN_TRIAL = BARRIER + """
import json
from repro.datasets import make_blobs
from repro.experiments import ExperimentConfig, run_trial
from repro.experiments.artifacts import ArtifactStore
config = ExperimentConfig(**json.loads(sys.argv[4]))
dataset = make_blobs([25, 25, 25], 3, center_spread=8.0, random_state=0, name="store-test")
result = run_trial(dataset, "fosc", "labels", 0.1, config=config, random_state=7,
                   store=ArtifactStore(sys.argv[3]))
print(json.dumps(result.to_dict(), sort_keys=True))
"""

    def test_concurrent_processes_lose_no_line(self, tmp_path):
        # More appenders than the two cores CI runners have.
        root = tmp_path / "store"
        n_writers, n_lines = 3, 2000
        processes = [
            run_script(self.APPEND, tmp_path, index, root, n_lines) for index in range(n_writers)
        ]
        start_together(processes, tmp_path)
        store = ArtifactStore(root)
        journal = store.journal({"scope": "race"})
        assert len(journal.path.read_bytes().splitlines()) == n_writers * n_lines
        assert store.count("cell") == n_writers * n_lines
        assert all(
            journal.get("grid", index, fold) == fold / 7
            for index in range(n_writers)
            for fold in range(n_lines)
        )

    def test_two_processes_on_one_trial_yield_the_same_trial(self, tmp_path, dataset):
        root = tmp_path / "store"
        config = json.dumps(
            {
                "n_trials": 2, "n_folds": 3, "n_aloi_datasets": 1, "minpts_range": [3, 6, 9],
                "mpck_n_init": 1, "mpck_max_iter": 8, "max_k": 5, "datasets": ["Iris"], "seed": 0,
            }
        )
        processes = [run_script(self.RUN_TRIAL, tmp_path, index, root, config) for index in range(2)]
        outputs = start_together(processes, tmp_path)
        plain = run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7)
        expected = json.loads(json.dumps(plain.to_dict(), sort_keys=True))
        assert [json.loads(out) for out in outputs] == [expected, expected]
        store = ArtifactStore(root)
        key = trial_artifact_key(TINY, dataset, "fosc", "labels", 0.1, 7)
        assert store.get("trial", key) == expected
        assert store.count("cell") == 0


class TestRemoval:
    def test_online_step_hit_removes_a_leftover_journal(self, tmp_path, dataset, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        step_keys = []
        put = store.put

        def recording_put(kind, key, payload):
            if kind == "online":
                step_keys.append(key)
            return put(kind, key, payload)

        monkeypatch.setattr(store, "put", recording_put)
        stream = StreamSpec(n_deltas=2)
        replay_constraint_stream(
            dataset, 0.1, config=TINY, stream=stream, random_state=TINY.seed, store=store
        )
        assert len(step_keys) == 2 and store.count("cell") == 0
        # Simulate a kill between step 0's put and its journal removal.
        journal = store.journal(step_keys[0])
        journal.put("grid", 0, 0, 0.5)
        store.reset_stats()
        replay_constraint_stream(
            dataset, 0.1, config=TINY, stream=stream, random_state=TINY.seed, store=store
        )
        assert store.stats_for("online").hits == 2
        assert not journal.path.exists()


#: ``(hits, misses, writes)`` of ``cell`` traffic in the interrupted run and
#: in its resumption, plus the cells left in flight in between, exactly as
#: the former one-file-per-cell store counted them for the same runs.
PER_FILE_COUNTS = {
    "fosc-grid": ((0, 9, 4), 4, (4, 8, 8)),
    "fosc-external": ((0, 11, 10), 10, (10, 2, 2)),
    "mpck-grid": ((0, 8, 4), 4, (4, 8, 8)),
    "online-step": ((0, 12, 10), 4, (4, 8, 8)),
}

INTERRUPTIONS = {
    "fosc-grid": (cvcp_module, "score_partition", 5, "fosc", "labels"),
    "fosc-external": (runner_module, "silhouette_score", 2, "fosc", "labels"),
    "mpck-grid": (cvcp_module, "score_partition", 3, "mpck", "constraints"),
}


class TestAccounting:
    @pytest.mark.parametrize("case", sorted(INTERRUPTIONS))
    def test_trial_counts_match_the_per_file_store(self, case, tmp_path, dataset, monkeypatch):
        module, name, call, algorithm, scenario = INTERRUPTIONS[case]
        store = ArtifactStore(tmp_path / "store")

        def trial():
            return run_trial(
                dataset, algorithm, scenario, 0.1, config=TINY, random_state=7, store=store
            )

        restore = interrupt_at(monkeypatch, module, name, call)
        with pytest.raises(KeyboardInterrupt):
            trial()
        restore()
        first, in_flight, resumed = PER_FILE_COUNTS[case]
        assert counts(store) == first
        assert store.count("cell") == in_flight
        store.reset_stats()
        trial()
        assert counts(store) == resumed
        assert store.count("cell") == 0

    def test_online_counts_match_the_per_file_store(self, tmp_path, dataset, monkeypatch):
        store = ArtifactStore(tmp_path / "store")

        def replay():
            clear_distance_cache()
            clear_structure_cache()
            return replay_constraint_stream(
                dataset, 0.1, config=TINY, stream=StreamSpec(n_deltas=3),
                random_state=TINY.seed, store=store,
            )

        restore = interrupt_at(monkeypatch, cvcp_module, "score_partition", 3)
        with pytest.raises(KeyboardInterrupt):
            replay()
        restore()
        first, in_flight, resumed = PER_FILE_COUNTS["online-step"]
        assert counts(store) == first
        assert store.count("cell") == in_flight
        store.reset_stats()
        replay()
        assert counts(store) == resumed
        assert store.count("cell") == 0


class TestCompactEncoding:
    def test_put_writes_compact_json(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        path = store.put("trial", {"x": 1}, {"score": 0.5, "values": [1, 2]})
        text = path.read_text(encoding="utf-8")
        assert "\n" not in text and ", " not in text and ": " not in text
        assert json.loads(text)["payload"] == {"score": 0.5, "values": [1, 2]}

    def test_indented_artifact_of_older_stores_still_hits(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = {"x": 1, "grid": [3, 6]}
        path = store.path_for("trial", key)
        path.parent.mkdir(parents=True)
        record = {"schema": SCHEMA_VERSION, "kind": "trial", "key": key, "payload": {"score": 0.5}}
        path.write_text(json.dumps(record, sort_keys=True, indent=1), encoding="utf-8")
        assert store.get("trial", key) == {"score": 0.5}
        assert store.contains("trial", key)
        assert store.stats_for("trial").hits == 2
