"""Tests for the persistent artifact store and the two-tier composition."""

import json
import multiprocessing
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import workloads
from repro.pipeline import (
    STAGE_NAMES,
    AnalysisOptions,
    ArtifactCache,
    DiskArtifactCache,
    Pipeline,
    TieredArtifactCache,
    expand_jobs,
    analyze_document,
    json_text,
    open_cache,
    run_batch,
)
from repro.pipeline.cache import FORMAT_VERSION

ANALYSIS_STAGE_NAMES = [name for name in STAGE_NAMES if name != "report"]


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def _populate(cache_dir, source):
    """One cold run over a fresh tiered cache; returns the cold result."""
    cache = TieredArtifactCache(ArtifactCache(), DiskArtifactCache(cache_dir))
    return Pipeline(cache).run(source)


def _fresh_run(cache_dir, source, **kwargs):
    """A run over brand-new tiers (the in-test proxy for a fresh process)."""
    cache = TieredArtifactCache(ArtifactCache(), DiskArtifactCache(cache_dir))
    return Pipeline(cache).run(source, **kwargs)


class TestDiskRoundTrip:
    def test_fresh_process_serves_every_stage_from_disk(self, cache_dir):
        source = workloads.challenge_f_program()
        cold = _populate(cache_dir, source)
        warm = _fresh_run(cache_dir, source)
        assert not cold.cached_stages
        assert warm.cached_stages == ANALYSIS_STAGE_NAMES
        assert {"parse", "elaborate", "closure"} <= set(warm.cached_stages)
        assert warm.result.graph.to_adjacency() == cold.result.graph.to_adjacency()
        assert warm.result.summary() == cold.result.summary()

    def test_reloaded_artifacts_share_one_universe(self, cache_dir):
        source = workloads.producer_consumer_program()
        _populate(cache_dir, source)
        warm = _fresh_run(cache_dir, source)
        result = warm.result
        assert result.rm_local.universe is result.universe
        assert result.rm_global.universe is result.universe
        assert result.graph._universe is result.universe

    def test_differing_options_key_differently_on_disk(self, cache_dir):
        source = workloads.producer_consumer_program()
        _populate(cache_dir, source)
        basic = _fresh_run(cache_dir, source, options=AnalysisOptions(improved=False))
        assert "closure" in basic.computed_stages
        assert {"parse", "elaborate", "cfg"} <= set(basic.cached_stages)

    def test_subprocess_is_served_from_the_populated_dir(self, cache_dir, tmp_path):
        # The real acceptance shape: an actually-fresh interpreter with a
        # populated --cache-dir serves parse/elaborate/closure from disk.
        design = tmp_path / "design.vhd"
        design.write_text(workloads.challenge_f_program(), encoding="utf-8")
        argv = [
            sys.executable, "-m", "repro.cli", "analyze", str(design),
            "--json", "--cache-dir", cache_dir,
        ]
        src = str(Path(__file__).resolve().parent.parent / "src")
        cold = subprocess.run(
            argv, capture_output=True, text=True, env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"}
        )
        assert cold.returncode == 0, cold.stderr
        assert json.loads(cold.stdout)["cached_stages"] == []
        warm = subprocess.run(
            argv, capture_output=True, text=True, env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"}
        )
        assert warm.returncode == 0, warm.stderr
        warm_doc = json.loads(warm.stdout)
        assert {"parse", "elaborate", "closure"} <= set(warm_doc["cached_stages"])
        cold_doc = json.loads(cold.stdout)
        for document in (cold_doc, warm_doc):
            document.pop("timings")
            document.pop("cached_stages")
        assert warm_doc == cold_doc


class TestCorruptionIsEvictedNotRaised:
    def _entry_files(self, cache_dir):
        return [
            path
            for path in sorted(Path(cache_dir).glob("*/*.pkl"))
            if path.parent.name != "universes"
        ]

    def test_truncated_entries_are_evicted(self, cache_dir):
        source = workloads.challenge_f_program()
        _populate(cache_dir, source)
        for path in self._entry_files(cache_dir):
            path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        disk = DiskArtifactCache(cache_dir)
        warm = Pipeline(TieredArtifactCache(ArtifactCache(), disk)).run(source)
        assert not warm.cached_stages  # everything recomputed...
        assert warm.result is not None  # ...and the run still succeeds
        assert disk.misses > 0 and disk.hits == 0

    def test_garbage_entries_are_evicted(self, cache_dir):
        disk = DiskArtifactCache(cache_dir)
        disk.put("parse:key", {"payload": 1})
        path = disk._entry_path("parse:key")
        path.write_bytes(b"this is not a pickle")
        assert disk.get("parse:key") is None  # miss, not a crash...
        assert not path.exists()  # ...and the poisoned file is evicted
        assert disk.get("parse:unknown") is None  # absent key: plain miss
        assert disk.misses == 2 and disk.hits == 0

    def test_wrong_version_tag_is_evicted(self, cache_dir):
        source = workloads.challenge_f_program()
        cold = _populate(cache_dir, source)
        for path in self._entry_files(cache_dir):
            tag, _version, key, lengths, payload = pickle.loads(path.read_bytes())
            path.write_bytes(
                pickle.dumps((tag, FORMAT_VERSION + 1, key, lengths, payload))
            )
        warm = _fresh_run(cache_dir, source)
        assert not warm.cached_stages
        assert warm.result.summary() == cold.result.summary()

    def test_stale_index_version_evicts_the_whole_cache(self, cache_dir):
        source = workloads.challenge_f_program()
        _populate(cache_dir, source)
        index_path = Path(cache_dir) / "index.json"
        index = json.loads(index_path.read_text(encoding="utf-8"))
        index["version"] = FORMAT_VERSION + 1
        index_path.write_text(json.dumps(index), encoding="utf-8")
        disk = DiskArtifactCache(cache_dir)
        assert len(disk) == 0
        assert json.loads(index_path.read_text())["version"] == FORMAT_VERSION

    def test_corrupt_index_is_rebuilt_and_entries_stay_servable(self, cache_dir):
        source = workloads.challenge_f_program()
        _populate(cache_dir, source)
        (Path(cache_dir) / "index.json").write_text("{not json", encoding="utf-8")
        warm = _fresh_run(cache_dir, source)
        assert warm.cached_stages == ANALYSIS_STAGE_NAMES
        index = json.loads((Path(cache_dir) / "index.json").read_text())
        assert index["version"] == FORMAT_VERSION

    @pytest.mark.parametrize(
        "torn_entries",
        [42, ["a", "b"], "entries-as-text", {"some/entry.pkl": "not-a-dict"}],
        ids=["int", "list", "string", "non-dict-values"],
    )
    def test_torn_index_shapes_are_rebuilt_not_raised(self, cache_dir, torn_entries):
        # A concurrently-rewritten index can be valid JSON of the wrong
        # shape; that must behave exactly like unparsable bytes: rebuild
        # from the entry files, keep every entry servable.
        source = workloads.challenge_f_program()
        _populate(cache_dir, source)
        index_path = Path(cache_dir) / "index.json"
        index_path.write_text(
            json.dumps({"version": FORMAT_VERSION, "entries": torn_entries}),
            encoding="utf-8",
        )
        warm = _fresh_run(cache_dir, source)
        assert warm.cached_stages == ANALYSIS_STAGE_NAMES
        rebuilt = json.loads(index_path.read_text(encoding="utf-8"))
        assert isinstance(rebuilt["entries"], dict)
        assert all(isinstance(entry, dict) for entry in rebuilt["entries"].values())

    def test_torn_index_still_accepts_new_puts(self, cache_dir):
        _populate(cache_dir, workloads.challenge_f_program())
        index_path = Path(cache_dir) / "index.json"
        index_path.write_text(
            json.dumps({"version": FORMAT_VERSION, "entries": 7}), encoding="utf-8"
        )
        # The store must come up writable, not just readable.
        run = _fresh_run(cache_dir, workloads.producer_consumer_program())
        assert run.result.summary()

    def test_missing_universe_snapshot_is_a_miss(self, cache_dir):
        source = workloads.producer_consumer_program()
        _populate(cache_dir, source)
        for path in (Path(cache_dir) / "universes").glob("*.pkl"):
            path.unlink()
        warm = _fresh_run(cache_dir, source)
        # frontend stages still hit; universe-bound ones recompute
        assert {"parse", "elaborate", "cfg"} <= set(warm.cached_stages)
        assert "local" in warm.computed_stages
        assert warm.result.rm_local.universe is warm.result.universe


def _calling(module, name, argument):
    """A protocol-4 pickle that calls ``module.name(argument)`` when loaded."""

    def text(value):
        data = value.encode()
        return b"\x8c" + bytes([len(data)]) + data

    # SHORT_BINUNICODE x2, STACK_GLOBAL, one-tuple of the argument, REDUCE.
    return (
        b"\x80\x04" + text(module) + text(name) + b"\x93" + text(argument)
        + b"\x85R."
    )


def _stable_document(run):
    document = json.loads(json_text(analyze_document(run)))
    document.pop("timings")
    document.pop("cached_stages")
    return document


class TestPlantedEntriesCannotRunCode:
    """A shared ``--cache-dir`` is untrusted input: loading must not run code."""

    GLOBALS = [
        pytest.param("os", "mkdir", id="stdlib-function"),
        pytest.param("repro.pipeline.cache", "os.mkdir", id="dotted-through-repro"),
        pytest.param(
            "repro.pipeline.cache", "DiskArtifactCache", id="non-artifact-class"
        ),
    ]

    @pytest.mark.parametrize("module,name", GLOBALS)
    @pytest.mark.parametrize("planted_in", ["payload", "envelope"])
    def test_planted_entry_is_evicted_and_recomputed(
        self, cache_dir, tmp_path, module, name, planted_in
    ):
        source = workloads.producer_consumer_program()
        cold = _populate(cache_dir, source)
        # The planted pickle is live: an unguarded load runs the call.
        probe = tmp_path / "probe"
        pickle.loads(_calling(module, name, str(probe)))
        assert probe.exists()

        marker = tmp_path / "marker"
        (entry,) = (Path(cache_dir) / "closure").glob("*.pkl")
        tag, version, key, lengths, _ = pickle.loads(entry.read_bytes())
        planted = _calling(module, name, str(marker))
        if planted_in == "payload":
            entry.write_bytes(pickle.dumps((tag, version, key, lengths, planted)))
        else:
            entry.write_bytes(planted)

        disk = DiskArtifactCache(cache_dir)
        warm = Pipeline(TieredArtifactCache(ArtifactCache(), disk)).run(source)
        assert not marker.exists()
        # Only the planted entry missed; it was evicted and the recomputed
        # artifact written back in its place.
        assert disk.misses == 1
        assert "closure" in warm.computed_stages
        assert {"parse", "local", "specialize"} <= set(warm.cached_stages)
        assert _stable_document(warm) == _stable_document(cold)
        assert DiskArtifactCache(cache_dir).get(key) is not None

    def test_planted_universe_snapshot_is_a_miss(self, cache_dir, tmp_path):
        source = workloads.producer_consumer_program()
        cold = _populate(cache_dir, source)
        marker = tmp_path / "marker"
        for path in (Path(cache_dir) / "universes").glob("*.pkl"):
            path.write_bytes(_calling("os", "mkdir", str(marker)))
        warm = _fresh_run(cache_dir, source)
        assert not marker.exists()
        assert "local" in warm.computed_stages
        assert _stable_document(warm) == _stable_document(cold)


class TestEvictionAndStats:
    def test_size_budget_evicts_least_recently_used(self, tmp_path):
        disk = DiskArtifactCache(tmp_path / "small", max_bytes=2048)
        for index in range(64):
            disk.put(f"parse:{index}", "x" * 128)
        stats = disk.stats()
        assert 0 < stats["entries"] < 64
        assert stats["bytes"] <= 2048
        # the most recent key survived
        assert "parse:63" in disk

    def test_stats_shape(self, cache_dir):
        _populate(cache_dir, workloads.challenge_f_program())
        disk = DiskArtifactCache(cache_dir)
        stats = disk.stats()
        assert stats["entries"] == len(ANALYSIS_STAGE_NAMES)
        assert stats["version"] == FORMAT_VERSION
        assert set(stats["stages"]) == set(ANALYSIS_STAGE_NAMES)
        assert stats["bytes"] > 0 and stats["universes"] >= 1

    def test_clear_empties_the_store(self, cache_dir):
        _populate(cache_dir, workloads.challenge_f_program())
        disk = DiskArtifactCache(cache_dir)
        disk.clear()
        assert len(disk) == 0
        assert disk.stats()["universes"] == 0
        warm = _fresh_run(cache_dir, workloads.challenge_f_program())
        assert not warm.cached_stages

    def test_unpicklable_values_are_skipped_silently(self, tmp_path):
        disk = DiskArtifactCache(tmp_path / "c")
        disk.put("parse:k", lambda: None)  # lambdas don't pickle
        assert disk.get("parse:k") is None
        assert len(disk) == 0


class TestTieredCache:
    def test_disk_hits_promote_into_memory(self, cache_dir):
        source = workloads.challenge_f_program()
        _populate(cache_dir, source)
        tier = TieredArtifactCache(ArtifactCache(), DiskArtifactCache(cache_dir))
        Pipeline(tier).run(source)
        assert tier.disk.hits == len(ANALYSIS_STAGE_NAMES)
        again = Pipeline(tier).run(source)
        assert again.cached_stages == ANALYSIS_STAGE_NAMES
        # second run is served by the memory tier alone
        assert tier.disk.hits == len(ANALYSIS_STAGE_NAMES)
        assert tier.memory.hits == len(ANALYSIS_STAGE_NAMES)

    def test_open_cache_factory(self, cache_dir):
        assert open_cache(None, memory=False) is None
        assert isinstance(open_cache(None, memory=True), ArtifactCache)
        tiered = open_cache(cache_dir)
        assert isinstance(tiered, TieredArtifactCache)
        assert tiered.disk is not None and Path(cache_dir).is_dir()

    def test_tier_stats_compose(self, cache_dir):
        tier = open_cache(cache_dir)
        tier.put("parse:k", 1)
        assert tier.get("parse:k") == 1
        assert tier.get("parse:missing") is None
        stats = tier.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["memory"]["entries"] == 1
        assert stats["disk"]["entries"] == 1


def _writer_process(cache_dir, worker, results):
    """Hammer one shared cache dir with interleaved puts and gets."""
    try:
        disk = DiskArtifactCache(cache_dir)
        for index in range(40):
            disk.put(f"parse:w{worker}:{index}", {"worker": worker, "index": index})
            read_back = disk.get(f"parse:w{worker}:{index}")
            assert read_back == {"worker": worker, "index": index}
        results.put(None)
    except BaseException as error:  # pragma: no cover - failure reporting
        results.put(repr(error))


class TestConcurrentWriters:
    def test_two_processes_share_one_dir_without_corruption(self, cache_dir):
        context = multiprocessing.get_context("spawn")
        results = context.Queue()
        workers = [
            context.Process(target=_writer_process, args=(cache_dir, n, results))
            for n in range(2)
        ]
        for process in workers:
            process.start()
        outcomes = [results.get(timeout=120) for _ in workers]
        for process in workers:
            process.join(timeout=120)
        assert outcomes == [None, None]
        # the index is intact JSON with the current version...
        index = json.loads((Path(cache_dir) / "index.json").read_text())
        assert index["version"] == FORMAT_VERSION
        # ...and every surviving entry from both writers is servable
        disk = DiskArtifactCache(cache_dir)
        served = 0
        for worker in range(2):
            for index_number in range(40):
                value = disk.get(f"parse:w{worker}:{index_number}")
                if value is not None:
                    assert value == {"worker": worker, "index": index_number}
                    served += 1
        assert served == 80


class TestBatchDiskTier:
    def test_parallel_workers_share_the_disk_tier(self, tmp_path):
        path = tmp_path / "multi.vhd"
        path.write_text(workloads.multi_entity_program(3, 2, 6), encoding="utf-8")
        cache_dir = str(tmp_path / "cache")
        cache = open_cache(cache_dir)
        jobs = expand_jobs([str(path)], all_entities=True, cache=cache)
        cold = run_batch(jobs, AnalysisOptions(), parallel=False, cache=cache)
        assert cold.ok
        warm = run_batch(
            jobs, AnalysisOptions(), parallel=True, max_workers=2,
            cache_dir=cache_dir,
        )
        assert warm.ok
        for item in warm.items:
            assert {"parse", "elaborate", "closure"} <= set(
                item.data["cached_stages"]
            )
        assert [item.text for item in warm.items] == [
            item.text for item in cold.items
        ]
