"""ArtifactStore: addressing, hygiene, eviction, Engine integration."""

import os
import pickle
import time

import pytest

from repro.kernels.example import P1_SEQUENTIAL, P3_MIMD
from repro.runtime import Engine
from repro.runtime.engine import CompileOptions
from repro.runtime.store import (
    FORMAT,
    SUFFIX,
    ArtifactError,
    ArtifactStore,
    artifact_digest,
)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def _digest(n=0):
    return artifact_digest(f"{n:064x}", CompileOptions())


class TestAddressing:
    def test_digest_is_deterministic(self):
        options = CompileOptions(transform="flatten", width=8)
        assert artifact_digest("ab" * 32, options) == artifact_digest(
            "ab" * 32, options
        )

    def test_digest_separates_options(self):
        sha = "ab" * 32
        assert artifact_digest(sha, CompileOptions()) != artifact_digest(
            sha, CompileOptions(transform="flatten")
        )

    #: Store digests of P1_SEQUENTIAL under each transform's default
    #: options (width 4 where required), as written by earlier
    #: releases: existing store entries must keep hitting.
    DEFAULT_DIGESTS = {
        "none": "281241beaa088ca7c3a9cf3bef5d13b6879453e5a3ed4711be1e5db2f26fee8d",
        "flatten": "d4813d4ae3b378223b1cfd382b51707494cb23c203cfb50ed837d72be9d30332",
        "simdize": "59883e3c9edfb3968e93965624671054737afc9d27a5f7f351a2361f9f495d95",
        "coalesce": "ae81b4e190c40ee5f72d93bcf53d3a303fe685d30334b5385e9df7bc8637ca1c",
        "spmd": "ebfafa90f2eaad133ac6d8889956f5a8ebed392472daa2e3e003c4506d77d8c4",
        "fission": "4085890780f34346edded5401e4d08595afc286fe24e190baf860b9294025c79",
        "interchange": (
            "5196102499ede4e1a21851d6f4b67263e88873b04de1b1f130d7b0fcebb9a749"
        ),
    }

    @pytest.mark.parametrize("transform", sorted(DEFAULT_DIGESTS))
    def test_default_option_digests_are_stable(self, transform):
        options = {"transform": transform}
        if transform in ("simdize", "spmd"):
            options["width"] = 4
        digest = Engine().cache_key(P1_SEQUENTIAL, **options)
        assert digest == self.DEFAULT_DIGESTS[transform]

    def test_two_level_shard_layout(self, store):
        digest = "abcdef" + "0" * 58
        path = store.path_for(digest)
        parts = path.split(os.sep)
        assert parts[-3] == "ab"
        assert parts[-2] == "cd"
        assert parts[-1] == digest + SUFFIX

    def test_short_digest_rejected(self, store):
        with pytest.raises(ValueError, match="too short"):
            store.path_for("ab")


class TestSaveLoad:
    def test_round_trip(self, store):
        digest = _digest()
        payload = {"tree": None, "answer": [1, 2, 3]}
        path = store.save(digest, payload)
        assert os.path.exists(path)
        assert store.load(digest) == payload

    def test_miss_returns_none(self, store):
        assert store.load(_digest(7)) is None

    def test_no_tmp_litter_after_save(self, store):
        digest = _digest()
        store.save(digest, {"x": 1})
        directory = os.path.dirname(store.path_for(digest))
        assert [n for n in os.listdir(directory) if n.startswith(".tmp")] == []

    def test_truncated_payload_detected_and_evicted(self, store):
        digest = _digest()
        path = store.save(digest, {"x": list(range(100))})
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:-20])
        assert store.load(digest) is None  # corrupt -> miss
        assert not os.path.exists(path)  # and unlinked

    def test_bitflip_detected_before_unpickle(self, store):
        digest = _digest()
        path = store.save(digest, {"x": 1})
        with open(path, "rb") as handle:
            blob = handle.read()
        newline = blob.find(b"\n")
        flipped = blob[: newline + 5] + bytes([blob[newline + 5] ^ 0xFF]) + blob[newline + 6:]
        with open(path, "wb") as handle:
            handle.write(flipped)
        with pytest.raises(ArtifactError, match="digest mismatch|truncated"):
            store.load_file(path)

    def test_hostile_pickle_never_reached(self, store):
        # A payload whose digest does not match is rejected *before*
        # pickle.loads can run attacker bytes.
        digest = _digest()
        path = store.path_for(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        evil = pickle.dumps({"ok": False})
        header = (
            b'{"format": "%s", "sha256": "0" , "payload_bytes": %d}'
            % (FORMAT.encode(), len(evil))
        )
        with open(path, "wb") as handle:
            handle.write(header + b"\n" + evil)
        assert store.load(digest) is None

    def test_foreign_format_rejected(self, store):
        digest = _digest()
        path = store.path_for(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b'{"format": "something/else"}\n123')
        with pytest.raises(ArtifactError, match="not a"):
            store.load_file(path)

    def test_non_dict_payload_rejected(self, store):
        import hashlib
        import json

        digest = _digest()
        path = store.path_for(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        blob = pickle.dumps([1, 2, 3])
        header = json.dumps(
            {
                "format": FORMAT,
                "sha256": hashlib.sha256(blob).hexdigest(),
                "payload_bytes": len(blob),
            }
        ).encode()
        with open(path, "wb") as handle:
            handle.write(header + b"\n" + blob)
        with pytest.raises(ArtifactError, match="not a dict"):
            store.load_file(path)

    def test_republish_same_digest_is_safe(self, store):
        digest = _digest()
        store.save(digest, {"v": 1})
        store.save(digest, {"v": 2})
        assert store.load(digest) == {"v": 2}
        assert len(store) == 1


class TestEviction:
    def test_lru_by_mtime_max_entries(self, tmp_path):
        store = ArtifactStore(str(tmp_path), max_entries=2)
        digests = [_digest(n) for n in range(3)]
        for index, digest in enumerate(digests):
            store.save(digest, {"n": index})
            os.utime(store.path_for(digest), (index, index))  # force order
        store.evict()
        assert store.load(digests[0]) is None  # oldest went
        assert store.load(digests[1]) is not None
        assert store.load(digests[2]) is not None

    def test_hit_refreshes_recency(self, tmp_path):
        store = ArtifactStore(str(tmp_path), max_entries=2)
        a, b, c = (_digest(n) for n in range(3))
        store.save(a, {"n": 0})
        os.utime(store.path_for(a), (1, 1))
        store.save(b, {"n": 1})
        os.utime(store.path_for(b), (2, 2))
        assert store.load(a) is not None  # touch: now newest
        store.save(c, {"n": 2})  # evicts b, not a
        assert store.load(a) is not None
        assert store.load(b) is None

    def test_max_bytes_ceiling(self, tmp_path):
        store = ArtifactStore(str(tmp_path), max_bytes=1)
        store.save(_digest(0), {"blob": "x" * 1000})
        time.sleep(0.01)
        store.save(_digest(1), {"blob": "y" * 1000})
        # every save evicts down toward the ceiling; at most the
        # newest survives
        assert len(store) <= 1

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        for n in range(5):
            store.save(_digest(n), {"n": n})
        assert store.evict() == 0
        assert len(store) == 5

    def test_stats_and_clear(self, store):
        store.save(_digest(0), {"x": 1})
        stats = store.stats()
        assert stats["entries"] == 1 and stats["bytes"] > 0
        store.clear()
        assert store.stats()["entries"] == 0

    def test_bad_limits_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(str(tmp_path), max_entries=0)
        with pytest.raises(ValueError):
            ArtifactStore(str(tmp_path), max_bytes=0)


class TestEngineIntegration:
    def test_miss_publishes_then_fresh_engine_disk_hits(self, tmp_path):
        root = str(tmp_path / "store")
        first = Engine(store_dir=root)
        program = first.compile(P1_SEQUENTIAL, transform="flatten")
        assert program.cache_tier == "miss"
        assert first.stats.store_saves == 1
        assert first.stats.disk_misses == 1

        fresh = Engine(store_dir=root)
        warm = fresh.compile(P1_SEQUENTIAL, transform="flatten")
        assert warm.cache_tier == "disk"
        assert warm.cache_hit is True
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.misses == 0
        assert "store_load" in warm.stage_seconds

    def test_disk_hit_skips_transform_pipeline(self, tmp_path, monkeypatch):
        root = str(tmp_path / "store")
        Engine(store_dir=root).compile(P1_SEQUENTIAL, transform="flatten")

        import repro.transform.pipeline as pipeline

        def boom(*_args, **_kwargs):
            raise AssertionError("transform pipeline ran on a disk hit")

        monkeypatch.setattr(pipeline, "_flatten_program_uncached", boom)
        fresh = Engine(store_dir=root)
        program = fresh.compile(P1_SEQUENTIAL, transform="flatten")
        assert program.cache_tier == "disk"

    def test_disk_artifact_runs_identically(self, tmp_path):
        root = str(tmp_path / "store")
        cold = Engine(store_dir=root).compile(P1_SEQUENTIAL, transform="flatten")
        warm = Engine(store_dir=root).compile(P1_SEQUENTIAL, transform="flatten")
        res_cold = cold.run({"n": 4}, nproc=4)
        res_warm = warm.run({"n": 4}, nproc=4)
        assert res_warm.backend == res_cold.backend
        assert res_warm.steps == res_cold.steps

    def test_memory_tier_wins_over_disk(self, tmp_path):
        engine = Engine(store_dir=str(tmp_path))
        engine.compile(P1_SEQUENTIAL)
        again = engine.compile(P1_SEQUENTIAL)
        assert again.cache_tier == "memory"
        assert engine.stats.hits == 1
        assert engine.stats.disk_hits == 0

    def test_corrupt_entry_recompiles_and_republishes(self, tmp_path):
        root = str(tmp_path / "store")
        engine = Engine(store_dir=root)
        engine.compile(P1_SEQUENTIAL, transform="flatten")
        digest = engine.cache_key(P1_SEQUENTIAL, transform="flatten")
        path = engine.store.path_for(digest)
        with open(path, "wb") as handle:
            handle.write(b"garbage")

        fresh = Engine(store_dir=root)
        program = fresh.compile(P1_SEQUENTIAL, transform="flatten")
        assert program.cache_tier == "miss"  # recompiled, not crashed
        assert fresh.stats.store_saves == 1  # and healed the store
        healed = Engine(store_dir=root).compile(P1_SEQUENTIAL, transform="flatten")
        assert healed.cache_tier == "disk"

    def test_options_are_separate_artifacts(self, tmp_path):
        root = str(tmp_path / "store")
        engine = Engine(store_dir=root)
        engine.compile(P1_SEQUENTIAL)
        engine.compile(P1_SEQUENTIAL, transform="flatten")
        assert len(engine.store) == 2

    def test_no_store_engine_unchanged(self):
        engine = Engine()
        program = engine.compile(P1_SEQUENTIAL)
        assert engine.store is None
        assert program.cache_tier == "miss"
        assert engine.stats.disk_hits == 0
        assert engine.stats.disk_misses == 0

    def test_cache_key_matches_store_address(self, tmp_path):
        engine = Engine(store_dir=str(tmp_path))
        engine.compile(P3_MIMD, transform="flatten")
        digest = engine.cache_key(P3_MIMD, transform="flatten")
        assert os.path.exists(engine.store.path_for(digest))

    def test_cache_key_never_compiles(self):
        engine = Engine()
        engine.cache_key(P1_SEQUENTIAL, transform="flatten")
        assert engine.stats.compiles == 0
        assert len(engine) == 0

    def test_publish_failure_does_not_fail_compile(self, tmp_path, monkeypatch):
        engine = Engine(store_dir=str(tmp_path))

        def refuse(*_args, **_kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(engine.store, "save", refuse)
        program = engine.compile(P1_SEQUENTIAL)
        assert program.cache_tier == "miss"
        assert engine.stats.store_saves == 0
