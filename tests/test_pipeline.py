"""Staged dataset pipeline: Merkle keys, caching, counters, bit-identity.

The load-bearing invariants:

- warm runs regenerate **nothing** (zero ``built`` across stages) and never
  even load the trace — the Merkle key chain lets split/ckg/graph resolve
  their keys without materializing any parent;
- cache-rehydrated stages are bit-identical to freshly built ones;
- ``DatasetRef`` is the picklable cross-process handle and resolves to one
  shared pipeline per process.
"""

import pickle

import numpy as np
import pytest

from repro.kg.subgraphs import KnowledgeSources
from repro.pipeline import (
    PIPELINE_STAGES,
    DatasetPipeline,
    DatasetRef,
    global_stage_counters,
    reset_global_stage_counters,
)
from repro.pipeline.stages import pipeline_for_ref

SOURCES = KnowledgeSources.best()


def _pipe(cache_dir=None, **kw):
    kw.setdefault("scale", "small")
    kw.setdefault("seed", 7)
    return DatasetPipeline("ooi", cache_dir=cache_dir, **kw)


# ------------------------------------------------------------------ stage keys
class TestStageKeys:
    def test_keys_stable_across_instances(self):
        a, b = _pipe(), _pipe()
        for stage in PIPELINE_STAGES:
            assert a.stage_key(stage, SOURCES) == b.stage_key(stage, SOURCES)

    def test_seed_rekeys_every_stage(self):
        a, b = _pipe(seed=7), _pipe(seed=8)
        for stage in PIPELINE_STAGES:
            assert a.stage_key(stage, SOURCES) != b.stage_key(stage, SOURCES)

    def test_sources_rekey_only_ckg_suffix(self):
        a = _pipe()
        uug_only = KnowledgeSources(uug=True, loc=False, dkg=False, md=False)
        assert a.stage_key("trace") == a.stage_key("trace", uug_only)
        assert a.stage_key("split") == a.stage_key("split", uug_only)
        assert a.stage_key("ckg", SOURCES) != a.stage_key("ckg", uug_only)
        assert a.stage_key("graph", SOURCES) != a.stage_key("graph", uug_only)

    def test_ckg_stage_needs_sources(self):
        with pytest.raises(ValueError, match="requires a KnowledgeSources"):
            _pipe().stage_key("ckg")

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown stage"):
            _pipe().stage_key("frobnicate", SOURCES)


# -------------------------------------------------------------------- caching
class TestCaching:
    def test_cold_builds_then_memoizes(self, tmp_path):
        pipe = _pipe(cache_dir=tmp_path)
        pipe.graph(SOURCES)
        counts = pipe.stage_counters()
        assert all(counts[s]["built"] == 1 for s in PIPELINE_STAGES)
        pipe.graph(SOURCES)
        assert pipe.stage_counters()["graph"]["memo"] == 1

    def test_warm_run_regenerates_nothing(self, tmp_path):
        _pipe(cache_dir=tmp_path).graph(SOURCES)
        warm = _pipe(cache_dir=tmp_path)
        warm.graph(SOURCES)
        warm.split()
        counts = warm.stage_counters()
        assert all(counts[s]["built"] == 0 for s in PIPELINE_STAGES)
        # the Merkle chain resolves keys without touching parents: the warm
        # path loads graph+split directly and never materializes the trace
        assert counts["trace"] == {"built": 0, "loaded": 0, "memo": 0}
        assert counts["graph"]["loaded"] == 1
        assert counts["split"]["loaded"] == 1
        assert warm.store.stats()["misses"] == 0

    def test_cached_stages_bit_identical_to_fresh(self, tmp_path):
        fresh = _pipe()  # no cache: everything derives in-process
        cold = _pipe(cache_dir=tmp_path)
        cold.graph(SOURCES)
        warm = _pipe(cache_dir=tmp_path)

        f_split, w_split = fresh.split(), warm.split()
        for attr in ("user_ids", "item_ids"):
            np.testing.assert_array_equal(
                getattr(f_split.train, attr), np.asarray(getattr(w_split.train, attr))
            )
            np.testing.assert_array_equal(
                getattr(f_split.test, attr), np.asarray(getattr(w_split.test, attr))
            )

        f_ckg, w_ckg = fresh.ckg(SOURCES), warm.ckg(SOURCES)
        np.testing.assert_array_equal(f_ckg.store.heads, w_ckg.store.heads)
        np.testing.assert_array_equal(f_ckg.store.rels, w_ckg.store.rels)
        np.testing.assert_array_equal(f_ckg.store.tails, w_ckg.store.tails)
        assert list(f_ckg.store.relations.names) == list(w_ckg.store.relations.names)

        f_arrays, f_meta = fresh.graph(SOURCES).to_arrays()
        w_arrays, w_meta = warm.graph(SOURCES).to_arrays()
        assert f_meta == w_meta
        assert sorted(f_arrays) == sorted(w_arrays)
        for name in f_arrays:
            np.testing.assert_array_equal(f_arrays[name], np.asarray(w_arrays[name]))

    def test_interactions_reassembled_from_split(self, tmp_path):
        fresh, warm_src = _pipe(), _pipe(cache_dir=tmp_path)
        warm_src.split()
        warm = _pipe(cache_dir=tmp_path)
        np.testing.assert_array_equal(
            fresh.interactions().user_ids, warm.interactions().user_ids
        )
        np.testing.assert_array_equal(
            fresh.interactions().item_ids, warm.interactions().item_ids
        )

    def test_no_cache_pipeline_still_works(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        pipe = _pipe()
        assert pipe.store is None
        pipe.split()
        assert pipe.stage_counters()["split"]["built"] == 1

    def test_env_cache_dir_honored(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        pipe = _pipe()
        assert pipe.store is not None and pipe.store.root == tmp_path


# ----------------------------------------------------------- refs and pickling
class TestRefs:
    def test_ref_round_trips_through_pickle(self, tmp_path):
        ref = _pipe(cache_dir=tmp_path).ref()
        clone = pickle.loads(pickle.dumps(ref))
        assert clone == ref
        assert clone.cache_dir == str(tmp_path)

    def test_pipeline_for_ref_shared_per_process(self):
        ref = DatasetRef("ooi", scale="small", seed=7)
        assert pipeline_for_ref(ref) is pipeline_for_ref(ref)

    def test_distinct_refs_distinct_pipelines(self):
        a = pipeline_for_ref(DatasetRef("ooi", scale="small", seed=7))
        b = pipeline_for_ref(DatasetRef("ooi", scale="small", seed=8))
        assert a is not b

    def test_pipeline_pickles_as_its_ref(self, tmp_path):
        pipe = _pipe(cache_dir=tmp_path)
        pipe.split()
        payload = pickle.dumps(pipe)
        # the recipe travels, not the memoized arrays
        assert len(payload) < 1024
        clone = pickle.loads(payload)
        assert clone is pipeline_for_ref(pipe.ref())
        assert clone.ref() == pipe.ref()
        assert clone.stage_key("split") == pipe.stage_key("split")

    def test_invalid_recipe_rejected(self):
        with pytest.raises(ValueError):
            DatasetPipeline("nope")
        with pytest.raises(ValueError):
            DatasetPipeline("ooi", scale="enormous")


# -------------------------------------------------------------- global counters
class TestGlobalCounters:
    def test_aggregates_across_pipelines(self):
        reset_global_stage_counters()
        _pipe().split()
        _pipe().split()
        counts = global_stage_counters()
        assert counts["trace"]["built"] == 2
        assert counts["split"]["built"] == 2
        reset_global_stage_counters()
        assert global_stage_counters()["split"]["built"] == 0
