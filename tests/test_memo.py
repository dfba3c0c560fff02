"""Tests for the bounded process-local memos (repro.memo)."""

from __future__ import annotations

import pickle

from repro.compilers.base import CodegenNestInfo
from repro.ir import dependence
from repro.machine import a64fx
from repro.memo import ContentMemo, IdentityMemo
from repro.perf import batch
from tests.conftest import build_gemm


class TestContentMemo:
    def test_is_bounded(self):
        memo: ContentMemo[int] = ContentMemo(4)
        for i in range(100):
            memo.put(("key", i), i)
        assert len(memo) == 4
        assert memo.get(("key", 99)) == 99  # the newest entry still hits
        assert memo.get(("key", 0)) is None

    def test_evicts_least_recently_used(self):
        memo: ContentMemo[str] = ContentMemo(3)
        for key in "abc":
            memo.put(key, key.upper())
        assert memo.get("a") == "A"  # refreshes a: b is now the oldest
        memo.put("d", "D")
        assert memo.get("b") is None
        assert [memo.get(k) for k in "acd"] == ["A", "C", "D"]
        memo.put("c", "C2")  # a re-put refreshes too: a is now the oldest
        memo.put("e", "E")
        assert memo.get("a") is None
        assert [memo.get(k) for k in "cde"] == ["C2", "D", "E"]

    def test_equal_keys_share_one_value(self):
        memo: ContentMemo[list] = ContentMemo(8)
        nest = build_gemm(16).nests[0]
        value = memo.put((nest, 256), [])
        clone = pickle.loads(pickle.dumps(nest))
        assert clone is not nest
        assert memo.get((clone, 256)) is value
        assert memo.get((clone, 64)) is None

    def test_campaign_memos_are_bounded(self, monkeypatch):
        """The dependence and traffic-table memos hold at most their
        ``maxsize`` distinct nests, and the newest entry still hits."""
        nests = [build_gemm(n).nests[0] for n in range(2, 40)]
        monkeypatch.setattr(dependence._DEPENDENCES, "maxsize", 16)
        for nest in nests:
            dependence.nest_dependences(nest)
        assert len(dependence._DEPENDENCES) == 16
        assert dependence._DEPENDENCES.get(nests[-1]) is not None

        machine = a64fx()
        monkeypatch.setattr(batch._TRAFFIC_TABLES, "maxsize", 16)
        for nest in nests:
            batch.nest_features(CodegenNestInfo(nest=nest), machine)
        assert len(batch._TRAFFIC_TABLES) == 16


class TestIdentityMemo:
    def test_keys_on_identity_not_content(self):
        memo: IdentityMemo[str] = IdentityMemo(8)
        nest = build_gemm(16).nests[0]
        memo.put(nest, "v", "x")
        assert memo.get(nest, "x") == "v"
        assert memo.get(nest, "y") is None
        assert memo.get(pickle.loads(pickle.dumps(nest)), "x") is None

    def test_is_bounded_and_pins_its_keys(self):
        memo: IdentityMemo[int] = IdentityMemo(4)
        objs = [object() for _ in range(10)]
        for i, obj in enumerate(objs):
            memo.put(obj, i)
        assert len(memo) == 4
        assert [memo.get(o) for o in objs[-4:]] == [6, 7, 8, 9]
        assert memo.get(objs[0]) is None

    def test_maxsize_is_settable(self):
        memo: IdentityMemo[int] = IdentityMemo(4)
        memo.maxsize = 2
        objs = [object() for _ in range(3)]
        for i, obj in enumerate(objs):
            memo.put(obj, i)
        assert len(memo) == 2
