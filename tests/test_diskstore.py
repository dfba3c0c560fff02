"""Tests for the one disk write path: atomic replacement, the
digest-framed keyed store, each caller's failure policy, and a guard
that keeps every temp-file and rename call inside the module."""

import ast
import hashlib
import os
from pathlib import Path

import pytest

from repro import telemetry
from repro.diskstore import KeyedStore, atomic_write
from repro.harness.journalstore import CampaignJournal
from repro.service.registry import ServiceRegistry
from repro.telemetry import Telemetry

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture
def broken_replace(monkeypatch):
    def replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", replace)


class TestAtomicWrite:
    def test_replaces_contents(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write(path, b"old")
        atomic_write(path, b"new")
        assert path.read_bytes() == b"new"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_replace_raises_and_removes_tmp(self, tmp_path, broken_replace):
        with pytest.raises(OSError):
            atomic_write(tmp_path / "cell.json", b"{}")
        assert list(tmp_path.iterdir()) == []  # no temp file, no target


class TestKeyedStore:
    def test_round_trip_and_framing(self, tmp_path):
        store = KeyedStore(tmp_path / "s", ".bin", "s")
        assert store.get("k") is None
        assert store.put("k", b"payload") is True
        assert store.get("k") == b"payload"
        raw = (tmp_path / "s" / "k.bin").read_bytes()
        assert raw == hashlib.sha256(b"payload").hexdigest().encode() + b"\npayload"

    def test_load_decodes(self, tmp_path):
        store = KeyedStore(tmp_path, ".txt", "s")
        store.put("k", b"41")
        assert store.load("k", lambda data: int(data) + 1) == 42
        assert store.load("absent", int) is None

    def test_failed_put_logged_counted_and_tmp_removed(
            self, tmp_path, broken_replace, caplog):
        store = KeyedStore(tmp_path, ".json", "cell_cache")
        tel = Telemetry()
        with telemetry.active(tel), caplog.at_level("WARNING", logger="repro.diskstore"):
            assert store.put("k", b"{}") is False
        assert any("write to" in r.message for r in caplog.records)
        assert tel.metrics.counter_value("cell_cache.write_error") == 1
        assert list(tmp_path.iterdir()) == []


class TestCallerFailurePolicy:
    def test_registry_write_failure_counted_and_kept_in_memory(
            self, tmp_path, broken_replace):
        registry = ServiceRegistry(tmp_path / "campaigns.json")
        tel = Telemetry()
        with telemetry.active(tel):
            registry.upsert("c1", {"state": "queued"})
        assert tel.metrics.counter_value("service.registry.write_error") == 1
        assert tel.metrics.counter_value("service.registry.write") == 0
        assert registry.load() == {"c1": {"state": "queued"}}
        assert list(tmp_path.iterdir()) == []

    def test_journal_header_write_failure_raises(self, tmp_path, broken_replace):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        with pytest.raises(OSError):
            journal.start("fp", "A64FX", [("s.a", "GNU")])
        assert list(tmp_path.iterdir()) == []


#: Calls that create temp files or rename files.  A one-argument
#: ``.rename``/``.replace`` is ``Path.rename``/``Path.replace`` unless
#: its argument is ``mapping`` (the IR's loop-variable renaming).
_MODULE_CALLS = {("os", "replace"), ("os", "rename"), ("tempfile", "mkstemp")}


def _write_protocol_calls(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("os", "tempfile"):
            names = {alias.name for alias in node.names}
            if {"replace", "rename", "mkstemp"} & names:
                lines.append(node.lineno)
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if isinstance(func.value, ast.Name) and (func.value.id, func.attr) in _MODULE_CALLS:
            lines.append(node.lineno)
        elif (func.attr in ("replace", "rename") and len(node.args) == 1
              and not node.keywords
              and not (isinstance(node.args[0], ast.Name) and node.args[0].id == "mapping")):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_diskstore_creates_temp_files_or_renames():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "diskstore.py" and path.parent == SRC:
            continue
        for line in _write_protocol_calls(ast.parse(path.read_text())):
            offenders.append(f"{path.relative_to(SRC)}:{line}")
    assert offenders == [], "use repro.diskstore.atomic_write: " + ", ".join(offenders)


def test_guard_sees_each_form():
    source = (
        "import os, tempfile\nfrom os import replace\n"
        "os.replace(a, b)\nos.rename(a, b)\ntempfile.mkstemp()\n"
        "tmp.replace(path)\ntmp.rename(path)\n"
        "s.replace('a', 'b')\ndataclasses.replace(r, x=1)\nstmt.rename(mapping)\n"
    )
    assert _write_protocol_calls(ast.parse(source)) == [2, 3, 4, 5, 6, 7]
