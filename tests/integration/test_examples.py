"""Smoke test: the predator-alarm example runs end to end at a toy size."""

from __future__ import annotations

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _load_example(name: str):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_predator_alarm_main_runs(monkeypatch, capsys):
    example = _load_example("predator_alarm")
    monkeypatch.setattr(example, "FLOCK_SIZE", 200)
    monkeypatch.setattr(example, "TRIALS", 1)
    assert example.main() == 0
    printed = capsys.readouterr().out
    assert "Flock of 200 birds" in printed
    for strategy in ("breathe-before-speaking", "immediate-forwarding", "noisy-voter"):
        assert strategy in printed
