"""The benchmark's contract, read from ``BENCHMARK.json`` at the repo root."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"


def load() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def workload_names(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]
