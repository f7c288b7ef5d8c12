"""One-shot report generation: every experiment into a single markdown file.

``python -m repro.report [output.md]`` (or :func:`generate_report`) runs
the full experiment registry and writes the rendered sections to a RESULTS
file — the reproduction's equivalent of the paper's evaluation section,
regenerated from scratch on the current calibration.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro import __version__
from repro.experiments.registry import EXPERIMENTS, ExperimentConfig, run_experiment


def generate_report(
    path: str | Path = "RESULTS.md",
    *,
    names: list[str] | None = None,
    echo: bool = True,
    config: ExperimentConfig | None = None,
) -> Path:
    """Run experiments and write their renderings to ``path``.

    ``names`` restricts the run (default: the full registry, deduplicated —
    fig5/fig6 share a driver).  ``config`` applies uniform overrides
    (seed, cap, objective) to every driver that supports them.
    """
    path = Path(path)
    chosen = names if names is not None else list(EXPERIMENTS)
    seen_fns = set()

    lines = [
        "# RESULTS — regenerated evaluation",
        "",
        f"repro version {__version__}; every section produced by "
        "`python -m repro <name>` on the default calibration and seeds.",
        "",
    ]
    for name in chosen:
        fn = EXPERIMENTS[name]
        if fn in seen_fns:
            continue
        seen_fns.add(fn)
        t0 = time.perf_counter()
        result = run_experiment(name, config=config)
        elapsed = time.perf_counter() - t0
        if echo:
            print(f"[{result.name}] done in {elapsed:.1f}s")
        lines.append(f"## {result.name}: {result.title}")
        lines.append("")
        lines.append("```text")
        lines.append(result.render())
        lines.append("```")
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - thin
    args = sys.argv[1:] if argv is None else argv
    target = args[0] if args else "RESULTS.md"
    out = generate_report(target)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
