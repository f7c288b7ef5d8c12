"""``python -m bench run ...`` and ``python -m bench compare A.json B.json``."""

import sys

USAGE = "usage: python -m bench {run,compare} [options]  (see bench/README.md)"


def main() -> int:
    command, argv = (sys.argv[1], sys.argv[2:]) if len(sys.argv) > 1 else ("", [])
    if command == "run":
        from bench.run import main as run_main

        return run_main(argv)
    if command == "compare":
        from bench.compare import main as compare_main

        return compare_main(argv)
    print(USAGE, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
