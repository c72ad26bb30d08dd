"""Set one workload up in a fresh interpreter (import, parsing, input
generation) and print the seconds it took.  With ``round``, then run
each item once, failures ignored, so that every module the items
import lazily is loaded too.

    python3 bench/probe.py <workload> <seed> <dir> [round]
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
    t0 = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[name](BENCH.parent, seed, out)
    w.setup()
    print(time.perf_counter() - t0)
    if sys.argv[4:] == ["round"]:
        for item in w.items:
            try:
                w.run(item)
            except Exception:  # the known faults; the runner reports them
                pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
