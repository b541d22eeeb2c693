"""Time one set-up of a workload in this fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED SCRATCH_DIR

Set-up is importing nagaotree, building the data (datum.builtin, with table
validation) and generating the workload's inputs, up to the first op.
Prints the seconds it took.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main() -> None:
    name, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    t0 = time.perf_counter()
    from workloads import WORKLOADS
    WORKLOADS[name](seed, scratch)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
