"""One set-up sample: import numpy and hardstab, build the workload's inputs,
then print the monotonic clock.  ``run.py`` starts this script several times
and subtracts the clock it read just before each start; both processes read
CLOCK_MONOTONIC (``time.perf_counter`` on Linux), so the difference is the
process start-up up to ready inputs.

    python3 perfbench/setup_probe.py --workload ce-lqr --seed 20240814 --work-dir DIR
"""

import argparse
import sys
import time
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import numpy  # noqa: F401
    import hardstab  # noqa: F401
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    WORKLOADS[args.workload](args.seed, Path(args.work_dir))
    print(repr(time.perf_counter()), flush=True)


if __name__ == "__main__":
    main()
