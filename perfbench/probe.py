"""Child process of the benchmark; not meant to be run by hand.

``probe.py setup`` imports fraclap, numpy and scipy, runs the workload's
warm-up ops and prints ``ready``: the parent times it as one set-up sample.
``probe.py pass`` runs one untimed warm-up and one timed pass and prints the
pass summary as JSON; the parent runs it with BLAS pools set to one thread.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import measure  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    warm_dir = os.path.join(args.workdir, f"probe-{os.getpid()}")
    measure.warm_up(args.workload, warm_dir, args.size)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0
    records = measure.timed_pass(args.workload, args.seed, args.seconds, warm_dir, args.size)
    summary = measure.summarize(records)
    summary["blas_pools"] = measure.blas_pools()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
