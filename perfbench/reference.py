"""Regenerate reference.json from the program as it stands.

    python3 perfbench/reference.py

The reference holds, for the default seed, the outputs of a few ops of each
workload and the d that tune_d chose in each.  Every benchmark run replays
them and fails its correctness check on a difference beyond the workload's
solver tolerance.  Regenerate only for a change that is meant to alter
outputs, and say so in the change.
"""

import json

import run


def main():
    run.import_program()
    from workloads import WORKLOADS

    reference = {
        name: {
            "seed": run.DEFAULT_SEED,
            "ops": run.replay(cls, run.DEFAULT_SEED, cls.reference_ops),
        }
        for name, cls in WORKLOADS.items()
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
