#!/usr/bin/env python3
"""Record the protocol workload's reference results into reference.json.

    python3 perfbench/record_reference.py --seeds 68

For each protocol seed s in [0, seeds) it runs ``mvcl synth --seed s`` and
``mvcl benchmark --ablate cmc --seed s`` exactly as the workload does, with
the same thread pin, and stores the accuracy rows and the paired Mean-row
margin. The protocol workload checks every later run of a recorded seed
against them. Re-record only when the protocol itself changes; a margin
moved by a library change is a finding to report, not a reference to update.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, required=True)
    args = p.parse_args(argv)

    run.pin_threads()
    sys.path.insert(0, str(run.SRC))
    import workloads

    out = {}
    for s in range(args.seeds):
        workdir = run.OUT / f"reference-{s}"
        workloads.clean(workdir)
        state = workloads.WORKLOADS["protocol"].setup(s, workdir, False)
        _, rc, _ = workloads.WORKLOADS["protocol"].call(state, 0)
        if rc != 0:
            print(f"error: protocol seed {s} exited {rc}", file=sys.stderr)
            return 1
        rows = workloads.read_report(workdir / f"report{s}.csv")
        workloads.clean(workdir)
        out[str(s)] = {"rows": rows, "margin": rows["Mean"][0] - rows["Mean"][2]}
        print(f"seed {s}: Mean-row margin {out[str(s)]['margin']:+.4f}", flush=True)

    obj = {"provenance": run.provenance(0) | {"seed": None}, "protocol": out}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
