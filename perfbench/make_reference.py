"""Write perfbench/reference_sums.json: Sigma_I and Sigma_II of the sums
workload at its reference seed, the stored values its check compares to.

    python3 perfbench/make_reference.py      (from the repository root)

Regenerate only when the definition of the workload's inputs changes; the
values come from the library and are checked against the bench's own
oracle (workloads.sums_oracle) before they are written.
"""

import json
import os
import sys

import run

run.import_library()
import workloads  # noqa: E402  (needs klsums on sys.path)

wl = workloads.WORKLOADS["sums"]
inp = wl.setup(wl.reference_seed)
outs = [op() for op in wl.ops(inp)]
tol = 1e-6 * wl.q**1.5
for b, rep in zip(inp["bs"], outs):
    s1, s2 = workloads.sums_oracle(inp["table"].values, b)
    if abs(rep.sigma_I - s1) > tol or abs(rep.sigma_II - s2) > tol:
        sys.exit(f"library and oracle disagree at b = {b.tolist()}")
with open(wl.reference_file, "w") as fh:
    json.dump({"q": wl.q, "seed": wl.reference_seed,
               "values": [[r.sigma_I.real, r.sigma_I.imag, r.sigma_II] for r in outs]}, fh)
    fh.write("\n")
print(f"wrote {os.path.relpath(wl.reference_file)}")
