"""Write exact_deep_reference.json: the corpus under the free product, k = 1..7.

The stored values are the oracle that ``exact_deep`` and the sampler
workloads are checked against, so they are computed once, from a commit
whose exact route is trusted, and then left alone.  Run from the root of
a checkout:  python3 perfbench/make_reference.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from masterfield import DEFAULT_CORPUS, HolonomyField, evaluate  # noqa: E402

from run import git_commit  # noqa: E402
from workloads import REFERENCE  # noqa: E402


def main():
    field = HolonomyField()
    values = {w: [evaluate(field, w, k).value for k in range(1, 8)] for w in DEFAULT_CORPUS}
    doc = {
        "what": "evaluate(HolonomyField(), loop, k).value for k = 1..7",
        "commit": git_commit(),
        "values": values,
    }
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
