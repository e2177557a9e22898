#!/usr/bin/env python3
"""Survey the stratification of the nilpotent cone across small types.

Prints, for each type, the cone dimension, the number of top-dimensional
strata (always the Coxeter count), the total stratum count, and the full
dimension histogram.

Usage:
    python3 scripts/nilcone_survey.py A1 A2 B2 G2 A3 B3
"""

import argparse
from collections import Counter

from kvcalc import rootdata, vinberg


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("types", nargs="*", default=["A1", "A2", "B2", "G2", "A3"])
    args = ap.parse_args()

    print("type\tdim\ttop\tstrata\thistogram")
    for label in args.types:
        rd = rootdata.build_root_datum(label)
        strata_list = vinberg.nilcone_strata(rd)
        summary = vinberg.nilcone_report(rd, strata_list)
        hist = Counter(s.dim for s in strata_list)
        hist_str = " ".join(f"{d}:{n}" for d, n in sorted(hist.items()))
        print(
            f"{label}\t{summary.dim}\t{summary.top_count}\t"
            f"{summary.strata_count}\t{hist_str}"
        )


if __name__ == "__main__":
    main()
