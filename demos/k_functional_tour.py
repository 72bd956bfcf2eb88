"""Tour of the K-functional machinery on a few rearrangement profiles.

Computes K(t, f; L1, Linf) for prototype decreasing rearrangements,
checks the square-root profile against its closed form, and shows how
a truncation oracle brackets the exact value from above.
"""

import numpy as np

from interpolab import (GridFunction, full_grid, unit_grid, k_peetre,
                        TruncationOracle, EndpointX0, EndpointX1)
from interpolab import corpus


def main():
    # exact case: f*(s) = s^(-1/2) on (0,1) gives K(t) = 2 sqrt(t)
    g = unit_grid(4096)
    f = GridFunction(g, np.exp(-0.5 * g.x))
    K = np.exp(k_peetre(f).logk)
    sl = g.interior()
    err = np.max(np.abs(K[sl] / (2.0 * np.sqrt(g.t[sl])) - 1.0))
    print(f"sqrt profile: max interior deviation from 2*sqrt(t) = {err:.2e}")

    # oracle vs exact on the standard corpus
    g = full_grid(1024)
    sl = g.interior()
    print("\noracle / exact K ratio (max over interior t):")
    for spec in ("chi:0.1", "pow:2", "powlog:2,1", "log:2"):
        f = corpus.sample(spec, g)
        K = k_peetre(f)
        exact = np.exp(K.logk[sl])
        est = TruncationOracle(K, EndpointX0(), EndpointX1()).k_at(g.t[sl])
        print(f"  {spec:12s} {np.max(est / exact):.4f}")


if __name__ == "__main__":
    main()
