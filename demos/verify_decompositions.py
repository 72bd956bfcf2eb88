"""Run the split-point and reiteration verifications and print windows.

For each registered decomposition case the two-sided equivalence is
measured over the prototype corpus at two grid sizes; the reported
window is the max/min spread of lhs/rhs ratios, and stability is the
relative change of the window under grid doubling.
"""

from interpolab.grid import LINF
from interpolab.holmstedt import DEFAULT_CASES, verify_holmstedt
from interpolab.reiteration import verify_reiteration
from interpolab.spaces import Over, ThetaSpace
from interpolab.sv import ONE


def show(rep):
    win = max(rep.window(n) for n in rep.sizes())
    print(f"  {rep.case:24s} window={win:8.3f} "
          f"stability={rep.stability():.4f} "
          f"rows={rep.n_rows} excluded={len(rep.excluded)}")


def main():
    print("split-point decompositions:")
    for case in DEFAULT_CASES.values():
        show(verify_holmstedt(case, log2n=(9, 10)))

    print("\nreiteration (interior thetas):")
    for kind in ("R_interior", "L_interior"):
        c = DEFAULT_CASES[kind]
        for theta in (0.25, 0.5, 0.75):
            # the outer space (theta, 1, Linf) over the couple (Y0, Y1)
            d = Over((c.y0, c.y1), ThetaSpace(theta, ONE, LINF))
            show(verify_reiteration(d, log2n=(9, 10)))


if __name__ == "__main__":
    main()
