"""Run the split-point and reiteration verifications and print windows.

For each registered decomposition case the two-sided equivalence is
measured over the prototype corpus at two grid sizes; the reported
window is the max/min spread of lhs/rhs ratios, and stability is the
relative change of the window under grid doubling.
"""

from interpolab.holmstedt import DEFAULT_CASES, verify_holmstedt
from interpolab.reiteration import ReiterationCase, verify_reiteration


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
        for theta in (0.25, 0.5, 0.75):
            case = ReiterationCase(DEFAULT_CASES[kind], theta)
            show(verify_reiteration(case, log2n=(9, 10)))


if __name__ == "__main__":
    main()
