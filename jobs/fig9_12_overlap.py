"""Figs. 9-12: OJSP search time vs k, theta, q and f (5 methods)."""
from _common import emit

from repro.experiments import SEARCH_WB, Workbench, search_time_sweep
from repro.params import F_VALUES, K_VALUES, Q_VALUES, THETA_VALUES


def main() -> None:
    wb = Workbench.make(**SEARCH_WB)
    emit("fig9_overlap_vs_k", search_time_sweep(wb, "overlap", "k", K_VALUES), "k")
    emit("fig10_overlap_vs_theta", search_time_sweep(wb, "overlap", "theta", THETA_VALUES), "theta")
    emit("fig11_overlap_vs_q", search_time_sweep(wb, "overlap", "q", Q_VALUES), "q")
    # Only OverlapSearch and Rtree have a leaf capacity (paper §VII-C.1).
    fig12 = search_time_sweep(wb, "overlap", "f", F_VALUES, methods=("OverlapSearch", "Rtree"))
    emit("fig12_overlap_vs_f", fig12, "f")


if __name__ == "__main__":
    main()
