"""Figs. 15-18: CJSP search time vs k, theta, q and delta (3 methods)."""
from _common import emit

from repro.experiments import COV_WB, Workbench, search_time_sweep
from repro.params import DELTA_VALUES, K_VALUES, Q_VALUES, THETA_VALUES


def main() -> None:
    wb = Workbench.make(**COV_WB)
    emit("fig15_coverage_vs_k", search_time_sweep(wb, "coverage", "k", K_VALUES), "k")
    emit("fig16_coverage_vs_theta", search_time_sweep(wb, "coverage", "theta", THETA_VALUES), "theta")
    emit("fig17_coverage_vs_q", search_time_sweep(wb, "coverage", "q", Q_VALUES), "q")
    emit("fig18_coverage_vs_delta", search_time_sweep(wb, "coverage", "delta", DELTA_VALUES), "delta")


if __name__ == "__main__":
    main()
