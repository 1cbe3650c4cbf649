"""Figs. 19/20: CJSP communication cost (bytes, transfer time) vs q."""
from _common import emit

from repro.experiments import COV_WB, Workbench, comm_sweep
from repro.params import Q_VALUES


def main() -> None:
    df = comm_sweep(Workbench.make(**COV_WB), "coverage", Q_VALUES)
    emit("fig19_coverage_comm_bytes", df, "q", "kbytes")
    emit("fig20_coverage_comm_time", df, "q", "transfer_s")


if __name__ == "__main__":
    main()
