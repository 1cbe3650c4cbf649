"""Figs. 13/14: OJSP communication cost (bytes, transfer time) vs q."""
from _common import emit

from repro.experiments import COMM_WB, Workbench, comm_sweep
from repro.params import Q_VALUES


def main() -> None:
    df = comm_sweep(Workbench.make(**COMM_WB), "overlap", Q_VALUES)
    emit("fig13_overlap_comm_bytes", df, "q", "kbytes")
    emit("fig14_overlap_comm_time", df, "q", "transfer_s")


if __name__ == "__main__":
    main()
