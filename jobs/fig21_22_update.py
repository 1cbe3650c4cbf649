"""Figs. 21/22: index update time (batch inserts / updates) vs beta."""
from _common import emit

from repro.experiments import BUILD_WB, Workbench, fig21_22_index_update


def main() -> None:
    wb = Workbench.make(**BUILD_WB)
    df = fig21_22_index_update(wb)
    emit("fig21_insert_time", df[df["op"] == "insert"], "beta")
    emit("fig22_update_time", df[df["op"] == "update"], "beta")


if __name__ == "__main__":
    main()
