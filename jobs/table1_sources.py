"""Table I: statistics of the (synthetic) five data sources."""
from _common import emit

from repro.experiments import BUILD_WB, Workbench, table1_statistics


def main() -> None:
    wb = Workbench.make(**BUILD_WB)
    emit("table1_sources", table1_statistics(wb))


if __name__ == "__main__":
    main()
