"""Fig. 8: construction time and memory of the five indexes vs theta."""
from _common import emit

from repro.experiments import BUILD_WB, Workbench, fig8_index_construction


def main() -> None:
    wb = Workbench.make(**BUILD_WB)
    df = fig8_index_construction(wb)
    emit("fig8_build_time", df, "theta", "build_s")
    emit("fig8_memory", df, "theta", "memory_mb")


if __name__ == "__main__":
    main()
