"""Architecture selection (paper Section 4): transforms and crossovers.

Starting from the basic array multiplier, apply the paper's three
transformations — parallelisation, pipelining, sequentialisation — at the
parameter level, rank the resulting design space at 31.25 MHz, and sweep
frequency to find where cheap-but-slow beats big-but-relaxed.

Run:  python examples/architecture_exploration.py
"""

import numpy as np

from repro import (
    ST_CMOS09_LL,
    ArchitectureParameters,
    Study,
    crossover_frequency,
    frequency_sweep,
    parallelize,
    pipeline,
    sequentialize,
)

FREQUENCY = 31.25e6

# The basic RCA array multiplier (Table 1 shape, DESIGN.md calibration).
rca = ArchitectureParameters(
    name="RCA",
    n_cells=608,
    activity=0.5056,
    logical_depth=61.0,
    capacitance=70e-15,
    io_factor=18.0,
    zeta_factor=0.2,
)


def main() -> None:
    candidates = [
        rca,
        parallelize(rca, 2),
        parallelize(rca, 4),
        pipeline(rca, 2, style="horizontal"),
        pipeline(rca, 4, style="horizontal"),
        pipeline(rca, 2, style="diagonal"),
        pipeline(rca, 4, style="diagonal"),
        sequentialize(rca, 16),
    ]

    print(f"Design space around the RCA multiplier at {FREQUENCY / 1e6:g} MHz\n")
    ranked = (
        Study("architecture-exploration")
        .architectures(*candidates)
        .technologies(ST_CMOS09_LL)
        .frequencies(FREQUENCY)
        .solver("numerical")
        .run()
        .rank()
    )
    for position, record in enumerate(ranked, start=1):
        if record.feasible:
            print(
                f"{position}. {record.architecture:14s} Ptot = {record.ptot * 1e6:8.2f} uW   "
                f"(N={record.n_cells:.0f}, a={record.activity:.3f}, "
                f"LD={record.logical_depth:.1f})"
            )
        else:
            print(f"{position}. {record.architecture:14s} infeasible: {record.reason}")

    # Section 4's frequency argument: sequential only pays off when the
    # clock is slow.  Sweep and locate the basic-vs-parallel crossover.
    print("\nOptimal power vs frequency (uW):")
    frequencies = np.geomspace(0.5e6, 60e6, 9)
    table = frequency_sweep([rca, parallelize(rca, 4)], ST_CMOS09_LL, frequencies)
    header = "f [MHz]  " + "  ".join(f"{name:>12s}" for name in list(table)[1:])
    print(header)
    for index, frequency in enumerate(frequencies):
        cells = "  ".join(
            f"{table[name][index] * 1e6:12.2f}" for name in list(table)[1:]
        )
        print(f"{frequency / 1e6:7.2f}  {cells}")

    crossover = crossover_frequency(
        rca, parallelize(rca, 4), ST_CMOS09_LL, 0.5e6, FREQUENCY
    )
    if crossover is not None:
        print(
            f"\nBelow ~{crossover / 1e6:.1f} MHz the basic multiplier wins "
            f"(parallel overhead outweighs relaxed timing); above it, "
            f"4-way parallelism is cheaper — Section 4's trade-off, located."
        )
    else:
        print("\nNo crossover found in the swept range.")


if __name__ == "__main__":
    main()
