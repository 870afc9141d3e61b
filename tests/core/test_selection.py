"""The paper's Sections 4-5 selection conclusions, asked through Study."""

import pytest

from repro import (
    ArchitectureParameters,
    ST_CMOS09_HS,
    ST_CMOS09_LL,
    ST_CMOS09_ULL,
    Study,
)
from repro.core.calibration import calibrate_row
from repro.experiments.paper_data import PAPER_FREQUENCY, TABLE1_BY_NAME

FLAVOURS = (ST_CMOS09_ULL, ST_CMOS09_LL, ST_CMOS09_HS)


@pytest.fixture
def multipliers():
    rows = [TABLE1_BY_NAME["RCA"], TABLE1_BY_NAME["Wallace"], TABLE1_BY_NAME["Sequential"]]
    return [calibrate_row(row, ST_CMOS09_LL, PAPER_FREQUENCY) for row in rows]


@pytest.fixture
def impossible():
    return ArchitectureParameters(
        name="impossible", n_cells=100, activity=0.1,
        logical_depth=100000, capacitance=10e-15,
    )


def _select(architectures, technologies):
    """The exact numerical answer for every (architecture, technology)."""
    return (
        Study("selection")
        .architectures(*architectures)
        .technologies(*technologies)
        .frequencies(PAPER_FREQUENCY)
        .solver("numerical")
        .jobs(1)
        .run()
    )


class TestArchitectureRanking:
    def test_wallace_wins_on_ll(self, multipliers):
        winner = _select(multipliers, [ST_CMOS09_LL]).best()
        assert winner.architecture == "Wallace"

    def test_rank_order_matches_table1(self, multipliers):
        ranked = _select(multipliers, [ST_CMOS09_LL]).rank()
        assert [record.architecture for record in ranked] == [
            "Wallace", "RCA", "Sequential",
        ]

    def test_infeasible_candidates_sorted_last(self, multipliers, impossible):
        ranked = _select(multipliers + [impossible], [ST_CMOS09_LL]).rank()
        assert ranked[-1].architecture == "impossible"
        assert not ranked[-1].feasible
        assert ranked[-1].ptot_or_inf == float("inf")
        assert ranked[-1].reason != ""


class TestTechnologyRanking:
    def test_ll_wins_for_wallace(self):
        """Section 5's conclusion: the moderate flavour beats both extremes
        for the Wallace multiplier at 31.25 MHz."""
        arch = calibrate_row(TABLE1_BY_NAME["Wallace"], ST_CMOS09_LL, PAPER_FREQUENCY)
        assert _select([arch], FLAVOURS).best().technology == "ST-CMOS09-LL"

    def test_rank_technologies_returns_all(self):
        arch = calibrate_row(TABLE1_BY_NAME["Wallace"], ST_CMOS09_LL, PAPER_FREQUENCY)
        ranked = _select([arch], FLAVOURS).rank()
        assert len(ranked) == 3
        assert all(record.feasible for record in ranked)


class TestSelectionMatrix:
    def test_matrix_covers_product(self, multipliers):
        result = _select(multipliers, [ST_CMOS09_LL, ST_CMOS09_HS])
        pairs = {(record.architecture, record.technology) for record in result}
        assert len(pairs) == len(result) == len(multipliers) * 2
        assert ("Wallace", "ST-CMOS09-LL") in pairs

    def test_matrix_entries_carry_results(self, multipliers):
        result = _select(multipliers, [ST_CMOS09_LL])
        (record,) = result.filter(lambda r: r.architecture == "RCA")
        assert record.feasible
        assert record.ptot > 0


class TestDeprecationShim:
    """The deprecated ``repro.core.selection`` shim is gone (1.11.0)."""

    def test_plain_import_repro_does_not_import_selection(self):
        import subprocess
        import sys

        # A fresh interpreter: `import repro` emits no DeprecationWarning,
        # and neither the module nor its seven names exist any more.
        code = (
            "import warnings\n"
            "with warnings.catch_warnings():\n"
            "    warnings.simplefilter('error', DeprecationWarning)\n"
            "    import repro\n"
            "try:\n"
            "    import repro.core.selection\n"
            "except ModuleNotFoundError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('repro.core.selection imports')\n"
            "names = ('Candidate', 'best_architecture', 'best_technology',\n"
            "         'evaluate_candidates', 'rank_architectures',\n"
            "         'rank_technologies', 'selection_matrix')\n"
            "assert not any(hasattr(repro, n) for n in names)\n"
            "assert not any(hasattr(repro.core, n) for n in names)\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)
