"""One module per paper artifact (tables and figures of the evaluation)."""

from repro.experiments.fig5 import Fig5Result, run_fig5
from repro.experiments.fig9 import Fig9Result, run_fig9
from repro.experiments.fig10 import Fig10Result, run_fig10
from repro.experiments.runner import ReproductionReport, run_all
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.table4 import Table4Result, run_table4
from repro.experiments.table5 import Table5Result, run_table5

__all__ = [
    "run_table2",
    "Table2Result",
    "run_table4",
    "Table4Result",
    "run_table5",
    "Table5Result",
    "run_fig5",
    "Fig5Result",
    "run_fig9",
    "Fig9Result",
    "run_fig10",
    "Fig10Result",
    "run_all",
    "ReproductionReport",
]
