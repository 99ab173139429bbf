"""Helpers the test modules import by name; fixtures stay in ``conftest``.

A module named ``conftest`` is not importable by name once another
suite's ``conftest`` (``perfbench/tests``) joins the same pytest run.
"""

import numpy as np

from dynpanel import PanelSeries
from dynpanel.transforms import demean_by_entity

DATA_DIR = __file__.rsplit("/", 1)[0] + "/data"
TABLE1 = DATA_DIR + "/table1_premiums.csv"


def grid(values_2d) -> PanelSeries:
    """PanelSeries from a nested list with None for absent cells."""
    arr = np.array(
        [[np.nan if v is None else float(v) for v in row] for row in values_2d]
    )
    return PanelSeries(arr, ~np.isnan(arr))


def demean_grid(values, mask, theta=1.0):
    """Each row of a grid less theta_a times its mean over its present cells,
    by ``demean_by_entity``; absent (NaN) cells stay NaN."""
    rows = np.repeat(np.arange(values.shape[0]), values.shape[1])
    return demean_by_entity(values.ravel(), rows, theta, mask.ravel()).reshape(values.shape)
