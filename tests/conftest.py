import numpy as np
import pytest

from dynpanel import PanelDataset, PanelSeries, from_arrays
from dynpanel.transforms import demean_by_entity

DATA_DIR = __file__.rsplit("/", 1)[0] + "/data"
TABLE1 = DATA_DIR + "/table1_premiums.csv"

# contiguous per-entity run lengths summing to 320 cells over 31 firms;
# an AR(1) model on the FD/OD transform then loses 2 rows per firm,
# giving the 258-row estimation sample the fixtures are built around
SPAN_PATTERN = [11] * 20 + [9] * 10 + [10]


@pytest.fixture(scope="session")
def table1_path():
    return TABLE1


def build_brand_panel(seed: int = 3) -> PanelDataset:
    """31-firm premium/brand panel with the 320-cell span pattern."""
    rng = np.random.default_rng(seed)
    T = 11
    periods = list(range(2005, 2016))
    shape = (len(SPAN_PATTERN), T)
    pp = np.full(shape, np.nan)
    bv = np.full(shape, np.nan)
    bt = np.full(shape, np.nan)
    for a, L in enumerate(SPAN_PATTERN):
        start = int(rng.integers(0, T - L + 1))
        omega = rng.normal(0, 100)
        level = 300.0 + omega
        for j in range(start, start + L):
            bv[a, j] = abs(rng.normal(5000, 2000))
            bt[a, j] = float(rng.choice(np.arange(47.5, 100, 2.5)))
            level = 0.8 * level + 0.02 * bv[a, j] + 2.0 * bt[a, j] + omega + rng.normal(0, 30)
            pp[a, j] = level
    entities = [f"firm{a+1}" for a in range(len(SPAN_PATTERN))]
    return from_arrays(entities, periods, {"pp": pp, "bv": bv, "bt": bt})


@pytest.fixture(scope="session")
def brand_panel():
    return build_brand_panel()


@pytest.fixture(scope="session")
def brand_panel_csv(tmp_path_factory, brand_panel):
    path = tmp_path_factory.mktemp("brand") / "brand_panel.csv"
    brand_panel.to_long_csv(path)
    return str(path)


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
