import numpy as np
import pytest

from dynpanel import PanelDataset, from_arrays
from suite_helpers import TABLE1

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
