"""Simulated panels are pinned cell for cell by SHA-256 digests.

``tests/data/golden/generate_digests.json`` holds one digest per case of
the ``DgpSpec`` grid below. Acceptance 6-8 and the Monte Carlo harness
rely on exact panels from fixed seeds. The digests pin numpy's PCG64
streams and x'beta summed left to right from the first product, which
makes no BLAS call, so they hold on any BLAS build; a mismatch means the
simulated data changed.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from dynpanel import DgpSpec, generate

GOLDEN = Path(__file__).parent / "data" / "golden" / "generate_digests.json"

BETAS = {1: (1.25,), 3: (1.25, -0.5, 0.3)}


def _case(missingness, y0, burn_in, n_x, loading, n_periods):
    return DgpSpec(
        n_entities=7, n_periods=n_periods, rho=0.6,
        exogenous_betas=BETAS[n_x], sigma_effect=1.3, sigma_noise=0.9,
        burn_in=burn_in, missingness=missingness, seed=11,
        effect_loading=loading, y0=y0,
    )


def cases():
    """(key, spec, replication) over the pinned grid."""
    full = itertools.product(
        (0.0, 0.1, 0.5), (None, 2.0), (0, 1, 50), (1, 3), (0.0, 0.7), (6,), (0, 3)
    )
    short = itertools.product((0.0,), (None, 2.0), (50,), (1, 3), (0.0,), (1,), (0, 3))
    for m, y0, burn, n_x, load, T, rep in itertools.chain(full, short):
        key = f"m={m},y0={y0},burn={burn},nx={n_x},load={load},T={T},rep={rep}"
        yield key, _case(m, y0, burn, n_x, load, T), rep


def panel_digest(data) -> str:
    """SHA-256 over labels, values and masks of every series."""
    h = hashlib.sha256()
    h.update(repr((data.entities, data.periods)).encode())
    for name in sorted(data.variables):
        s = data.require(name)
        h.update(name.encode())
        h.update(np.ascontiguousarray(s.values).tobytes())
        h.update(np.ascontiguousarray(s.mask).tobytes())
    return h.hexdigest()


def test_golden_file_covers_the_grid():
    golden = json.loads(GOLDEN.read_text())["digests"]
    assert sorted(golden) == sorted(key for key, _, _ in cases())
    assert len(golden) == 152


@pytest.mark.parametrize(
    "key,spec,rep", [pytest.param(*case, id=case[0]) for case in cases()]
)
def test_generate_matches_golden_digest(key, spec, rep):
    golden = json.loads(GOLDEN.read_text())["digests"]
    assert panel_digest(generate(spec, replication=rep)) == golden[key]
