"""The built-in data families and the physical <-> shifted map."""
import numpy as np

from blmhd.data import equilibrium, perturbed, physical, shifted
from blmhd.grid import GridSpec, field_from_function


def test_shifted_physical_round_trip():
    grid = GridSpec(nx=16, ny=64, y_max=15.0, stretch=2.0)
    ones = physical(equilibrium(grid))  # the uniform state (1, 1, 1)
    assert all(np.max(np.abs(f.values - 1.0)) < 1e-15 for f in ones)
    rho = field_from_function(grid, lambda x, y: 1.0 + 0.1 * np.exp(-(y**2)))
    u1 = field_from_function(grid, lambda x, y: 1.0 - np.exp(-y))
    r, us, hs = shifted(rho, u1, ones[2])
    assert np.allclose(r.values, rho.values - 1.0)
    assert us.max_abs() < 1e-14  # u1 = 1 - e^{-y} shifts to zero
    assert hs.max_abs() == 0.0
    # shifted undoes physical on a perturbed state
    st = perturbed(grid, seed=3, amplitude=0.05)
    for f, g in zip(shifted(*physical(st)), (st.rho_shift, st.u_shift, st.h_shift), strict=True):
        assert np.max(np.abs(f.values - g.values)) < 1e-15
