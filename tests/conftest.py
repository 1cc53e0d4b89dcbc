import warnings

import numpy as np
import pytest

import refgame as rg

# A failing @given test makes hypothesis's pytest plugin import this module
# to suggest a patch. Where libcst 1.0.1 is installed, that import warns
# (mypy_extensions.TypedDict is deprecated), filterwarnings = ["error"]
# makes the warning an INTERNALERROR, and the session ends without its
# summary. Imported once here with the warning ignored, the module is
# already loaded when the plugin asks for it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst missing: the plugin makes no suggestion
        pass

# Market 279 of the benchmark's sweep (bench/workloads.py, make_markets),
# frozen as a literal so that tier-1 does not import bench/. Where firm H's
# reference runs far above its price, d_H rounds to 1: at p = (1, 1),
# r = (30, 1) the true 1 - d_H is 6.8e-43, and a subtraction gives 0 or 2^-53.
SATURATED = rg.MarketParams(
    firm_H=rg.FirmParams(a=51.88463513085218, b=0.18824291688731337, c=1.8485389935518624),
    firm_L=rg.FirmParams(a=10.599684460719814, b=2.385029211902435, c=1.7593511153176002),
    alpha=0.291332591444203,
    p_lo=0.21716153657251372,
    p_hi=266.9523140634842,
)
# Market 100 of the same sweep: the best-response alternation that preceded
# Newton ran out 100000 rounds here.
STIFF = rg.MarketParams(
    firm_H=rg.FirmParams(a=0.1153932072594559, b=2.284172105252009, c=2.429337476968917),
    firm_L=rg.FirmParams(a=5.5994731056425, b=0.4871002131838462, c=0.6692522316912924),
    alpha=0.37016484196656,
    p_lo=0.19094052622588184,
    p_hi=8.092705084036004,
)


@pytest.fixture(scope="session")
def fig1() -> rg.MarketParams:
    """The bundled two-firm demonstration instance."""
    return rg.figure1_params()


@pytest.fixture(scope="session")
def fig1_sne(fig1) -> rg.SneSolution:
    return rg.solve_sne(fig1)


@pytest.fixture(scope="session")
def symmetric() -> rg.MarketParams:
    """Identical firms; the stationary point must be symmetric."""
    firm = rg.FirmParams(a=10.0, b=1.0, c=1.0)
    return rg.MarketParams(firm_H=firm, firm_L=firm, alpha=0.5, p_lo=0.4, p_hi=8.0)


def in_box_states(params: rg.MarketParams, n: int, seed: int) -> np.ndarray:
    """n random (p_H, p_L, r_H, r_L) rows drawn uniformly from the box."""
    rng = np.random.default_rng(seed)
    return rng.uniform(params.p_lo, params.p_hi, size=(n, 4))


def derivative_partials(params: rg.MarketParams, point: rg.PricePair) -> np.ndarray:
    """The 2 x 4 partials of G at the state (point, point), in state order:
    row i holds dG_i/dp_H, dG_i/dp_L, dG_i/dr_H, dG_i/dr_L, so that the
    first two columns are G_p and the last two G_r."""
    part = rg.scaled_derivative_partials(params, point, point)
    # a partials row is ordered [own p, other p, own r, other r]; put L's
    # into state order
    return np.array([part[0], part[1][[1, 0, 3, 2]]])


def step_jacobian(params: rg.MarketParams, point: rg.PricePair, eta: float) -> np.ndarray:
    """Jacobian of one ascent period at the stationary state (point, point).

    State order (p_H, p_L, r_H, r_L); the box projection is taken as
    inactive, so ``point`` must lie inside the box. Prices move by
    eta * D_i = eta * (b_i+c_i) * G_i, with the partials of G_i from
    ``scaled_derivative_partials``; references follow alpha*r + (1-alpha)*p.
    """
    s = [f.b + f.c for f in params.firms]
    jac = np.zeros((4, 4))
    jac[:2] = eta * np.asarray(s)[:, None] * derivative_partials(params, point)
    jac[:2, :2] += np.eye(2)
    jac[2:, :2] = (1.0 - params.alpha) * np.eye(2)
    jac[2:, 2:] = params.alpha * np.eye(2)
    return jac


def spectral_radius(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


TRAJECTORY_COLUMNS = ("p_H", "p_L", "r_H", "r_L", "D_H", "D_L")


def built_columns(traj: rg.Trajectory) -> set:
    """The columns ``traj`` has built: a column attribute keeps the array
    it builds on first read in the trajectory's ``vars`` under its name."""
    return set(TRAJECTORY_COLUMNS) & vars(traj).keys()


def stored(traj: rg.Trajectory) -> int:
    """Number of records the trajectory holds in memory."""
    sizes = {records.size for records in traj._records}
    assert len(traj._records) == 6 and len(sizes) == 1
    return sizes.pop()
