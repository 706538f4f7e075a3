"""Classical symbols with finite homogeneous expansions and their
quadratic forms against band-limited states.

A term of order m evaluates as

    a(x, xi) = psi(|xi|) * |xi|^m * c(x) * h(xi/|xi|),

with c(x) a smooth coefficient, h an angular pair (values at -1 and +1),
and psi a fixed low-frequency cutoff vanishing for |xi| <= 1/4 and equal
to one for |xi| >= 1/2.  Homogeneity a(x, t*xi) = t^m a(x, xi) is exact
for |xi| >= 1/2 and t >= 1.  The ground-truth observable is the exact
finite sum of its terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .spectral_core import SpectralPatch, evaluate_physical, require_tail_small
from .wave_packets import WavePacketFamily


def _smoothstep_quintic(u: np.ndarray) -> np.ndarray:
    return u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))


def _smoothstep_heptic(u: np.ndarray) -> np.ndarray:
    return u ** 4 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))


_BRIDGES = {"quintic": _smoothstep_quintic, "heptic": _smoothstep_heptic}


@dataclass(frozen=True)
class LowFreqCutoff:
    """Radial cutoff psi: 0 on |xi| <= 1/4, 1 on |xi| >= 1/2, polynomial
    spline bridge between.  ``bridge`` selects the spline; results of any
    packet experiment are independent of the choice because packet spectra
    never reach |xi| < 1/2.
    """

    bridge: str = "quintic"

    def __call__(self, r: np.ndarray) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        out = np.ones_like(r)
        out[r <= 0.25] = 0.0
        mid = (r > 0.25) & (r < 0.5)
        out[mid] = _BRIDGES[self.bridge]((r[mid] - 0.25) / 0.25)
        return out


DEFAULT_CUTOFF = LowFreqCutoff()


@dataclass(frozen=True)
class HomogeneousTerm:
    """One homogeneous term of the expansion."""

    order: float
    coefficient: object            # callable c(x) with an is_constant flag
    h_minus: float = 1.0
    h_plus: float = 1.0
    cutoff: LowFreqCutoff = field(default=DEFAULT_CUTOFF)

    @property
    def is_x_independent(self) -> bool:
        return bool(getattr(self.coefficient, "is_constant", False))

    def angular(self, xi: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(xi, dtype=float) >= 0.0, self.h_plus, self.h_minus)

    def spectral_factor(self, xi: np.ndarray) -> np.ndarray:
        """The xi-part psi(|xi|) |xi|^m h(sign xi); zero near the origin."""
        xi = np.asarray(xi, dtype=float)
        r = np.abs(xi)
        out = np.zeros_like(r)
        live = r > 0.25
        out[live] = (
            self.cutoff(r[live]) * r[live] ** self.order * self.angular(xi[live])
        )
        return out

    def eval(self, x, xi) -> np.ndarray:
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        return self.spectral_factor(xi) * np.asarray(self.coefficient(x))


@dataclass(frozen=True)
class SymbolExpansion:
    """Finitely many homogeneous terms with strictly decreasing orders."""

    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        if len(terms) < 1:
            raise ConfigError("symbols: expansion needs at least one term")
        orders = [t.order for t in terms]
        if any(b >= a for a, b in zip(orders, orders[1:])):
            raise ConfigError(
                "symbols: orders must be strictly decreasing, got "
                + ", ".join(f"{m:g}" for m in orders)
            )
        object.__setattr__(self, "terms", terms)

    @property
    def orders(self) -> list:
        return [t.order for t in self.terms]

    def eval(self, x, xi) -> np.ndarray:
        total = None
        for term in self.terms:
            v = term.eval(x, xi)
            total = v if total is None else total + v
        return total


@dataclass(frozen=True)
class Observable:
    """The simulated ground truth: a finite expansion taken as exact symbol."""

    symbol: SymbolExpansion

    @property
    def terms(self) -> tuple:
        return self.symbol.terms


def eval_symbol(obj, x, xi):
    """Evaluate a term, expansion, or observable at (x, xi)."""
    if isinstance(obj, Observable):
        return obj.symbol.eval(x, xi)
    if isinstance(obj, SymbolExpansion):
        return obj.eval(x, xi)
    return obj.eval(x, xi)


def _as_terms(P) -> tuple:
    if isinstance(P, Observable):
        return P.terms
    if isinstance(P, SymbolExpansion):
        return P.terms
    if isinstance(P, HomogeneousTerm):
        return (P,)
    raise TypeError(f"symbols: cannot interpret {type(P).__name__} as a symbol")


# ---------------------------------------------------------------------------
# Quadratic forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhysicalGrid:
    """Uniform midpoint grid in physical space for the outer x-quadrature."""

    center: float
    half_width: float
    num_points: int = 2048

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.num_points

    def points(self) -> np.ndarray:
        return (
            self.center
            - self.half_width
            + (np.arange(self.num_points) + 0.5) * self.spacing
        )

    @classmethod
    def for_packet(
        cls, family: WavePacketFamily, t: float, num_points: int = 2048,
        radius_scale: float = 1.0,
    ) -> "PhysicalGrid":
        radius = radius_scale * family.profile.support_radius / t
        return cls(family.x0, radius, num_points)


def quadratic_form(
    f: SpectralPatch, P, x_grid: PhysicalGrid, tail_tol: float = 1e-6
) -> complex:
    """(f|Pf) by nested midpoint quadrature.

    For x-independent symbols the x-integral collapses to a single
    frequency sum; that fast path is also exposed for cross-checks via
    ``quadratic_form_diagonal``.
    """
    terms = _as_terms(P)
    if all(t.is_x_independent for t in terms):
        return quadratic_form_diagonal(f, P)

    x = x_grid.points()
    fx = evaluate_physical(f, x)
    require_tail_small(fx, tail_tol, "symbols: quadratic_form x-grid")
    total = 0.0 + 0.0j
    xi = f.window.grid()
    for term in terms:
        weighted = SpectralPatch(
            f.window, f.values * term.spectral_factor(xi), dim=f.dim
        )
        action = evaluate_physical(weighted, x)
        cvals = np.asarray(term.coefficient(x))
        total += np.sum(np.conj(fx) * cvals * action) * x_grid.spacing
    return complex(total)


def quadratic_form_diagonal(f: SpectralPatch, P) -> complex:
    """Fast path for x-independent symbols: sum a(xi) |fhat|^2 dxi."""
    xi = f.window.grid()
    density = np.abs(f.values) ** 2 * f.window.spacing
    total = 0.0 + 0.0j
    for term in _as_terms(P):
        if not term.is_x_independent:
            raise ConfigError(
                "symbols: diagonal fast path requires x-independent coefficients"
            )
        c = float(np.asarray(term.coefficient(0.0)))
        total += c * np.sum(term.spectral_factor(xi) * density)
    return complex(total)


def packet_quadratic_form(
    family: WavePacketFamily, t_nodes, P, x0=None, chunk: int = 2048,
) -> np.ndarray:
    """(f_t|P f_t) for a batch of packet scales, on unit-scale grids.

    Uses the substitution y = t*(x - x0), eta = (xi - t^lam*xi0)/t, under
    which every node shares the same fixed y and eta grids:

        (f_t|P f_t) = sum_j integral chi(y) c_j(x0 + y/t) S_j,t(y) dy,
        S_j,t(y) = (2*pi)^(-1/2) integral exp(i*y*eta)
                   s_j(t^lam*xi0 + t*eta) chi_hat(eta) deta,

    where s_j is the xi-part of term j.  Agrees with ``quadratic_form``
    to quadrature accuracy and is the route used in node-heavy loops.

    S_j,t does not depend on x0, so it is computed once per term and node
    chunk and shared by every base point.  An array ``x0`` adds a leading
    base-point axis to the result.  A coefficient with an
    ``integrate(x, weights)`` method computes the y-sum itself; a
    vector-valued one (trailing axes on its values) adds those axes
    before the nodes.
    """
    profile = family.profile
    x0s = np.atleast_1d(np.asarray(family.x0 if x0 is None else x0, dtype=float))
    t_nodes = np.atleast_1d(np.asarray(t_nodes, dtype=float))
    out = None
    for term in _as_terms(P):
        integrate = getattr(term.coefficient, "integrate", None)
        for lo in range(0, t_nodes.size, chunk):
            ts = t_nodes[lo : lo + chunk]
            centers = ts ** family.lam * family.xi0
            xi_grid = centers[None, :] + np.outer(profile.eta, ts)  # (eta, k)
            svals = term.spectral_factor(xi_grid)
            s_y = profile.unit_kernel @ (profile.chi_hat_eta[:, None] * svals)
            offsets = np.outer(profile.y, 1.0 / ts)                 # (y, k)
            if integrate is not None:
                weighted = profile.y_weights[:, None] * s_y
            for i, base in enumerate(x0s):
                if integrate is None:
                    cvals = np.asarray(term.coefficient(base + offsets))
                    form = np.einsum("y,yk,yk->k", profile.y_weights, cvals, s_y)
                else:
                    form = integrate(base + offsets, weighted)
                if out is None:
                    out = np.zeros((x0s.size, *form.shape[:-1], t_nodes.size), complex)
                out[i, ..., lo : lo + chunk] += form
    return out if np.ndim(x0) else out[0]


def asymptotic_error_probe(
    P: Observable, family: WavePacketFamily, t_list
) -> dict:
    """Noise-free scaling errors |t^(-lam*m) (f_t|Pf_t) - a_1(x0, xi0)|."""
    t_list = np.asarray(t_list, dtype=float)
    lead = P.terms[0]
    truth = complex(lead.eval(family.x0, family.xi0))
    values = packet_quadratic_form(family, t_list, P)
    scaled = values * t_list ** (-family.lam * lead.order)
    errors = np.abs(scaled - truth)
    return {
        "t": t_list,
        "scaled_values": scaled,
        "truth": truth,
        "errors": errors,
    }

