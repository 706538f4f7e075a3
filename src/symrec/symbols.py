"""Classical symbols with finite homogeneous expansions and their
quadratic forms against wave packets.

A term of order m evaluates as

    a(x, xi) = psi(|xi|) * |xi|^m * c(x) * h(xi/|xi|),

with c(x) a smooth coefficient, h an angular pair (values at -1 and +1),
and psi a fixed low-frequency cutoff vanishing for |xi| <= 1/4 and equal
to one for |xi| >= 1/2.  Homogeneity a(x, t*xi) = t^m a(x, xi) is exact
for |xi| >= 1/2 and t >= 1.  The ground-truth observable is the exact
finite sum of its terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .wave_packets import WavePacketFamily


def _smoothstep_quintic(u: np.ndarray) -> np.ndarray:
    return u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))


def low_freq_cutoff(r: np.ndarray) -> np.ndarray:
    """Radial cutoff psi: 0 on |xi| <= 1/4, 1 on |xi| >= 1/2, quintic
    smoothstep between.  Packet spectra never reach |xi| < 1/2, so no packet
    experiment sees the bridge.
    """
    r = np.abs(np.asarray(r, dtype=float))
    out = np.ones_like(r)
    out[r <= 0.25] = 0.0
    mid = (r > 0.25) & (r < 0.5)
    out[mid] = _smoothstep_quintic((r[mid] - 0.25) / 0.25)
    return out


@dataclass(frozen=True)
class HomogeneousTerm:
    """One homogeneous term of the expansion."""

    order: float
    coefficient: object            # callable c(x) on numpy arrays
    h_minus: float = 1.0
    h_plus: float = 1.0

    def angular(self, xi: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(xi, dtype=float) >= 0.0, self.h_plus, self.h_minus)

    def spectral_factor(self, xi: np.ndarray) -> np.ndarray:
        """The xi-part psi(|xi|) |xi|^m h(sign xi); zero near the origin."""
        xi = np.asarray(xi, dtype=float)
        r = np.abs(xi)
        out = np.zeros_like(r)
        live = r > 0.25
        out[live] = (
            low_freq_cutoff(r[live]) * r[live] ** self.order * self.angular(xi[live])
        )
        return out

    def eval(self, x, xi) -> np.ndarray:
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        return self.spectral_factor(xi) * np.asarray(self.coefficient(x))


@dataclass(frozen=True)
class SymbolExpansion:
    """Finitely many homogeneous terms with strictly decreasing orders.  As
    the simulated observable, it is taken as the exact symbol."""

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


def _as_terms(P) -> tuple:
    if isinstance(P, SymbolExpansion):
        return P.terms
    if isinstance(P, HomogeneousTerm):
        return (P,)
    raise TypeError(f"symbols: cannot interpret {type(P).__name__} as a symbol")


def spectral_transform(family: WavePacketFamily, term: HomogeneousTerm, ts) -> np.ndarray:
    """S_t(y) of ``term`` (see ``packet_quadratic_form``) on the unit y grid,
    shape (y, node) for the packet scales ``ts``.  It does not depend on x0."""
    profile = family.profile
    ts = np.asarray(ts, dtype=float)
    centers = ts ** family.lam * family.xi0
    xi_grid = centers[None, :] + np.outer(profile.eta, ts)  # (eta, k)
    svals = term.spectral_factor(xi_grid)
    return profile.unit_kernel @ (profile.chi_hat_eta[:, None] * svals)


def packet_quadratic_form(
    family: WavePacketFamily, t_nodes, P, x0=None, chunk: int = 2048,
) -> np.ndarray:
    """(f_t|P f_t) for a batch of packet scales, on unit-scale grids.

    Uses the substitution y = t*(x - x0), eta = (xi - t^lam*xi0)/t, under
    which every node shares the same fixed y and eta grids:

        (f_t|P f_t) = sum_j integral chi(y) c_j(x0 + y/t) S_j,t(y) dy,
        S_j,t(y) = (2*pi)^(-1/2) integral exp(i*y*eta)
                   s_j(t^lam*xi0 + t*eta) chi_hat(eta) deta,

    where s_j is the xi-part of term j.  The tests check it against an
    independent nested quadrature on a physical grid.

    S_j,t does not depend on x0, so it is computed once per term and node
    chunk and shared by every base point.  An array ``x0`` adds a leading
    base-point axis to the result.
    """
    profile = family.profile
    x0s = np.atleast_1d(np.asarray(family.x0 if x0 is None else x0, dtype=float))
    t_nodes = np.atleast_1d(np.asarray(t_nodes, dtype=float))
    out = np.zeros((x0s.size, t_nodes.size), dtype=complex)
    for term in _as_terms(P):
        for lo in range(0, t_nodes.size, chunk):
            ts = t_nodes[lo : lo + chunk]
            s_y = spectral_transform(family, term, ts)
            offsets = np.outer(profile.y, 1.0 / ts)                 # (y, k)
            for i, base in enumerate(x0s):
                cvals = np.asarray(term.coefficient(base + offsets))
                out[i, lo : lo + chunk] += np.einsum(
                    "y,yk,yk->k", profile.y_weights, cvals, s_y
                )
    return out if np.ndim(x0) else out[0]


def asymptotic_error_probe(
    P: SymbolExpansion, family: WavePacketFamily, t_list
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

