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
from .wave_packets import WavePacketFamily, block_rows


def _smoothstep_quintic(u: np.ndarray) -> np.ndarray:
    return u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))


def low_freq_cutoff(r: np.ndarray) -> np.ndarray:
    """Radial cutoff psi: 0 on |xi| <= 1/4, 1 on |xi| >= 1/2, quintic
    smoothstep between.  A packet's spectrum lies above |xi| = t^lam - t, so
    it misses the bridge only when t^lam - t >= 1/2; at t = 1, the smallest
    admitted scale, it reaches down to |xi| = 1/256 on the eta grid.
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


def spectral_transform(family: WavePacketFamily, term: HomogeneousTerm, ts) -> tuple:
    """Real and imaginary parts of S_t(y) of ``term`` (see
    ``packet_quadratic_form``) on the unit y grid, each of shape (y, node)
    for the packet scales ``ts``.  They do not depend on x0.

    The integrand g = chi_hat s is real and the eta grid antisymmetric, so
    eta nodes n and -1 - n pair into cos(y eta_n) (g_n + g_{-1-n}) and
    i sin(y eta_n) (g_n - g_{-1-n}): two real products over half the grid."""
    profile = family.profile
    ts = np.asarray(ts, dtype=float)
    centers = ts ** family.lam * family.xi0
    xi_grid = centers[None, :] + np.outer(profile.eta, ts)  # (eta, k)
    g = profile.chi_hat_eta[:, None] * term.spectral_factor(xi_grid)
    half = profile.kernel_cos.shape[1]
    mirrored = g[::-1][:half]
    return profile.kernel_cos @ (g[:half] + mirrored), profile.kernel_sin @ (g[:half] - mirrored)


def packet_quadratic_form(
    family: WavePacketFamily, t_nodes, term: HomogeneousTerm, x0=None
) -> np.ndarray:
    """(f_t|P f_t) of one term P for a batch of packet scales, on unit-scale
    grids.

    Uses the substitution y = t*(x - x0), eta = (xi - t^lam*xi0)/t, under
    which every node shares the same fixed y and eta grids:

        (f_t|P f_t) = integral chi(y) c(x0 + y/t) S_t(y) dy,
        S_t(y) = (2*pi)^(-1/2) integral exp(i*y*eta)
                 s(t^lam*xi0 + t*eta) chi_hat(eta) deta,

    where s is the xi-part of the term.  The form of an expansion is the sum
    of its terms' forms.  The tests check it against an independent nested
    quadrature on a physical grid.

    S_t does not depend on x0, so it is computed once per node block, its
    real and imaginary parts weighted by chi(y) dy, and shared by every base
    point, which contracts each part with the coefficient in real arithmetic
    (a complex coefficient gives complex parts, and sum c S = sum c Re S +
    i sum c Im S).  A block holds as many nodes as fit ``BLOCK_ENTRIES``
    (y, node) entries: 128 on the 512-point y grid.  An array ``x0`` adds a
    leading base-point axis to the result.  The parts are weighted in place,
    and a block's arrays are freed before the next block's transform is
    evaluated.
    """
    profile = family.profile
    x0s = np.atleast_1d(np.asarray(family.x0 if x0 is None else x0, dtype=float))
    t_nodes = np.atleast_1d(np.asarray(t_nodes, dtype=float))
    out = np.zeros((x0s.size, t_nodes.size), dtype=complex)
    block = block_rows(profile.y.size)
    weights = profile.y_weights[:, None]
    for lo in range(0, t_nodes.size, block):
        ts = t_nodes[lo : lo + block]
        s_re, s_im = spectral_transform(family, term, ts)
        s_re *= weights
        s_im *= weights
        offsets = np.outer(profile.y, 1.0 / ts)                 # (y, k)
        for i, base in enumerate(x0s):
            cvals = np.asarray(term.coefficient(base + offsets))
            re = np.einsum("yk,yk->k", cvals, s_re)
            im = np.einsum("yk,yk->k", cvals, s_im)
            del cvals
            out[i, lo : lo + block] += re + 1j * im
        del s_re, s_im, offsets
    return out if np.ndim(x0) else out[0]


def asymptotic_error_probe(
    P: SymbolExpansion, family: WavePacketFamily, t_list
) -> dict:
    """Noise-free scaling errors |t^(-lam*m) (f_t|Pf_t) - a_1(x0, xi0)|."""
    t_list = np.asarray(t_list, dtype=float)
    lead = P.terms[0]
    truth = complex(lead.eval(family.x0, family.xi0))
    values = sum((packet_quadratic_form(family, t_list, term) for term in P.terms), 0j)
    scaled = values * t_list ** (-family.lam * lead.order)
    errors = np.abs(scaled - truth)
    return {
        "t": t_list,
        "scaled_values": scaled,
        "truth": truth,
        "errors": errors,
    }

