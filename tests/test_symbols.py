import numpy as np
import pytest

from symrec.errors import ConfigError, NumericalError
from symrec.expressions import parse_coeff
from symrec.symbols import (
    HomogeneousTerm,
    SymbolExpansion,
    asymptotic_error_probe,
    low_freq_cutoff,
    packet_quadratic_form,
)
from symrec.wave_packets import WavePacketFamily

from reference_quadrature import PhysicalGrid, make_packet, quadratic_form


def slope_of(probe):
    return np.polyfit(np.log(probe["t"]), np.log(probe["errors"]), 1)[0]


def test_eval_constant_term():
    term = HomogeneousTerm(0.0, parse_coeff("1"))
    assert term.eval(0.0, 3.0) == 1.0


def test_eval_signed_linear_term():
    term = HomogeneousTerm(1.0, parse_coeff("1"), h_minus=-1.0, h_plus=1.0)
    assert term.eval(0.0, 5.0) == 5.0
    assert term.eval(0.0, -5.0) == -5.0


def test_exact_homogeneity():
    term = HomogeneousTerm(1.5, parse_coeff("1 + x**2"))
    assert term.eval(0.3, 2.0) / term.eval(0.3, 1.0) == 2.0 ** 1.5
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = rng.uniform(1.0, 10.0)
        xi = rng.uniform(0.5, 20.0) * rng.choice([-1.0, 1.0])
        x = rng.uniform(-2, 2)
        lhs = term.eval(x, t * xi)
        rhs = t ** term.order * term.eval(x, xi)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_cutoff_plateaus():
    assert low_freq_cutoff(np.array([0.2]))[0] == 0.0
    assert low_freq_cutoff(np.array([0.6]))[0] == 1.0
    mid = low_freq_cutoff(np.linspace(0.26, 0.49, 20))
    assert np.all((mid > 0) & (mid < 1))
    assert np.all(np.diff(mid) > 0)


def test_zero_frequency_is_zero_even_for_negative_order():
    term = HomogeneousTerm(-1.0, parse_coeff("1"))
    assert term.eval(0.0, 0.0) == 0.0
    assert np.isfinite(term.eval(0.0, np.array([0.0, 0.1, 1.0]))).all()


def test_orders_must_decrease():
    with pytest.raises(ConfigError, match="strictly decreasing"):
        SymbolExpansion(
            (
                HomogeneousTerm(0.0, parse_coeff("1")),
                HomogeneousTerm(0.0, parse_coeff("1")),
            )
        )


def test_identity_quadratic_form(family):
    P = SymbolExpansion((HomogeneousTerm(0.0, parse_coeff("1")),))
    for t in (2.0, 8.0, 32.0):
        val = packet_quadratic_form(family, [t], P)[0]
        assert abs(val - 1.0) < 1e-6


def test_first_order_quadratic_form(family):
    # a(x, xi) = xi: integration by parts gives t^lam*xi0 for real profiles
    P = SymbolExpansion((HomogeneousTerm(1.0, parse_coeff("1"), h_minus=-1.0, h_plus=1.0),))
    for t in (2.0, 8.0, 32.0):
        val = packet_quadratic_form(family, [t], P)[0]
        target = t ** family.lam * family.xi0
        assert abs(val - target) < 1e-6 * abs(target)


def test_order_zero_forms_stay_bounded(family):
    # |(f_t|R f_t)| <= C t^0 for an order-zero R
    R = HomogeneousTerm(0.0, parse_coeff("0.5 + 0.2*cos(x)"))
    vals = np.abs(packet_quadratic_form(family, [8.0, 16.0, 32.0], R))
    truth = abs(R.eval(family.x0, family.xi0))
    assert np.all(vals <= 1.5 * truth)
    assert np.all(vals >= 0.5 * truth)


def test_packet_path_matches_generic(family):
    varying = HomogeneousTerm(1.0, parse_coeff("1 + 0.2*sin(x)"))
    constant = HomogeneousTerm(0.5, parse_coeff("2"))
    for P in (SymbolExpansion((varying,)), constant):
        for t in (2.0, 4.0, 8.0):
            p = make_packet(family, t, num_points=512)
            grid = PhysicalGrid.for_packet(family, t)
            generic = quadratic_form(p, P, grid)
            fast = packet_quadratic_form(family, [t], P)[0]
            assert abs(generic - fast) < 1e-8 * abs(generic)


def test_linearity_over_terms(family):
    t1 = HomogeneousTerm(1.0, parse_coeff("1 + 0.2*sin(x)"))
    t2 = HomogeneousTerm(0.0, parse_coeff("0.5 + 0.2*cos(x)"))
    both = packet_quadratic_form(family, [4.0], SymbolExpansion((t1, t2)))[0]
    parts = (
        packet_quadratic_form(family, [4.0], t1)[0]
        + packet_quadratic_form(family, [4.0], t2)[0]
    )
    assert abs(both - parts) < 1e-10 * abs(both)


def test_scaled_form_converges_to_leading_value(family):
    c1 = parse_coeff("1 + 0.2*sin(x)")
    c2 = parse_coeff("0.5 + 0.2*cos(x)")
    P = SymbolExpansion((HomogeneousTerm(1.0, c1), HomogeneousTerm(0.0, c2)))
    probe = asymptotic_error_probe(P, family, [64.0])
    assert probe["errors"][0] < 0.05


def test_tail_breach_signals(family):
    term = HomogeneousTerm(1.0, parse_coeff("1 + 0.2*sin(x)"))
    p = make_packet(family, 4.0)
    tiny = PhysicalGrid(family.x0, 0.05 * family.profile.support_radius / 4.0, 256)
    with pytest.raises(NumericalError, match="tail"):
        quadratic_form(p, SymbolExpansion((term,)), tiny)


class TestAsymptoticRates:
    """Noise-free decay of |t^(-lam*m) (f_t|Pf_t) - a_1(x0, xi0)|.

    With a real, even profile the odd-order error terms cancel, so only
    the remainder rate lam*(m1 - m2) is reliably attained; the configured
    rate symbols are chosen remainder-dominated.
    """

    def test_single_exact_term_is_quadrature_exact(self, family):
        P = SymbolExpansion((HomogeneousTerm(1.0, parse_coeff("0.7"), h_minus=-1.0, h_plus=1.0),))
        probe = asymptotic_error_probe(P, family, [8.0, 16.0, 32.0])
        assert np.all(probe["errors"] < 1e-6)

    def test_remainder_dominated_slope_minus_one(self, family):
        c1, c2 = parse_coeff("1 + 0.2*sin(x)"), parse_coeff("0.5 + 0.2*cos(x)")
        P = SymbolExpansion((HomogeneousTerm(1.0, c1), HomogeneousTerm(0.5, c2)))
        probe = asymptotic_error_probe(P, family, [8.0, 16.0, 32.0, 64.0])
        assert slope_of(probe) == pytest.approx(-1.0, abs=0.2)

    def test_even_cancellation_gives_slope_minus_two(self, family):
        # orders (1, 0) at lam = 2: all surviving error terms decay like t^-2
        c1, c2 = parse_coeff("1 + 0.2*sin(x)"), parse_coeff("0.5 + 0.2*cos(x)")
        P = SymbolExpansion((HomogeneousTerm(1.0, c1), HomogeneousTerm(0.0, c2)))
        probe = asymptotic_error_probe(P, family, [8.0, 16.0, 32.0, 64.0])
        assert slope_of(probe) == pytest.approx(-2.0, abs=0.2)

    def test_large_lambda_remainder_rate(self, profile):
        family = WavePacketFamily(x0=0.3, xi0=1.0, lam=3.0, profile=profile)
        P = SymbolExpansion(
            (
                HomogeneousTerm(1.0, parse_coeff("0.7")),
                HomogeneousTerm(0.0, parse_coeff("0.5 + 0.2*cos(x)")),
            )
        )
        probe = asymptotic_error_probe(P, family, [8.0, 16.0, 32.0, 64.0])
        assert slope_of(probe) == pytest.approx(-3.0, abs=0.2)
