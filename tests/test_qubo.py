import itertools

import numpy as np
import pytest

from postqubo import (
    EdgeStep,
    IndexOutOfRange,
    LengthMismatch,
    PairVar,
    PenaltyConfig,
    Qubo,
    RequiredSlack,
    RestVar,
    VariableRegistry,
    format_qubo_text,
    format_registry_text,
)
from postqubo.errors import QuboError
from postqubo.solvers import _flip
from conftest import bits_from_index, naive_energy


def paper_single_variable_qubo() -> Qubo:
    """9x + 10(1-x)^2, whose assignment energies are 10 and 9."""
    q = Qubo(1)
    q.add_linear(0, 9.0)
    q.add_square_penalty([(0, -1.0)], constant=1.0, scale=10.0)
    return q


def random_qubo(rng, n, density=0.5) -> Qubo:
    q = Qubo(n)
    q.add_offset(float(rng.integers(-5, 6)))
    for i in range(n):
        if rng.random() < 0.8:
            q.add_linear(i, float(rng.integers(-9, 10)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                q.add_quadratic(i, j, float(rng.integers(-9, 10)))
    return q


# --- add_square_penalty ----------------------------------------------------

def test_square_penalty_expansion_matches_worked_example():
    q = paper_single_variable_qubo()
    assert q.energy([0]) == 10.0
    assert q.energy([1]) == 9.0
    # merged linear coefficient is 9 - 20 + 10 = -1 with offset 10
    assert q.linear == {0: -1.0}
    assert q.offset == 10.0


def test_square_penalty_plain_square():
    q = Qubo(1)
    q.add_square_penalty([(0, 1.0)], constant=0.0, scale=1.0)
    assert q.linear == {0: 1.0}
    assert q.offset == 0.0


def test_square_penalty_two_variable_expansion():
    q = Qubo(2)
    q.add_square_penalty([(0, -1.0), (1, -1.0)], constant=1.0, scale=2.0)
    assert q.offset == 2.0
    assert q.linear == {0: -2.0, 1: -2.0}
    assert q.quadratic == {(0, 1): 4.0}
    for x in itertools.product((0, 1), repeat=2):
        direct = 2.0 * (1 - x[0] - x[1]) ** 2
        assert q.energy(list(x)) == pytest.approx(direct)


def test_square_penalty_merges_duplicate_terms():
    q = Qubo(1)
    q.add_square_penalty([(0, -1.0), (0, -1.0)], constant=1.0, scale=1.0)
    for x in ((0,), (1,)):
        assert q.energy(list(x)) == pytest.approx((1 - 2 * x[0]) ** 2)


def test_square_penalty_rejects_nonpositive_scale():
    q = Qubo(1)
    with pytest.raises(QuboError):
        q.add_square_penalty([(0, 1.0)], constant=0.0, scale=0.0)


def test_square_penalty_scale_linearity(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        terms = [(i, float(rng.integers(-3, 4))) for i in range(n)]
        constant = float(rng.integers(-2, 3))
        scale = float(rng.integers(1, 7))
        q1 = Qubo(n)
        q1.add_square_penalty(terms, constant, scale=1.0)
        qs = Qubo(n)
        qs.add_square_penalty(terms, constant, scale=scale)
        for idx in range(1 << n):
            x = bits_from_index(idx, n)
            assert qs.energy(x) == pytest.approx(scale * q1.energy(x))


# --- energy ------------------------------------------------------------------

def test_energy_paper_value():
    assert paper_single_variable_qubo().energy([1]) == 9.0


def test_energy_all_zero_on_penalty_only_qubo():
    p = 7.0
    q = Qubo(4)
    m = 3
    for i in range(m):
        q.add_square_penalty([(i, -1.0), (i + 1, -1.0)], constant=1.0, scale=p)
    assert q.energy([0, 0, 0, 0]) == m * p


def test_energy_matches_naive_sum(rng):
    for _ in range(100):
        n = int(rng.integers(1, 9))
        q = random_qubo(rng, n)
        x = [int(b) for b in rng.integers(0, 2, n)]
        assert q.energy(x) == pytest.approx(naive_energy(q, x))


def test_energy_length_mismatch():
    with pytest.raises(LengthMismatch):
        paper_single_variable_qubo().energy([0, 1])


def test_x_squared_collapses_to_linear():
    q = Qubo(2)
    q.add_quadratic(1, 1, 4.0)
    assert q.linear == {1: 4.0}
    assert not q.quadratic


# --- energy_delta: the samplers' single-flip update ------------------------------

def flip_state(q: Qubo, x):
    """Spins, single-flip energy changes and couplings, as the samplers keep them."""
    lin, _, _, _ = q.as_arrays()
    sym = q.dense_symmetric()
    x = np.asarray(x, dtype=np.float64)
    spins = 1.0 - 2.0 * x
    return spins, spins * (lin + x @ sym), sym


def test_energy_delta_paper_instance():
    q = paper_single_variable_qubo()
    assert _flip(*flip_state(q, [0]), (0,)) == -1.0


def test_energy_delta_zero_qubo():
    q = Qubo(3)
    for i in range(3):
        assert _flip(*flip_state(q, [0, 1, 0]), (i,)) == 0.0


def test_energy_delta_matches_full_reevaluation(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        q = random_qubo(rng, n)
        x = [int(b) for b in rng.integers(0, 2, n)]
        flip = int(rng.integers(0, n))
        x2 = list(x)
        x2[flip] = 1 - x2[flip]
        change = _flip(*flip_state(q, x), (flip,))
        assert change == pytest.approx(q.energy(x2) - q.energy(x), abs=1e-9)


def test_energy_delta_composes_over_flips(rng):
    q = random_qubo(rng, 6)
    x = [0] * 6
    spins, deltas, sym = flip_state(q, x)
    acc = 0.0
    start = q.energy(x)
    for flip in [2, 4, 2, 0, 5, 1, 4]:
        acc += _flip(spins, deltas, sym, (flip,))
        x[flip] = 1 - x[flip]
    assert list((1.0 - spins) / 2.0) == x
    assert start + acc == pytest.approx(q.energy(x), abs=1e-9)


# --- registry -------------------------------------------------------------------

def test_registry_is_bijective_and_ordered():
    labels = [PairVar(3, 5), PairVar(1, 2), RequiredSlack(0, 0, 1), RestVar(2, 0),
              EdgeStep(1, 0, 1), EdgeStep(0, 2, 3)]
    reg = VariableRegistry(labels)
    assert len(reg) == len(labels)
    for i, lab in enumerate(reg.labels):
        assert reg.index_of(lab) == i
        assert reg.label_of(i) == lab
    # pair vars sort before edge steps, edge steps by step
    assert reg.labels[0] == PairVar(1, 2)
    assert reg.labels[1] == PairVar(3, 5)
    assert isinstance(reg.labels[2], EdgeStep) and reg.labels[2].step == 0


def test_registry_rejects_duplicates():
    with pytest.raises(QuboError):
        VariableRegistry([PairVar(1, 2), PairVar(2, 1)])


def test_pair_var_canonicalizes_orientation():
    assert PairVar(5, 3) == PairVar(3, 5)


def test_energy_invariant_under_relabeling(rng):
    n = 6
    q = random_qubo(rng, n)
    perm = list(rng.permutation(n))
    q2 = Qubo(n)
    q2.add_offset(q.offset)
    for i, c in q.linear.items():
        q2.add_linear(perm[i], c)
    for (i, j), c in q.quadratic.items():
        q2.add_quadratic(perm[i], perm[j], c)
    for _ in range(20):
        x = [int(b) for b in rng.integers(0, 2, n)]
        x_perm = [0] * n
        for i in range(n):
            x_perm[perm[i]] = x[i]
        assert q.energy(x) == pytest.approx(q2.energy(x_perm))


# --- penalties --------------------------------------------------------------------

def test_penalty_config_requires_positive_values():
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(QuboError):
            PenaltyConfig.uniform(bad)
        with pytest.raises(QuboError):
            PenaltyConfig.uniform(1.0).scaled(["turn"], bad)
    cfg = PenaltyConfig.for_max_weight(4.0)
    assert cfg.p_required == 20.0
    assert cfg.value("one_edge") == 20.0


def test_penalty_scaling_selected_families():
    cfg = PenaltyConfig.uniform(3.0).scaled(["required", "turn"], 2.0)
    assert cfg.p_required == 6.0
    assert cfg.p_turn == 6.0
    assert cfg.p_one_edge == 3.0


def test_near_zero_coefficients_are_pruned():
    q = Qubo(2)
    q.add_linear(0, 1.0)
    q.add_linear(0, -1.0)
    q.add_quadratic(0, 1, 0.5)
    q.add_quadratic(0, 1, -0.5)
    assert not q.linear and not q.quadratic


@pytest.mark.parametrize("add", [
    lambda q: q.add_linear(2, 1.0),
    lambda q: q.add_quadratic(0, 2, 1.0),
    lambda q: q.add_quadratic(2, 1, 1.0),
    lambda q: q.add_square_penalty([(0, 1.0), (2, -1.0)], constant=1.0),
    lambda q: q.add_linear(-1, 1.0),
])
def test_assembly_rejects_an_index_outside_the_form(add):
    q = Qubo(2)
    q.add_square_penalty([(0, -1.0), (1, -1.0)], constant=1.0)
    before = format_qubo_text(q)
    with pytest.raises(IndexOutOfRange):
        add(q)
    assert format_qubo_text(q) == before


def test_add_scaled_rejects_a_form_of_another_size():
    with pytest.raises(LengthMismatch):
        Qubo(2).add_scaled(Qubo(3))


def test_energy_follows_merges_made_after_an_evaluation():
    q = Qubo(2)
    q.add_linear(0, 1.0)
    assert q.energy([1, 1]) == 1.0
    other = Qubo(2)
    other.add_offset(0.5)
    other.add_linear(1, 2.0)
    other.add_quadratic(0, 1, -4.0)
    q.add_scaled(other, 3.0)
    assert q.energy([1, 1]) == 1.0 + 1.5 + 6.0 - 12.0
    q.add_square_penalty([(0, 1.0), (1, 1.0)], constant=-1.0, scale=2.0)
    assert q.energy([1, 1]) == -3.5 + 2.0
    assert q.energy([0, 0]) == 1.5 + 2.0


# --- text export --------------------------------------------------------------------

def test_qubo_text_format_is_deterministic():
    q = Qubo(3)
    q.add_offset(10.0)
    q.add_linear(2, -11.0)
    q.add_linear(0, 2.5)
    q.add_quadratic(1, 0, 4.0)
    text = format_qubo_text(q)
    assert text == "n 3 offset 10.0\n0 0 2.5\n2 2 -11.0\n0 1 4.0\n"
    assert format_qubo_text(q) == text


def test_registry_text_lists_labels_in_index_order():
    reg = VariableRegistry([PairVar(3, 5), PairVar(1, 4)])
    assert format_registry_text(reg) == "0 x[1,4]\n1 x[3,5]\n"
