import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from postqubo import (
    CapacitySlack,
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
from postqubo.qubo import EDGE_KINDS, EDGE_MODES, MODE_PLAIN, MODE_SERVICE, MODE_TRAVERSE
from postqubo.solvers import _flip
from conftest import (
    DictQubo,
    add_linear,
    add_offset,
    add_quadratic,
    naive_energy,
)


def paper_single_variable_qubo() -> Qubo:
    """9x + 10(1-x)^2, whose assignment energies are 10 and 9."""
    q = Qubo(1)
    add_linear(q, 0, 9.0)
    square = Qubo(1)
    square.add_square_penalty([0], [-1.0], 1.0)
    q.add_scaled(square, 10.0)
    return q


def random_qubo(rng, n, density=0.5) -> Qubo:
    q = Qubo(n)
    add_offset(q, float(rng.integers(-5, 6)))
    for i in range(n):
        if rng.random() < 0.8:
            add_linear(q, i, float(rng.integers(-9, 10)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                add_quadratic(q, i, j, float(rng.integers(-9, 10)))
    return q


# --- add_square_penalty ----------------------------------------------------

def test_square_penalty_expansion_matches_worked_example():
    q = paper_single_variable_qubo()
    assert q.energy([0]) == 10.0
    assert q.energy([1]) == 9.0
    # merged linear coefficient is 9 - 20 + 10 = -1 with offset 10
    assert q.linear.tolist() == [(0, -1.0)]
    assert q.offset == 10.0


def test_square_penalty_plain_square():
    q = Qubo(1)
    q.add_square_penalty([0], [1.0], 0.0)
    assert q.linear.tolist() == [(0, 1.0)]
    assert q.offset == 0.0


def test_square_penalty_two_variable_expansion():
    square = Qubo(2)
    square.add_square_penalty([0, 1], [-1.0, -1.0], 1.0)
    q = Qubo(2)
    q.add_scaled(square, 2.0)
    assert q.offset == 2.0
    assert q.linear.tolist() == [(0, -2.0), (1, -2.0)]
    assert q.quadratic.tolist() == [(0, 1, 4.0)]
    for x in itertools.product((0, 1), repeat=2):
        direct = 2.0 * (1 - x[0] - x[1]) ** 2
        assert q.energy(list(x)) == pytest.approx(direct)


def test_square_penalty_merges_duplicate_terms():
    q = Qubo(1)
    q.add_square_penalty([0, 0], [-1.0, -1.0], 1.0)
    for x in ((0,), (1,)):
        assert q.energy(list(x)) == pytest.approx((1 - 2 * x[0]) ** 2)


# --- energy ------------------------------------------------------------------

def test_energy_paper_value():
    assert paper_single_variable_qubo().energy([1]) == 9.0


def test_energy_all_zero_on_penalty_only_qubo():
    p = 7.0
    q = Qubo(4)
    m = 3
    for i in range(m):
        square = Qubo(4)
        square.add_square_penalty([i, i + 1], [-1.0, -1.0], 1.0)
        q.add_scaled(square, p)
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
    add_quadratic(q, 1, 1, 4.0)
    assert q.linear.tolist() == [(1, 4.0)]
    assert not len(q.quadratic)


# --- energy_delta: the samplers' single-flip update ------------------------------

def flip_state(q: Qubo, x):
    """Spins, single-flip energy changes and couplings of one state, as a
    one-row batch the way the samplers keep them."""
    lin, _, _, _ = q.as_arrays()
    sym = q.dense_symmetric()
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    spins = 1.0 - 2.0 * x
    return spins, spins * (lin + x @ sym), sym


def flip_one(spins, deltas, sym, col):
    """Flip variable `col` of the one-row batch; the energy change it made."""
    signed = np.concatenate([sym, -sym])
    return float(_flip(spins, deltas, signed, np.array([0]), np.array([col]))[0][0])


def test_energy_delta_paper_instance():
    q = paper_single_variable_qubo()
    assert flip_one(*flip_state(q, [0]), 0) == -1.0


def test_energy_delta_zero_qubo():
    q = Qubo(3)
    for i in range(3):
        assert flip_one(*flip_state(q, [0, 1, 0]), i) == 0.0


def test_energy_delta_matches_full_reevaluation(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        q = random_qubo(rng, n)
        x = [int(b) for b in rng.integers(0, 2, n)]
        flip = int(rng.integers(0, n))
        x2 = list(x)
        x2[flip] = 1 - x2[flip]
        change = flip_one(*flip_state(q, x), flip)
        assert change == pytest.approx(q.energy(x2) - q.energy(x), abs=1e-9)


def test_energy_delta_composes_over_flips(rng):
    q = random_qubo(rng, 6)
    x = [0] * 6
    spins, deltas, sym = flip_state(q, x)
    acc = 0.0
    start = q.energy(x)
    for flip in [2, 4, 2, 0, 5, 1, 4]:
        acc += flip_one(spins, deltas, sym, flip)
        x[flip] = 1 - x[flip]
    assert list((1.0 - spins[0]) / 2.0) == x
    assert start + acc == pytest.approx(q.energy(x), abs=1e-9)


# --- registry -------------------------------------------------------------------

def test_registry_is_bijective_and_ordered():
    labels = [PairVar(3, 5), PairVar(1, 2), RequiredSlack(0, 0, 1, "u"), RestVar(2, 0),
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


def _edge_columns(labels):
    """The (step, postman, tail, head, kind, mode) columns of EdgeStep labels."""
    return np.array([(e.step, e.postman, e.frm, e.to, EDGE_KINDS.index(e.kind),
                      EDGE_MODES.index(e.mode)) for e in labels], dtype=np.int64).reshape(-1, 6).T


def test_edge_columns_read_and_write_as_their_labels():
    # terminal arcs, a vertex id past every index, every kind and mode
    edges = sorted([EdgeStep(0, 0, 1), EdgeStep(0, 0, 1, kind="d"), EdgeStep(0, 1, -1, kind="t"),
                    EdgeStep(1, -1, -1, MODE_TRAVERSE, 1, "t"),
                    EdgeStep(1, 10**12, 3, MODE_SERVICE, 0, "d"),
                    EdgeStep(2, 3, 10**12, MODE_PLAIN, 2)], key=EdgeStep.sort_key)
    others = [RestVar(1, 2), CapacitySlack(0, 1), RequiredSlack(1, 3, 10**12, "u")]
    ref = VariableRegistry(edges + others)
    for reg in (VariableRegistry(others, _edge_columns(edges)),
                VariableRegistry(others[::-1], _edge_columns(edges))):
        assert format_registry_text(reg) == format_registry_text(ref)
        assert len(reg) == len(ref) == 9
        assert reg.labels == tuple(reg) == ref.labels
        for i, lab in enumerate(ref):
            assert reg.label_of(i) == lab and reg.index_of(lab) == i and lab in reg
        assert EdgeStep(0, 1, 0) not in reg and RestVar(0) not in reg
    empty = VariableRegistry(edges=np.zeros((6, 0), dtype=np.int64))
    assert len(empty) == 0 and empty.labels == () and format_registry_text(empty) == ""


def test_registry_rejects_equal_or_unordered_edge_columns():
    edges = [EdgeStep(0, 0, 1), EdgeStep(0, 1, 2), EdgeStep(1, 2, 0)]
    VariableRegistry(edges=_edge_columns(edges))
    with pytest.raises(QuboError, match="duplicate variable labels"):
        VariableRegistry(edges=_edge_columns([*edges[:2], edges[1], edges[2]]))
    with pytest.raises(QuboError, match="out of label order"):
        VariableRegistry(edges=_edge_columns([edges[1], edges[0], edges[2]]))
    with pytest.raises(QuboError, match="sort after"):
        VariableRegistry([EdgeStep(2, 0, 1)], _edge_columns(edges))


def test_pair_var_canonicalizes_orientation():
    assert PairVar(5, 3) == PairVar(3, 5)


def test_energy_invariant_under_relabeling(rng):
    n = 6
    q = random_qubo(rng, n)
    perm = list(rng.permutation(n))
    q2 = Qubo(n)
    add_offset(q2, q.offset)
    for i, c in q.linear.tolist():
        add_linear(q2, perm[i], c)
    for i, j, c in q.quadratic.tolist():
        add_quadratic(q2, perm[i], perm[j], c)
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
            PenaltyConfig.uniform(1.0).scaled(["hierarchy"], bad)
    cfg = PenaltyConfig.for_max_weight(4.0)
    assert cfg.p_required == 20.0
    assert cfg.value("one_edge") == 20.0


def test_penalty_scaling_selected_families():
    cfg = PenaltyConfig.uniform(3.0).scaled(["required", "hierarchy"], 2.0)
    assert cfg.p_required == 6.0
    assert cfg.p_hierarchy == 6.0
    assert cfg.p_one_edge == 3.0


def test_near_zero_coefficients_are_pruned():
    q = Qubo(2)
    add_linear(q, 0, 1.0)
    add_linear(q, 0, -1.0)
    add_quadratic(q, 0, 1, 0.5)
    add_quadratic(q, 0, 1, -0.5)
    assert not len(q.linear) and not len(q.quadratic)


@pytest.mark.parametrize("add", [
    lambda q: add_linear(q, 2, 1.0),
    lambda q: add_quadratic(q, 0, 2, 1.0),
    lambda q: add_quadratic(q, 2, 1, 1.0),
    lambda q: q.add_square_penalty([0, 2], [1.0, -1.0], 1.0),
    lambda q: add_linear(q, -1, 1.0),
])
def test_assembly_rejects_an_index_outside_the_form(add):
    q = Qubo(2)
    q.add_square_penalty([0, 1], [-1.0, -1.0], 1.0)
    before = format_qubo_text(q)
    with pytest.raises(IndexOutOfRange):
        add(q)
    assert format_qubo_text(q) == before


def test_add_scaled_rejects_a_form_of_another_size():
    with pytest.raises(LengthMismatch):
        Qubo(2).add_scaled(Qubo(3))


def test_energy_follows_merges_made_after_an_evaluation():
    q = Qubo(2)
    add_linear(q, 0, 1.0)
    assert q.energy([1, 1]) == 1.0
    other = Qubo(2)
    add_offset(other, 0.5)
    add_linear(other, 1, 2.0)
    add_quadratic(other, 0, 1, -4.0)
    q.add_scaled(other, 3.0)
    assert q.energy([1, 1]) == 1.0 + 1.5 + 6.0 - 12.0
    square = Qubo(2)
    square.add_square_penalty([0, 1], [1.0, 1.0], -1.0)
    q.add_scaled(square, 2.0)
    assert q.energy([1, 1]) == -3.5 + 2.0
    assert q.energy([0, 0]) == 1.5 + 2.0


@pytest.mark.parametrize("add", [
    lambda q: add_linear(q, 0, float("nan")),
    lambda q: add_linear(q, 0, float("inf")),
    lambda q: add_quadratic(q, 0, 1, -float("inf")),
    lambda q: q.add_quadratic_terms([0, 0], [1, 1], [1.0, float("nan")]),
    lambda q: q.add_square_penalty([0], [float("nan")], 1.0),
    lambda q: q.add_square_penalty([0], [1.0], [1.0, float("inf")], [0]),
    lambda q: q.add_square_penalty([0], [1.0], float("nan")),
    lambda q: q.add_square_penalty([0, 1], [1.0, float("-inf")], 1.0),
    lambda q: q.add_scaled(Qubo(2), float("nan")),
    lambda q: q.add_scaled(Qubo(2), float("inf")),
    lambda q: add_offset(q, float("inf")),
])
def test_assembly_rejects_non_finite_input(add):
    q = Qubo(2)
    q.add_square_penalty([0, 1], [-1.0, -1.0], 1.0)
    before = format_qubo_text(q)
    with pytest.raises(QuboError):
        add(q)
    assert format_qubo_text(q) == before


def _big_offset() -> Qubo:
    other = Qubo(2)
    add_offset(other, 10.0)
    return other


@pytest.mark.parametrize("add", [
    lambda q: q.add_square_penalty([0, 1], [1e200, 1.0], 1.0),
    lambda q: q.add_square_penalty([0, 1], [1e160, 1e160], 0.0),
    lambda q: q.add_square_penalty([0], [1.0], 1e200),
    lambda q: q.add_square_penalty([0], [1.0], [1.0, 1e200], [0]),
    lambda q: q.add_square_penalty([0], [1e154], 1e154),
    lambda q: q.add_scaled(q.copy(), 1e308),
    lambda q: q.add_scaled(_big_offset(), 1e308),
])
def test_assembly_rejects_a_call_that_overflows(add):
    q = Qubo(2)
    q.add_square_penalty([0, 1], [-1.0, -1.0], 1.0)
    before = format_qubo_text(q)
    with pytest.raises(QuboError):
        add(q)
    assert format_qubo_text(q) == before


def test_an_offset_that_overflows_is_rejected():
    q = Qubo(1)
    add_offset(q, 1.7e308)
    with pytest.raises(QuboError):
        add_offset(q, 1.7e308)
    assert q.offset == 1.7e308


def test_a_coefficient_sum_that_overflows_is_rejected_when_read():
    q = Qubo(2)
    q.add_quadratic_terms([0, 0], [1, 1], [1e308, 1e308])
    for _ in range(2):
        with pytest.raises(QuboError):
            q.energy([1, 1])


# --- accumulation against the dict reference model -------------------------------

VALUES = (0.1, 0.2, -0.3, 0.3, 1e-13, -1e-13, 1.0, -1.0, 7.25, 2.0**-40, 2.0**30, -2.0**30)


@st.composite
def op_streams(draw):
    """A variable count and an assembly stream over two forms (target 0 or 1),
    with reads mixed in."""
    n = draw(st.integers(1, 5))
    idx, val, target = st.integers(0, n - 1), st.sampled_from(VALUES), st.integers(0, 1)
    group = st.integers(0, 2)
    ops = st.one_of(
        st.tuples(st.just("linear"), target, idx, val),
        st.tuples(st.just("quadratic"), target, idx, idx, val),
        st.tuples(st.just("quadratic_terms"), target, st.lists(st.tuples(idx, idx, val),
                                                               max_size=6)),
        st.tuples(st.just("square_penalty"), target, st.lists(st.tuples(group, idx, val),
                                                             max_size=8),
                  st.lists(val, min_size=3, max_size=3)),
        st.tuples(st.just("scaled"), target, val),
        st.tuples(st.just("offset"), target, val),
        st.tuples(st.just("read"), target),
    )
    return n, draw(st.lists(ops, max_size=40))


def assert_matches_model(q: Qubo, model: DictQubo) -> None:
    terms = {(i, i): c for i, c in q.linear.tolist()}
    terms.update(((i, j), c) for i, j, c in q.quadratic.tolist())
    assert terms == model.terms
    assert repr(q.offset) == repr(model.offset)
    assert format_qubo_text(q) == model.text()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(op_streams())
def test_assembly_matches_the_dict_reference_model(stream):
    n, ops = stream
    forms, models = [Qubo(n), Qubo(n)], [DictQubo(n), DictQubo(n)]
    for op, t, *args in ops:
        q, model = forms[t], models[t]
        if op == "read":
            q.energy([1] * n)
            q.as_arrays()
            assert_matches_model(q, model)
        elif op == "scaled":
            q.add_scaled(forms[1 - t], *args)
            model.add_scaled(models[1 - t], *args)
        elif op == "quadratic_terms":
            (terms,) = args
            q.add_quadratic_terms([i for i, _, _ in terms], [j for _, j, _ in terms],
                                  [c for _, _, c in terms])
            for i, j, c in terms:
                add_quadratic(model, i, j, c)
        elif op == "square_penalty":
            terms, constants = args
            for form in (q, model):
                form.add_square_penalty([i for _, i, _ in terms], [c for _, _, c in terms],
                                        constants, [g for g, _, _ in terms])
        else:
            add = {"linear": add_linear, "quadratic": add_quadratic, "offset": add_offset}[op]
            add(q, *args)
            add(model, *args)
    for q, model in zip(forms, models):
        assert_matches_model(q, model)


@st.composite
def square_families(draw):
    """A variable count and a few penalty families: per family, (group, index,
    coefficient) terms with repeats within and across groups, one constant
    per group."""
    n = draw(st.integers(1, 6))
    families = []
    for _ in range(draw(st.integers(1, 3))):
        groups = draw(st.integers(1, 5))
        term = st.tuples(st.integers(0, groups - 1), st.integers(0, n - 1),
                         st.sampled_from((0.1, 0.2, -0.3, 1.0, -1.0, 2.5)))
        families.append((draw(st.lists(term, max_size=16)),
                         draw(st.lists(st.sampled_from(VALUES), min_size=groups,
                                       max_size=groups))))
    return n, families


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(square_families())
def test_grouped_squares_match_one_square_per_group(case):
    n, families = case
    q, model = Qubo(n), DictQubo(n)
    for terms, constants in families:
        for form in (q, model):
            form.add_square_penalty([i for _, i, _ in terms], [c for _, _, c in terms],
                                    constants, [g for g, _, _ in terms])
    assert format_qubo_text(q) == model.text()
    assert repr(q.offset) == repr(model.offset)


def test_a_penalty_group_outside_the_constants_is_rejected():
    q = Qubo(2)
    for group in (2, -1):
        with pytest.raises(QuboError):
            q.add_square_penalty([0, 1], [1.0, 1.0], [1.0, 1.0], [0, group])
    assert format_qubo_text(q) == "n 2 offset 0.0\n"


def test_a_term_cancelled_part_way_restarts_from_zero():
    q, model = Qubo(2), DictQubo(2)
    for form in (q, model):
        for c in (0.1, 0.2, -0.3, 1e-3):
            add_quadratic(form, 0, 1, c)
    # 0.1 + 0.2 - 0.3 is 5.55e-17, dropped; the next addition starts from 0.0
    assert q.quadratic.tolist() == [(0, 1, 1e-3)]
    assert_matches_model(q, model)


# --- text export --------------------------------------------------------------------

def test_qubo_text_format_is_deterministic():
    q = Qubo(3)
    add_offset(q, 10.0)
    add_linear(q, 2, -11.0)
    add_linear(q, 0, 2.5)
    add_quadratic(q, 1, 0, 4.0)
    text = format_qubo_text(q)
    assert text == "n 3 offset 10.0\n0 0 2.5\n2 2 -11.0\n0 1 4.0\n"
    assert format_qubo_text(q) == text


# coefficient reprs of different widths
WIDTHS = (1e-05, -1e+16, 0.30000000000000004, 12.0, -1.0, 2.5)


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 100, 1001])
def test_text_matches_the_reference_model_at_every_name_and_value_width(n):
    rng = np.random.default_rng(n)
    q, model = Qubo(n), DictQubo(n)
    for form in (q, model):
        add_offset(form, -1e+16)
        add_offset(form, 0.1)
    if n:
        # the first and last index and a few in between, so every name width shows
        idx = sorted({0, n - 1, *rng.integers(0, n, 6).tolist()})
        for a, i in enumerate(idx):
            for j in idx[a:]:
                c = WIDTHS[int(rng.integers(len(WIDTHS)))]
                add_quadratic(q, i, j, c)
                add_quadratic(model, i, j, c)
    assert format_qubo_text(q) == model.text()


def test_text_of_a_form_without_terms_is_its_header():
    q, model = Qubo(3), DictQubo(3)
    for form in (q, model):
        add_linear(form, 1, 0.5)
        add_linear(form, 1, -0.5)
        add_offset(form, 12.0)
    assert format_qubo_text(q) == model.text() == "n 3 offset 12.0\n"
    assert format_qubo_text(Qubo(0)) == DictQubo(0).text() == "n 0 offset 0.0\n"


def test_registry_text_lists_labels_in_index_order():
    reg = VariableRegistry([PairVar(3, 5), PairVar(1, 4)])
    assert format_registry_text(reg) == "0 x[1,4]\n1 x[3,5]\n"
