import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asymgraph.loss import (NEGATIVE_FORMS, LossBatch, asymmetric_loss,
                            log_sigmoid, loss_grad, sigmoid)
from asymgraph.model import DualEmbeddings
from reference import (addat_asymmetric_loss, addat_loss_grad,
                       log_sigmoid_scalar, naive_loss)


def make_emb(theta_s, theta_t):
    theta_s = np.asarray(theta_s, dtype=float)
    theta_t = np.asarray(theta_t, dtype=float)
    return DualEmbeddings(nodes=np.arange(len(theta_s)),
                          theta_s=theta_s, theta_t=theta_t)


def test_log_sigmoid_stable_and_correct():
    xs = np.array([-700.0, -30.0, -1.0, 0.0, 1.0, 30.0, 700.0])
    vals = log_sigmoid(xs)
    assert np.all(np.isfinite(vals))
    for x, v in zip(xs[1:-1], vals[1:-1]):
        assert v == pytest.approx(math.log(1 / (1 + math.exp(-x))), rel=1e-12)


def test_one_way_edge_scalar_oracle():
    """One one-way edge with dot 1/sqrt(2), reverse dot 0, one negative
    with dot 0: four active contributions, evaluated independently."""
    s = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    t = np.array([[0.0, 0.0], [2 ** -0.5, 2 ** -0.5], [0.0, 0.0]])
    emb = make_emb(s, t)
    batch = LossBatch([(0, 1)], [True], np.empty((0, 2)), [[2]])
    value = asymmetric_loss(emb, batch)
    expected = -(log_sigmoid_scalar(2 ** -0.5) + log_sigmoid_scalar(1.0)
                 + log_sigmoid_scalar(2 ** -0.5) + log_sigmoid_scalar(1.0))
    assert value.total == pytest.approx(expected, abs=1e-12)
    assert value.total == pytest.approx(1.4281904279778503, abs=1e-10)
    assert value.terms[4] == 0.0 and value.terms[5] == 0.0


def test_reciprocal_edge_scalar_oracle():
    """All dots zero, one reciprocal edge, one negative: only the attract
    and repel terms fire."""
    s = np.zeros((3, 2))
    t = np.zeros((3, 2))
    emb = make_emb(s, t)
    batch = LossBatch([(0, 1)], [False], np.empty((0, 2)), [[2]])
    value = asymmetric_loss(emb, batch)
    expected = -(log_sigmoid_scalar(0.0) + log_sigmoid_scalar(1.0))
    assert value.total == pytest.approx(expected, abs=1e-12)
    assert value.total == pytest.approx(1.0064088680781682, abs=1e-10)
    assert value.terms[2] == 0.0 and value.terms[3] == 0.0


def test_empty_batch_is_zero():
    emb = make_emb(np.zeros((2, 2)), np.zeros((2, 2)))
    none = np.empty((0, 2), dtype=np.int64)
    batch = LossBatch(none, np.empty(0, dtype=bool), none,
                      np.empty((0, 1), dtype=np.int64))
    value = asymmetric_loss(emb, batch)
    assert value.total == 0.0
    assert np.array_equal(value.terms, np.zeros(6))
    _, gs, gt = loss_grad(emb, batch)
    assert np.array_equal(gs, np.zeros((2, 2)))
    assert np.array_equal(gt, np.zeros((2, 2)))


def test_matches_naive_reference():
    rng = np.random.default_rng(3)
    n = 12
    emb = make_emb(rng.normal(size=(n, 4)), rng.normal(size=(n, 4)))
    cp = np.array([(0, 1), (1, 2), (3, 4), (4, 3), (5, 6)])
    ow = np.array([True, True, False, False, True])
    cv = np.array([(7, 8), (9, 10)])
    negs = rng.integers(0, n, size=(5, 3))
    batch = LossBatch(cp, ow, cv, negs)
    value = asymmetric_loss(emb, batch)
    ref_total, ref_terms = naive_loss(emb.theta_s, emb.theta_t, cp, ow, cv, negs)
    assert value.total == pytest.approx(ref_total, rel=1e-12)
    assert np.allclose(value.terms, ref_terms, atol=1e-12)


def test_total_nonnegative_terms_nonpositive():
    rng = np.random.default_rng(9)
    for trial in range(20):
        n = 10
        emb = make_emb(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
        cp = rng.integers(0, n, size=(6, 2))
        cp = cp[cp[:, 0] != cp[:, 1]]
        ow = rng.random(len(cp)) < 0.5
        cv = rng.integers(0, n, size=(3, 2))
        cv = cv[cv[:, 0] != cv[:, 1]]
        negs = rng.integers(0, n, size=(len(cp), 2))
        value = asymmetric_loss(emb, LossBatch(cp, ow, cv, negs))
        assert value.total >= 0.0
        assert np.all(value.terms <= 0.0)


def test_one_way_terms_vanish_for_reciprocal_batch():
    rng = np.random.default_rng(4)
    emb = make_emb(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
    cp = np.array([(0, 1), (1, 0), (2, 3), (3, 2)])
    ow = np.zeros(4, dtype=bool)
    batch = LossBatch(cp, ow, np.empty((0, 2)), rng.integers(0, 4, (4, 1)))
    value = asymmetric_loss(emb, batch)
    assert value.terms[2] == 0.0
    assert value.terms[3] == 0.0


def test_negative_dot_monotonicity():
    """Pushing a negative's dot down strictly reduces the total."""
    base_t = np.array([[0.0, 0.0], [1.0, 0.0], [0.6, 0.8]])
    s = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    batch = LossBatch([(0, 1)], [False], np.empty((0, 2)), [[2]])
    totals = []
    for scale in (1.0, 0.5, 0.0, -0.5):
        t = base_t.copy()
        t[2] = scale * base_t[2]
        totals.append(asymmetric_loss(make_emb(s, t), batch).total)
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_untouched_rows_get_zero_grad():
    rng = np.random.default_rng(5)
    emb = make_emb(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)))
    batch = LossBatch([(0, 1)], [True], [(2, 3)], [[4]])
    _, gs, gt = loss_grad(emb, batch)
    assert np.array_equal(gs[5], np.zeros(3))
    assert np.array_equal(gt[5], np.zeros(3))
    # node 4 appears only as a negative: its source row is untouched
    assert np.array_equal(gs[4], np.zeros(3))
    assert not np.array_equal(gt[4], np.zeros(3))


def test_coview_grads_are_mirrored():
    rng = np.random.default_rng(6)
    emb = make_emb(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))
    batch = LossBatch(np.empty((0, 2)), np.empty(0, dtype=bool),
                      [(0, 1)], np.empty((0, 1)))
    _, gs, _ = loss_grad(emb, batch)
    coeff = sigmoid(np.dot(emb.theta_s[0], emb.theta_s[1])) - 1.0
    assert np.allclose(gs[0], coeff * emb.theta_s[1], atol=1e-12)
    assert np.allclose(gs[1], coeff * emb.theta_s[0], atol=1e-12)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(11)
    n, d = 10, 4
    theta_s = rng.normal(size=(n, d))
    theta_t = rng.normal(size=(n, d))
    cp = np.array([(0, 1), (2, 3), (3, 2), (4, 5)])
    ow = np.array([True, False, False, True])
    cv = np.array([(6, 7), (8, 9)])
    negs = np.array([[8], [9], [6], [7]])
    batch = LossBatch(cp, ow, cv, negs)

    def total(ts, tt):
        return asymmetric_loss(make_emb(ts, tt), batch).total

    _, gs, gt = loss_grad(make_emb(theta_s, theta_t), batch)
    h = 1e-6
    for mat, grad, which in ((theta_s, gs, "s"), (theta_t, gt, "t")):
        for i in range(n):
            for j in range(d):
                orig = mat[i, j]
                mat[i, j] = orig + h
                lp = total(theta_s, theta_t)
                mat[i, j] = orig - h
                lm = total(theta_s, theta_t)
                mat[i, j] = orig
                fd = (lp - lm) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-9), \
                    f"theta_{which}[{i},{j}]"


def test_negative_form_flag():
    s = np.array([[1.0, 0.0], [0.0, 1.0]])
    t = np.array([[0.0, 1.0], [0.0, 1.0]])
    emb = make_emb(s, t)
    batch = LossBatch([(0, 1)], [False], np.empty((0, 2)), [[1]])
    literal = asymmetric_loss(emb, batch, negative_form="one_minus_dot")
    conv = asymmetric_loss(emb, batch, negative_form="negated_dot")
    # the negative's dot is zero: the literal form penalizes
    # log sig(1 - 0), the conventional form log sig(-0)
    assert literal.terms[1] == pytest.approx(log_sigmoid_scalar(1.0), abs=1e-12)
    assert conv.terms[1] == pytest.approx(log_sigmoid_scalar(0.0), abs=1e-12)
    with pytest.raises(ValueError):
        asymmetric_loss(emb, batch, negative_form="bogus")


def test_missing_embedding_rejected():
    emb = DualEmbeddings(nodes=np.array([0, 1, 4]),
                         theta_s=np.ones((3, 2)), theta_t=np.ones((3, 2)))
    batch = LossBatch([(0, 3)], [False], np.empty((0, 2)), [[1]])
    with pytest.raises(KeyError, match="3"):
        asymmetric_loss(emb, batch)


def test_term_weights_scale_total():
    rng = np.random.default_rng(8)
    emb = make_emb(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
    batch = LossBatch([(0, 1)], [True], [(2, 3)], [[3]])
    base = asymmetric_loss(emb, batch)
    weighted = asymmetric_loss(emb, batch, weights=(2, 0, 1, 1, 1, 1))
    expected = -(2 * base.terms[0] + base.terms[2] + base.terms[3]
                 + base.terms[4] + base.terms[5])
    assert weighted.total == pytest.approx(expected, rel=1e-12)


@st.composite
def loss_cases(draw):
    """Embeddings over sparse node ids and a batch that may be empty, have
    no one-way edges or co-view pairs, repeat rows, or zero term
    weights."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 4))
    ids = np.array(sorted(draw(st.sets(st.integers(0, 50), min_size=n,
                                       max_size=n))))
    node = st.sampled_from(ids.tolist())
    m = draw(st.integers(0, 10))
    cp = draw(st.lists(st.tuples(node, node), min_size=m, max_size=m))
    one_way = draw(st.sampled_from(["none", "all", "some"]))
    ow = {"none": [False] * m, "all": [True] * m,
          "some": draw(st.lists(st.booleans(), min_size=m, max_size=m))}[one_way]
    cv = draw(st.lists(st.tuples(node, node), max_size=6))
    k = draw(st.integers(0, 3)) if m else 0
    negs = draw(st.lists(node, min_size=m * k, max_size=m * k))
    weights = draw(st.one_of(
        st.none(), st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                            min_size=6, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0]))
    emb = DualEmbeddings(ids, scale * rng.normal(size=(n, d)),
                         scale * rng.normal(size=(n, d)))
    batch = LossBatch(np.array(cp, dtype=np.int64).reshape(-1, 2), ow,
                      np.array(cv, dtype=np.int64).reshape(-1, 2),
                      np.array(negs, dtype=np.int64).reshape(m, k))
    return emb, batch, weights, draw(st.sampled_from(NEGATIVE_FORMS))


@given(case=loss_cases())
def test_one_pass_is_bitwise_the_add_at_oracle(case):
    """The one-pass value, its six terms and both gradients are bitwise
    those of the two-pass, np.add.at code it replaced."""
    emb, batch, weights, form = case
    value, gs, gt = loss_grad(emb, batch, weights=weights, negative_form=form)
    want = addat_asymmetric_loss(emb, batch, weights=weights, negative_form=form)
    want_s, want_t = addat_loss_grad(emb, batch, weights=weights,
                                     negative_form=form)
    assert np.float64(value.total).tobytes() == np.float64(want.total).tobytes()
    assert value.terms.tobytes() == want.terms.tobytes()
    assert gs.shape == want_s.shape and gs.tobytes() == want_s.tobytes()
    assert gt.shape == want_t.shape and gt.tobytes() == want_t.tobytes()
    alone = asymmetric_loss(emb, batch, weights=weights, negative_form=form)
    assert alone.terms.tobytes() == want.terms.tobytes()
