"""The conjunct axis: conjuncts that share a template run as one array.

On a batch, the compiled loss evaluates each template with two or more
members once, on a (batch, members) array, and folds every conjunct left in
its original order.  Every operator is elementwise, so the batch loss must
equal, bit for bit, the left fold by `backend.conj` of the conjuncts each
compiled alone; and `_logic_grads` must still match the per-sample scalar
loop of `test_batched_tape`.
"""

import numpy as np
import pytest

from logicloss.autodiff import Node, val, var
from logicloss.constraints import csim_formula, group_formula, synthetic_tables
from logicloss.formula import (
    And,
    BigAnd,
    Env,
    ParseContext,
    batch_env,
    conjuncts,
    parse,
    push_negations,
    sample_rows,
    template,
    uses_paired_samples,
)
from logicloss.logics import BACKEND_NAMES, ZERO_WHEN_TRUE, loss_function, make_backend, truth_function
from logicloss.network import _logic_grads
from test_batched_tape import REL_TOL, _rel_err, _scalar_reference

N_CLASSES = 10
N_INPUTS = 4
LAM = 0.7

_TABLES = synthetic_tables(N_CLASSES)
_CTX = ParseContext(
    n_classes=N_CLASSES,
    binding_sets={"Mixed": [(0,), (1, 2, 3), (4, 5), (6, 7, 8), (9,)]},
)
_FORMULAS = {
    "csim": csim_formula(_TABLES.triples, N_CLASSES),
    "group": group_formula(_TABLES.groups, eps=0.05),
    # out[1] twice in one conjunct; the third conjunct repeats its first
    # index in another place, so it has a template of its own
    "repeated-index": parse(
        "(out[1] >= out[1] * out[2]) and (out[3] >= out[3] * out[4])"
        " and (out[5] >= out[6] * out[5]) and (out[2] >= out[2] * out[2])",
        _CTX,
    ),
    "differ-in-a-constant": parse(
        "(out[0] <= 0.3) and (out[1] <= 0.4) and (out[2] <= 0.3) and (out[3] <= 0.4)", _CTX
    ),
    "reads-inputs": parse(
        "((in[0] >= 0) -> (out[0] >= out[1])) and ((in[2] >= 0) -> (out[2] >= out[3]))"
        " and (in[1] <= in[3] * 2) and (in[0] <= in[2] * 2)",
        _CTX,
    ),
    "right-nested": parse(
        "(out[0] >= out[1]) and ((out[2] >= out[3]) and (out[4] >= out[5]))", _CTX
    ),
    "mixed-forall": parse("forall g in Mixed: sum(out[g]) <= 0.5 or sum(out[g]) >= 0.6", _CTX),
    # a conjunction inside a shared template stacks along one more axis
    "nested-conjunction": parse(
        "(((out[0] >= 0.1) and (out[1] >= 0.1)) -> (out[2] >= out[3]))"
        " and (((out[4] >= 0.1) and (out[5] >= 0.1)) -> (out[6] >= out[7]))",
        _CTX,
    ),
    "single": parse("out[0] >= out[1]", _CTX),
    "with-norm2": parse(
        "(out[0] >= out[1]) and (out[2] >= out[3])"
        " and (norm2(out - out') <= 2 * norm2(in - in')) and (out[4] >= out[5])",
        _CTX,
    ),
}
COMBOS = [(b, name) for b in BACKEND_NAMES for name in _FORMULAS]


def _compiled(backend_name, name):
    backend = make_backend(backend_name)
    f = _FORMULAS[name]
    if backend.impl is None:
        f = push_negations(f, rewrite_implication=True)
    return backend, f


def _batches():
    """Random rows, and rows on the ties and thresholds where branches turn."""
    rng = np.random.default_rng(11)
    probs = rng.dirichlet(np.ones(N_CLASSES), size=9)
    probs[1] = np.eye(N_CLASSES)[3]
    probs[2] = 1.0 / N_CLASSES
    probs[3, 2] = probs[3, 3]
    probs[4, 0] = 0.3
    X = rng.uniform(-1.0, 1.0, size=(9, N_INPUTS))
    X[5, 2] = 0.0
    yield probs, X
    yield rng.dirichlet(np.ones(N_CLASSES), size=4), rng.normal(size=(4, N_INPUTS))


def _leaf_env(f, probs, X):
    k, rows = sample_rows(len(probs), uses_paired_samples(f))
    outputs = [[var(c) for c in np.ascontiguousarray(probs[r].T)] for r in rows]
    return k, batch_env(outputs, [list(np.ascontiguousarray(X[r].T)) for r in rows])


def _alone(f, backend, env):
    """The truth of `f`, every conjunction folded by `backend.conj` over its
    conjuncts, each compiled on its own."""
    if isinstance(f, (And, BigAnd)):
        values = [_alone(g, backend, env) for g in conjuncts(f)]
        acc = values[0]
        for v in values[1:]:
            acc = backend.conj(acc, v)
        return acc
    return truth_function(f, backend)(env)


@pytest.mark.parametrize("backend_name,name", COMBOS)
def test_batch_loss_is_the_fold_of_conjuncts_compiled_alone(backend_name, name):
    backend, f = _compiled(backend_name, name)
    loss = loss_function(f, backend)
    for probs, X in _batches():
        k, env = _leaf_env(f, probs, X)
        got = val(loss(env))
        truth = _alone(f, backend, env)
        want = val(truth if backend.polarity == ZERO_WHEN_TRUE else 1.0 - truth)
        assert np.array_equal(np.broadcast_to(got, (k,)), np.broadcast_to(want, (k,))), (got, want)


@pytest.mark.parametrize("backend_name,name", COMBOS)
def test_logic_grads_match_the_per_sample_scalar_loop(backend_name, name):
    backend, f = _compiled(backend_name, name)
    fn, paired = loss_function(f, backend), uses_paired_samples(f)
    for probs, X in _batches():
        want_loss, want_grad = _scalar_reference(fn, paired, probs, X, LAM)
        got_loss, got_grad = _logic_grads(fn, paired, probs, X, LAM)
        assert _rel_err(got_loss, want_loss) <= REL_TOL, (got_loss, want_loss)
        assert _rel_err(got_grad, want_grad) <= REL_TOL, (got_grad, want_grad)


@pytest.mark.parametrize("backend_name,name", COMBOS)
def test_floats_stay_on_the_float_path(backend_name, name):
    backend, f = _compiled(backend_name, name)
    probs, X = next(_batches())
    env = Env(
        outputs=[float(p) for p in probs[0]],
        outputs2=[float(p) for p in probs[1]],
        inputs=[float(x) for x in X[0]],
        inputs2=[float(x) for x in X[1]],
    )
    got = loss_function(f, backend)(env)
    truth = _alone(f, backend, env)
    assert type(got) is float
    assert got == (truth if backend.polarity == ZERO_WHEN_TRUE else 1.0 - truth)


def _tape_size(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def test_tape_does_not_grow_with_the_number_of_conjuncts():
    backend = make_backend("rc")
    rng = np.random.default_rng(2)
    probs = rng.dirichlet(np.ones(N_CLASSES), size=16)
    sizes = []
    for triples in (_TABLES.triples, _TABLES.triples * 2):
        f = csim_formula(triples, N_CLASSES)
        _, env = _leaf_env(f, probs, np.zeros((16, N_INPUTS)))
        root = loss_function(f, backend)(env)
        assert isinstance(root, Node)
        sizes.append(_tape_size(root))
    # one column and one t-norm node per added conjunct
    assert sizes[1] - sizes[0] <= 2 * len(_TABLES.triples), sizes


def test_template_renumbers_entries_by_first_appearance():
    assert template(parse("out[5] >= out[5] * out[2] + in[3]", _CTX)) == (
        parse("out[0] >= out[0] * out[1] + in[0]", _CTX),
        (5, 2),
        (3,),
    )
    a, b = (template(g) for g in conjuncts(_FORMULAS["csim"])[:2])
    assert a[0] == b[0] and hash(a[0]) == hash(b[0]) and a[1] != b[1]
    norm2 = conjuncts(_FORMULAS["with-norm2"])[2]
    assert template(norm2) is None
    assert template(parse("1 <= 2", _CTX)) is None


def test_conjuncts_follow_the_fold_order():
    parts = conjuncts(_FORMULAS["right-nested"])
    assert len(parts) == 2 and isinstance(parts[1], And)
    assert len(conjuncts(_FORMULAS["csim"])) == len(_TABLES.triples)
    assert len(conjuncts(_FORMULAS["mixed-forall"])) == 5
    assert conjuncts(_FORMULAS["single"]) == (_FORMULAS["single"],)
