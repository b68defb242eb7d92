"""Finite-difference verification of backpropagated gradients.

Central differences with epsilon 1e-5 against the analytic gradient, compared
by relative error |fd - analytic| / max(|fd|, |analytic|, floor). The floor
keeps float64 roundoff in the finite differences from dominating coordinates
whose true gradient is near zero.
"""

from __future__ import annotations

import numpy as np

from .autodiff import no_grad
from .documents import MAX_SPAN_LENGTH, VISUAL_DIM, Document, Span, span_target
from .optim import clear_grads

EPSILON = 1e-5
# below this scale the comparison is effectively absolute at floor * tolerance
RELATIVE_FLOOR = 1e-3
EXAMPLE_TOKENS, EXAMPLE_TYPES = 12, 4


def gradcheck_example(seed=0, max_span_length=MAX_SPAN_LENGTH):
    """A small document and its dense span target for finite-difference checks.

    Token types repeat so a min-count-2 vocabulary keeps them all, and the
    visual rows are random so every embedding slice participates. Target
    spans are cut to ``max_span_length`` tokens, so every one is a candidate.
    """
    rng = np.random.default_rng(seed)
    tokens = tuple(f"w{i % EXAMPLE_TYPES}" for i in range(EXAMPLE_TOKENS))
    visual = rng.uniform(0.0, 1.0, size=(EXAMPLE_TOKENS, VISUAL_DIM))
    doc = Document(f"gradcheck{seed}", tokens, visual)
    spans = [Span(start, min(length, max_span_length)) for start, length in
             ((1, 2), (5, 1), (4, 3))]
    return doc, span_target(EXAMPLE_TOKENS, max_span_length, spans)


def relative_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), RELATIVE_FLOOR)


def finite_difference_check(
    loss_fn,
    registry,
    samples_per_param=16,
    seed=0,
):
    """Check d(loss)/d(param) for every registry parameter.

    ``loss_fn`` must be deterministic (dropout disabled, no fresh randomness):
    it is evaluated twice up front and any discrepancy is an error, since a
    noisy loss makes the finite differences meaningless. Large parameters are
    checked on ``samples_per_param`` seeded random coordinates; pass None to
    sweep every coordinate. Returns {name: max relative error}.
    """
    with no_grad():
        first = float(loss_fn().data)
        second = float(loss_fn().data)
    if first != second:
        raise RuntimeError(
            f"loss_fn is not deterministic ({first!r} != {second!r}); "
            "disable dropout and fix all seeds before gradient checking"
        )

    clear_grads(registry)
    loss = loss_fn()
    loss.backward()
    analytic = {}
    for name, p in registry.items():
        if p.grad is None:
            raise RuntimeError(f"parameter {name!r} received no gradient")
        analytic[name] = p.grad.copy()
    clear_grads(registry)

    rng = np.random.default_rng(seed)
    errors = {}
    for name, p in registry.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if samples_per_param is None or n <= samples_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=samples_per_param, replace=False)
        worst = 0.0
        grad_flat = analytic[name].reshape(-1)
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + EPSILON
            with no_grad():
                f_plus = float(loss_fn().data)
            flat[idx] = original - EPSILON
            with no_grad():
                f_minus = float(loss_fn().data)
            flat[idx] = original
            fd = (f_plus - f_minus) / (2.0 * EPSILON)
            worst = max(worst, relative_error(fd, grad_flat[idx]))
        errors[name] = worst
    return errors
