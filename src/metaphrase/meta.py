"""Inner-loop adaptation and meta-updates over the trainable parameter set.

The training loop is generic over a loss function ``loss_fn(params, batch)``
returning a Node, where ``params`` maps parameter names to Nodes. That keeps
the machinery testable against surrogate losses with known closed-form
meta-gradients, while the pipeline plugs in the transformer NLL.

One meta-batch is one graph. Its tasks are stacked on a leading task axis:
``stack_phi`` broadcasts each phi entry from the shared leaf to
``(n_tasks, 1, ..., 1, *shape)``, rank ``1 + TASK_RANK``, so that row t is
task t's copy and broadcasts against a loss function's per-task activations
of rank ``TASK_RANK`` (the transformer's (batch, length, width)). An adapter
down-projection ``(d, h)`` becomes ``(n_tasks, 1, d, h)``. Entries outside
phi, the frozen weights, stay unstacked. ``loss_fn`` is then called with a
``TaskBatches`` of per-task batches and returns one loss per task (a Node of
``n_tasks`` entries).

The inner loop takes K gradient steps on the sum of the per-task support
losses. Row t of that gradient depends only on task t, so each row takes
exactly its own task's MAML step. Each step is the graph expression
``phi - alpha * grad``. The outer pass, value-only, differentiates the
summed query losses through the K steps back to the shared leaf, whose
broadcast VJP sums the per-task meta-gradients over the task axis. The
orders differ only in the inner ``backward``:

* ``second`` records its gradient graph, which the outer pass then
  differentiates through (exact MAML).
* ``first`` runs inside ``autodiff.no_graph()``, so each gradient enters its
  step as a constant and the adjoint passes the K steps unchanged: the
  meta-gradient sums the per-task query gradients at the adapted parameters
  (FOMAML).

The outer optimizer (SGD or AdamW, rate ``beta``) updates only the meta
parameters.

Only the requested (phi) names are ever written; everything else is frozen
by construction: a ParamStore enters through ``model.as_nodes`` with only
phi trainable.

``train_loop`` is the one optimiser loop of all three pipeline stages. A
caller supplies ``step_fn()``, which returns one step's gradients and
losses, and optionally ``validate()``; the loop clips, steps and writes
back, records the history, keeps the best-validation parameters and raises
``DivergenceError``. ``meta_train`` is ``train_loop`` over sampled
meta-batches; the pipeline's pretraining and plain training run it over
sampled pair batches.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .model import as_nodes, check_count, finite_number

LossFn = Callable[[Mapping[str, Node], object], Node]


@dataclass
class TrainHyper:
    alpha: float = 1e-2
    beta: float = 1e-3
    inner_steps: int = 4
    meta_batch_tasks: int = 3
    task_batch_size: int = 10
    order_mode: str = "second"
    outer_optimizer: str = "adamw"
    clip_norm: float = 1.0

    def __post_init__(self):
        if not all(finite_number(s) and s > 0 for s in (self.alpha, self.beta)):
            raise ValueError(f"step sizes must be finite and positive, got alpha={self.alpha!r}, "
                             f"beta={self.beta!r}")
        if not (finite_number(self.clip_norm) and self.clip_norm >= 0):
            raise ValueError(f"clip_norm must be finite and >= 0 (0 disables clipping), "
                             f"got {self.clip_norm!r}")
        for name in ("inner_steps", "meta_batch_tasks", "task_batch_size"):
            check_count(name, getattr(self, name), 1)
        if self.order_mode not in ("second", "first"):
            raise ValueError(f"order_mode must be 'second' or 'first', got {self.order_mode!r}")
        if self.outer_optimizer not in ("sgd", "adamw"):
            raise ValueError(f"unknown outer_optimizer {self.outer_optimizer!r}")


# AdamW constants of the outer optimizer.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01


class OptimizerState:
    """AdamW moment accumulators for a named parameter subset."""

    def __init__(self, shapes: Mapping[str, tuple]):
        self.m = {n: np.zeros(s) for n, s in shapes.items()}
        self.v = {n: np.zeros(s) for n, s in shapes.items()}
        self.step = 0


def adamw_step(state: OptimizerState, values: dict[str, np.ndarray],
               grads: Mapping[str, np.ndarray], lr: float) -> dict[str, np.ndarray]:
    """One decoupled-weight-decay Adam step; returns updated values."""
    state.step += 1
    t = state.step
    out = {}
    for name, g in grads.items():
        state.m[name] = ADAM_BETA1 * state.m[name] + (1 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1 - ADAM_BETA2) * g * g
        mhat = state.m[name] / (1 - ADAM_BETA1**t)
        vhat = state.v[name] / (1 - ADAM_BETA2**t)
        p = values[name]
        out[name] = p - lr * (mhat / (np.sqrt(vhat) + ADAM_EPS) + WEIGHT_DECAY * p)
    return out


def sgd_step(values: dict[str, np.ndarray], grads: Mapping[str, np.ndarray],
             lr: float) -> dict[str, np.ndarray]:
    return {name: values[name] - lr * g for name, g in grads.items()}


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> tuple[dict, float]:
    """Scale all gradients when their global L2 norm exceeds the threshold.

    When the sum of squares overflows although every entry is finite, the
    norm is recomputed from the entries divided by the largest magnitude.
    """
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if not math.isfinite(norm) and all(np.isfinite(g).all() for g in grads.values()):
        top = max(float(np.abs(g).max()) for g in grads.values())
        norm = top * float(np.sqrt(sum(float(((g / top) ** 2).sum()) for g in grads.values())))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        grads = {n: g * factor for n, g in grads.items()}
    return grads, norm


# Rank of the per-task activations that a stacked phi entry broadcasts against.
TASK_RANK = 3


class TaskBatches(tuple):
    """One batch per task of a meta-batch, in task order.

    A loss function called with one receives phi stacked by ``stack_phi``
    and returns the per-task losses.
    """


def stack_phi(params, phi_names: Sequence[str], n_tasks: int) -> dict[str, Node]:
    """The parameter map with each phi entry broadcast to one row per task."""
    current = as_nodes(params, phi_names)
    for n in phi_names:
        shape = current[n].shape
        ones = (1,) * (TASK_RANK - len(shape))
        current[n] = ad.broadcast_to(current[n], (n_tasks,) + ones + shape)
    return current


def _task_losses(loss_fn: LossFn, params, batches) -> tuple[Node, np.ndarray]:
    """(summed loss, per-task loss values) of one stacked call."""
    per_task = loss_fn(params, TaskBatches(batches))
    if per_task.value.size != len(batches):
        raise ValueError(f"loss_fn returned {per_task.value.size} losses for {len(batches)} tasks")
    return ad.sum_all(per_task), per_task.value.reshape(-1)


def inner_adapt(params, phi_names: Sequence[str], supports: Sequence, hyper: TrainHyper,
                loss_fn: LossFn) -> tuple[dict[str, Node], np.ndarray]:
    """K gradient steps on each task's support batch, touching only phi.

    ``supports`` holds one support batch per task. Returns (adapted
    parameter map, support losses of shape (K, n_tasks)); each adapted phi
    entry is stacked, row t being task t's: an update expression rooted at
    the original, whose gradients are constants in first-order mode.
    """
    current = stack_phi(params, phi_names, len(supports))
    losses = []
    for _ in range(hyper.inner_steps):
        loss, per_task = _task_losses(loss_fn, current, supports)
        losses.append(per_task)
        # First order takes the gradient as a constant: a value-only backward.
        with ad.no_graph() if hyper.order_mode == "first" else contextlib.nullcontext():
            grads = ad.backward(loss, {n: current[n] for n in phi_names})
        for n in phi_names:
            current[n] = ad.add(current[n], ad.scale(grads[n], -hyper.alpha))
    return current, np.array(losses)


def outer_gradient(params, phi_names: Sequence[str], tasks: Sequence,
                   hyper: TrainHyper, loss_fn: LossFn) -> tuple[dict[str, np.ndarray], dict]:
    """Meta-gradient of the summed post-adaptation query losses wrt phi.

    Both orders differentiate through the inner updates to the shared phi;
    with constant inner gradients (first order) that sums the per-task query
    gradients at the adapted parameters.
    """
    if not tasks:
        raise ValueError("meta batch must contain at least one task")
    for task in tasks:
        if not _batch_size(task.query):
            raise ValueError("task has an empty query set")

    base = as_nodes(params, phi_names)
    adapted, support_losses = inner_adapt(base, phi_names, [t.support for t in tasks],
                                          hyper, loss_fn)
    total, query_losses = _task_losses(loss_fn, adapted, [t.query for t in tasks])
    grad_values = ad.gradient_values(total, {n: base[n] for n in phi_names})

    metrics = {
        "support_loss": float(np.mean(support_losses)),
        "query_loss": float(np.mean(query_losses)),
    }
    return grad_values, metrics


def _apply_update(params, phi_names: Sequence[str], grads: dict[str, np.ndarray],
                 hyper: TrainHyper, opt_state: OptimizerState | None) -> float:
    """Clip, take one outer-optimizer step and write phi back; returns the grad norm."""
    grads, norm = clip_global_norm(grads, hyper.clip_norm)
    values = {n: params[n] for n in phi_names}
    if hyper.outer_optimizer == "adamw":
        new = adamw_step(opt_state, values, grads, hyper.beta)
    else:
        new = sgd_step(values, grads, hyper.beta)
    for n in phi_names:
        params.set(n, new[n])
    return norm


def _batch_size(batch) -> int:
    try:
        return len(batch)
    except TypeError:
        return 1


def evaluate_adaptation(params, phi_names: Sequence[str], tasks: Sequence,
                        hyper: TrainHyper, loss_fn: LossFn) -> float:
    """Mean query loss after inner adaptation, without updating params.

    The inner gradients are value-only (first order); evaluation only.
    """
    eval_hyper = replace(hyper, order_mode="first")
    adapted, _ = inner_adapt(params, phi_names, [t.support for t in tasks], eval_hyper, loss_fn)
    _, losses = _task_losses(loss_fn, adapted, [t.query for t in tasks])
    return float(np.mean(losses))


@dataclass
class StopCriteria:
    max_steps: int
    eval_every: int = 20

    def __post_init__(self):
        check_count("max_steps", self.max_steps, 0)
        check_count("eval_every", self.eval_every, 1)


@dataclass
class HistoryRow:
    step: int
    support_loss: float
    query_loss: float
    val_loss: float | None
    grad_norm: float
    wall_time: float


class DivergenceError(RuntimeError):
    """Validation loss became non-finite during training."""


StepFn = Callable[[], tuple[dict[str, np.ndarray], float, float]]


def train_loop(params, names: Sequence[str], step_fn: StepFn, hyper: TrainHyper,
               stop: StopCriteria, validate: Callable[[], float] | None = None
               ) -> list[HistoryRow]:
    """Run ``stop.max_steps`` updates of ``names``; returns one row per step.

    ``step_fn()`` returns ``(grads, support_loss, query_loss)`` for one step;
    the outer optimizer (learning rate ``hyper.beta``) applies the clipped
    gradients. ``validate()`` returns a held-out loss and runs every
    ``stop.eval_every`` steps and at the last step. The best-validation
    parameters are written back into params before returning; with no
    ``validate`` the final parameters stand. A ``NonFiniteError`` raised
    during a step names the step. A non-finite validation loss re-runs
    ``validate()`` once inside ``autodiff.checked()``, so an op that made
    it raises ``NonFiniteError`` under its name; otherwise the loss raises
    ``DivergenceError``.
    """
    opt_state = None
    if hyper.outer_optimizer == "adamw":
        opt_state = OptimizerState({n: params[n].shape for n in names})

    history: list[HistoryRow] = []
    best, best_val = None, None
    t0 = time.perf_counter()

    for step in range(1, stop.max_steps + 1):
        with ad.non_finite_context(f"at step {step}"):
            grads, support_loss, query_loss = step_fn()
            norm = _apply_update(params, names, grads, hyper, opt_state)

            val_loss = None
            if validate is not None and (step % stop.eval_every == 0 or step == stop.max_steps):
                val_loss = validate()
                if not np.isfinite(val_loss):
                    with ad.checked():
                        validate()
                    raise DivergenceError(f"validation loss diverged at step {step}: {val_loss}")
                if best_val is None or val_loss < best_val:
                    best_val = val_loss
                    best = {n: params[n] for n in names}  # read-only: set replaces, never writes

        history.append(HistoryRow(step, support_loss, query_loss, val_loss, norm,
                                  time.perf_counter() - t0))

    if best is not None:
        for n in names:
            params.set(n, best[n])
    return history


def meta_train(params, phi_names: Sequence[str], task_sampler, hyper: TrainHyper,
               stop: StopCriteria, loss_fn: LossFn,
               validation: Sequence = ()) -> list[HistoryRow]:
    """``train_loop`` over sampled meta-batches; returns its history rows.

    ``task_sampler(n)`` returns a list of n tasks. ``validation`` holds
    held-out tasks, scored by ``evaluate_adaptation``; an empty sequence
    means no validation.
    """

    def step_fn():
        tasks = task_sampler(hyper.meta_batch_tasks)
        grads, metrics = outer_gradient(params, phi_names, tasks, hyper, loss_fn)
        return grads, metrics["support_loss"], metrics["query_loss"]

    validate = None
    if validation:
        def validate():
            return evaluate_adaptation(params, phi_names, validation, hyper, loss_fn)

    return train_loop(params, phi_names, step_fn, hyper, stop, validate)


def write_history_csv(history: Sequence[HistoryRow], path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "support_loss", "query_loss", "val_loss", "grad_norm", "wall_time"])
        for row in history:
            writer.writerow(
                [
                    row.step,
                    f"{row.support_loss:.10g}",
                    f"{row.query_loss:.10g}",
                    "" if row.val_loss is None else f"{row.val_loss:.10g}",
                    f"{row.grad_norm:.10g}",
                    f"{row.wall_time:.3f}",
                ]
            )
