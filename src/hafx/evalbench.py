"""Ablation harness, recovered-performance metric, and the linear-vs-
quadratic scaling benchmark."""

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .attention import AblationMode, linear_attention
from .convert import EVAL_BATCH_SIZE, scored_batches
from .errors import ContractError
from .model import AttnSettings
from .rng import SeededRng
from .tensor import Tensor

ALL_MODES = tuple(AblationMode)  # the ablation order
BENCH_D, BENCH_D_PRIME = 64, 8  # the scaling benchmark's head width and feature count


def recovered_performance(mode_avg, base_avg):
    """Percentage of the base-model average metric retained by a mode."""
    if base_avg <= 0:
        raise ContractError("recovered_performance requires base_avg > 0")
    return 100.0 * mode_avg / base_avg


def evaluate_task(model, data, attn: AttnSettings, batch_size=EVAL_BATCH_SIZE):
    """(accuracy, mean loss, n_scored) of a task's `scored_batches`.

    Each batch's loss is weighted by its row count; every row of a task has
    the same number of scored positions, so this is the exact mean over
    scored positions whatever the size of the last batch. The forwards run
    under `Model.no_grad` and build no autodiff tape.
    """
    correct, scored, total_loss = 0, 0, 0.0
    with model.no_grad():
        for rows, logits, loss in scored_batches(model, data, attn, batch_size):
            m = data["acc_mask"][rows]
            correct += int((logits.data.argmax(axis=-1)[m] == data["targets"][rows][m]).sum())
            scored += int(m.sum())
            total_loss += float(loss.data) * len(m)
    return correct / scored, total_loss / len(data["tokens"]), scored


def mode_scores(model, tasks, mode, hy, win):
    """{task: `evaluate_task(...)`} under ablation `mode` and mixing `hy` at
    window `win[task]`, or under full softmax when `mode` is None."""
    softmax = AttnSettings(kind="softmax")
    return {name: evaluate_task(model, data, softmax if mode is None
                                else AttnSettings("hybrid", mode, win[name], hy))
            for name, data in tasks.items()}


@dataclass
class EvalReport:
    stage: str
    tasks: list
    rows: list = field(default_factory=list)  # (mode, task, acc, loss)
    base_scores: dict = field(default_factory=dict)  # task -> base accuracy

    @property
    def base_avg(self):
        return float(np.mean([self.base_scores[t] for t in self.tasks]))

    def mode_avg(self, mode):
        accs = [acc for m, _t, acc, _l in self.rows if m == mode]
        return float(np.mean(accs))

    def recovered(self, mode):
        """Recovered performance of `mode`; None when the softmax base
        scores 0, where the percentage is undefined."""
        if self.base_avg <= 0:
            return None
        return recovered_performance(self.mode_avg(mode), self.base_avg)

    def csv_rows(self):
        """stage, mode, task, metric, value, recovered_pct (schema-stable);
        recovered_pct is empty when undefined."""
        out = []
        for mode, task, acc, loss in self.rows:
            rec = self.recovered(mode)
            rec = "" if rec is None else rec
            out.append((self.stage, mode.value, task, "accuracy", acc, rec))
            out.append((self.stage, mode.value, task, "loss", loss, rec))
        return out


def evaluate_ablations(model, tasks, hy, win, modes=ALL_MODES, stage="eval"):
    """One metric row per (mode, task) over identical eval batches, and the
    full-softmax reference accuracy of each task on the same model.

    `tasks` maps task name -> dataset, and `win` maps task name ->
    WindowSpec (the collapse probe shrinks the window for associative
    recall only); `hy` is the mixing of every hybrid mode.
    """
    base = mode_scores(model, tasks, None, hy, win)
    report = EvalReport(stage, list(tasks), base_scores={n: s[0] for n, s in base.items()})
    for mode in modes:
        for name, (acc, loss, _n) in mode_scores(model, tasks, mode, hy, win).items():
            report.rows.append((mode, name, acc, loss))
    return report


# -- scaling benchmark ------------------------------------------------------------


def softmax_attention_full_np(q, k, v):
    """Plain-numpy causal softmax attention that materialises the T x T
    score matrix; the quadratic path of the scaling benchmark.

    The only T x T allocation is the float64 score matrix (T*T*8 bytes, the
    auxiliary state the benchmark reports); masking, the max shift, exp and
    normalisation run in place on it, with O(T) row temporaries besides.
    Both products use einsum, which runs on the calling thread; `@` would
    hand them to the BLAS thread pool, whose speed depends on whether the
    machine's other cores are idle.
    """
    T, d = q.shape
    scores = np.einsum("td,sd->ts", q, k)
    scores *= 1.0 / np.sqrt(d)
    for t in range(T - 1):
        scores[t, t + 1:] = -np.inf
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return np.einsum("ts,sd->td", scores, v)


def _time_rounds(fns, reps):
    """Per-call wall times of each fn over `reps` interleaved rounds.

    Each fn gets one warm-up call (caches), then one timed call
    fixes how many calls make up its sample, so that every sample lasts at
    least 50 ms (the per-sample floor). A round takes one
    sample of every fn, with the calls of all fns spread evenly over the
    round, so the samples of one round see the same drift in machine speed.
    Returns, per fn, its `reps` seconds-per-call samples in round order.
    """
    counts = []
    for fn in fns:
        fn()
        t0 = time.perf_counter()
        fn()
        once = time.perf_counter() - t0
        counts.append(max(1, int(np.ceil(0.05 / max(once, 1e-9)))))
    # call j of fn i runs at fraction (j + 1/2) / counts[i] of each round
    schedule = sorted(((j + 0.5) / n, i) for i, n in enumerate(counts) for j in range(n))
    samples = [[] for _ in fns]
    for _ in range(reps):
        spent = [0.0] * len(fns)
        for _pos, i in schedule:
            t0 = time.perf_counter()
            fns[i]()
            spent[i] += time.perf_counter() - t0
        for out, total, n in zip(samples, spent, counts):
            out.append(total / n)
    return samples


@dataclass
class BenchReport:
    """Per-round timings of the (path, T) cases of `benchmark_scaling`."""

    samples: dict = field(default_factory=dict)  # (path, T) -> per-round ms
    aux: dict = field(default_factory=dict)  # (path, T) -> aux-state bytes

    @property
    def rows(self):
        """(path, T, median_ms, aux_bytes) per case, in insertion order."""
        return [(path, T, float(np.median(ms)), self.aux[path, T])
                for (path, T), ms in self.samples.items()]

    def ratios(self, path):
        """time(2T)/time(T) for consecutive doublings of T on one path: the
        median over rounds of the ratio of the two samples of one round."""
        Ts = sorted(T for p, T in self.samples if p == path)
        out = {}
        for t1, t2 in zip(Ts, Ts[1:]):
            if t2 == 2 * t1:
                per_round = np.divide(self.samples[path, t2], self.samples[path, t1])
                out[t1] = float(np.median(per_round))
        return out


def benchmark_scaling(T_list, reps):
    """Wall times for the chunked-LA and quadratic-softmax paths.

    Every (path, T) case is timed once per round in `reps` interleaved
    rounds (`_time_rounds`, 50 ms floor per sample). `BenchReport.ratios`
    divides two samples of the same round, so drift in machine speed from
    one round to the next cancels out of the scaling ratios; the rows report
    each case's median over rounds.

    The chunked path runs `linear_attention` on numpy inputs wrapped in
    Tensors; its auxiliary state is the fixed (S, z) accumulator pair it
    carries across chunks, F x d plus F float64s for d = BENCH_D and
    F = 2 * BENCH_D_PRIME features. The quadratic path materialises the
    T x T score matrix.
    """
    if reps < 3:
        raise ContractError("benchmark requires >= 3 repetitions")

    def chunked_la(phi_q, phi_k, v):
        return linear_attention(Tensor(phi_q), Tensor(phi_k), Tensor(v)).data

    rng = SeededRng(0, "bench")
    d, F = BENCH_D, 2 * BENCH_D_PRIME
    stream_aux = (F * d + F) * 8
    cases = {}  # (path, T) -> (fn, aux_bytes)
    for T in sorted(T_list):
        r = rng.child(f"T{T}")
        q = r.normal((T, d))
        k = r.normal((T, d))
        v = r.normal((T, d))
        phi_q = np.abs(r.normal((T, F))) + 0.01
        phi_k = np.abs(r.normal((T, F))) + 0.01

        cases["streaming-chunked", T] = (
            partial(chunked_la, phi_q, phi_k, v), stream_aux)
        cases["quadratic-softmax", T] = (
            partial(softmax_attention_full_np, q, k, v), T * T * 8)
    times = _time_rounds([fn for fn, _aux in cases.values()], reps)
    return BenchReport(
        samples={key: [t * 1e3 for t in ts] for key, ts in zip(cases, times)},
        aux={key: aux for key, (_fn, aux) in cases.items()},
    )
