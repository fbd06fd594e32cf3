"""Correctness checks of the benchmark. Each returns (ok, detail) and does
not raise on a wrong output; `Checks` records them as operations."""

import struct

import numpy as np

# Agreement "to float64 rounding": the program and the reference sum in a
# different order, so they differ by a few ulps of the values they add.
LOGIT_TOL = 1e-9


class Checks:
    def __init__(self):
        self.results = []  # (name, ok, detail)

    def run(self, name, fn, *args, **kwargs):
        try:
            ok, detail = fn(*args, **kwargs)
        except Exception as e:  # a check that cannot run has failed
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        self.results.append((name, bool(ok), detail))
        return ok

    @property
    def failed(self):
        return sum(not ok for _n, ok, _d in self.results)


def close(program, reference, tol=LOGIT_TOL):
    """Max abs difference within tol, relative to the reference's scale."""
    program, reference = np.asarray(program), np.asarray(reference)
    if program.shape != reference.shape:
        return False, f"shape {program.shape} != {reference.shape}"
    err = float(np.max(np.abs(program - reference))) if program.size else 0.0
    scale = max(1.0, float(np.max(np.abs(reference))) if reference.size else 0.0)
    return err <= tol * scale, f"max |diff| {err:.3g} (scale {scale:.3g})"


def adamw_first_update(theta0, grad, theta1, lr, weight_decay, eps, tol=1e-12):
    """At t = 1 AdamW's bias-corrected moments are g and g*g, so the update
    is -lr * (g / (|g| + eps) + weight_decay * theta)."""
    worst = 0.0
    for name, t0 in theta0.items():
        g = grad[name]
        expected = t0 - lr * (g / (np.abs(g) + eps) + weight_decay * t0)
        worst = max(worst, float(np.max(np.abs(theta1[name] - expected))))
    return worst <= tol, f"max |update error| {worst:.3g} over {len(theta0)} tensors"


def directional_derivative(loss_fn, theta, grad, direction, h=1e-4, rtol=1e-5):
    """Central difference of loss_fn along `direction` against grad . direction."""
    plus = {n: theta[n] + h * direction[n] for n in theta}
    minus = {n: theta[n] - h * direction[n] for n in theta}
    numeric = (loss_fn(plus) - loss_fn(minus)) / (2.0 * h)
    analytic = float(sum(np.sum(grad[n] * direction[n]) for n in theta))
    err = abs(numeric - analytic)
    ok = err <= rtol * max(abs(numeric), abs(analytic)) + 1e-10
    return ok, f"numeric {numeric:.9g} analytic {analytic:.9g}"


def loss_decreases(losses, share=0.1):
    """Mean over the last `share` of the steps below the mean over the first."""
    if len(losses) < 2:
        return False, f"only {len(losses)} step losses"
    n = max(1, int(len(losses) * share))
    first, last = float(np.mean(losses[:n])), float(np.mean(losses[-n:]))
    return last < first, f"first {n} steps {first:.5f}, last {n} steps {last:.5f}"


def frozen_during_finetune(before, after):
    """Every tensor of the post-transfer checkpoint (base weights and feature
    maps) is bit-identical after finetuning; the only new tensors are LoRA
    factors, and finetuning moved some B factor off zero."""
    changed = [n for n, a in before.items()
               if n not in after or after[n].tobytes() != a.tobytes()]
    extra = [n for n in after if n not in before]
    not_lora = [n for n in extra if ".lora_" not in n]
    moved = any(np.any(after[n] != 0) for n in extra if n.endswith(".lora_b"))
    ok = not changed and not not_lora and moved
    return ok, (f"changed {changed[:3]}, non-LoRA additions {not_lora[:3]}, "
                f"LoRA B moved: {moved}")


def accuracy_matches(program_acc, reference_logits, targets, acc_mask):
    """The program's accuracy equals the argmax accuracy of the reference."""
    pred = reference_logits.argmax(axis=-1)
    acc_mask = np.asarray(acc_mask, dtype=bool)
    ref_acc = int((pred[acc_mask] == targets[acc_mask]).sum()) / int(acc_mask.sum())
    return program_acc == ref_acc, f"program {program_acc!r} reference {ref_acc!r}"


def same_across_rounds(records):
    """Every round of one seed produced identical results."""
    if len(records) < 2:
        return False, "fewer than two rounds to compare"
    diff = [i for i, r in enumerate(records) if r != records[0]]
    return not diff, f"{len(records)} rounds, differing: {diff}"


def read_checkpoint(path):
    """Tensors of a HAFX checkpoint file as float32 arrays, parsed here from
    the documented layout: magic "HAFX", u32 version, u32 meta length, meta
    JSON, u32 tensor count, then per tensor u16 name length, name, u8 rank,
    u32 dims and float32 data, all little-endian."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != b"HAFX":
        raise ValueError(f"{path}: not a HAFX checkpoint")
    pos = 8
    (meta_len,) = struct.unpack_from("<I", blob, pos)
    pos += 4 + meta_len
    (count,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    tensors = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, pos)
            name = blob[pos + 2:pos + 2 + name_len].decode("utf-8")
            pos += 2 + name_len
            rank = blob[pos]
            dims = struct.unpack_from(f"<{rank}I", blob, pos + 1)
            pos += 1 + 4 * rank
            size = int(np.prod(dims)) if rank else 1
            tensors[name] = np.frombuffer(blob, dtype="<f4", count=size, offset=pos).reshape(dims)
            pos += 4 * size
    except (struct.error, IndexError) as e:
        raise ValueError(f"{path}: truncated ({e})") from e
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes")
    return tensors
