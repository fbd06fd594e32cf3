"""Synthetic desk-scale tasks.

Each dataset is a dict of aligned arrays:
    tokens    (N, T) int64   input sequence
    targets   (N, T) int64   next-token targets
    loss_mask (N, T) float   positions contributing to the LM loss
    acc_mask  (N, T) bool    positions scored for accuracy
plus "kind" and "chance" (random-predictor accuracy on scored positions).
Generation is deterministic given (seed, split); eval rows are excluded
from train by exact-content rejection, so splits are disjoint.

Token id layout (shared across tasks, must fit the model vocab):
    0 filler/pad, 1 query/separator marker,
    2 .. 2+n_keys keys, then n_values value ids, reused as copy symbols
    and as the character alphabet for char-LM.
"""

import importlib.resources
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import SeededRng

FILLER, MARKER = 0, 1
CHAR_OFFSET = 2  # char-LM ids start here so 0/1 stay reserved

KINDS = ("assoc_recall", "copy", "char_lm")


@dataclass
class TaskSpec:
    kind: str = "assoc_recall"
    T: int = 64
    vocab: int = 64
    n_examples: int = 256
    seed: int = 0
    n_pairs: int = 8
    n_keys: int = 16
    n_values: int = 16
    copy_symbols: int = 16
    min_pairs: int = None  # train-split curriculum floor; None = fixed n_pairs

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown task kind '{self.kind}'")
        if self.min_pairs is None:
            self.min_pairs = self.n_pairs
        if self.kind == "assoc_recall" and self.T < 2 * self.n_pairs + 2:
            raise ConfigError("T too small for the requested number of pairs")
        if self.kind == "assoc_recall" and self.n_pairs > min(self.n_keys, self.n_values):
            raise ConfigError("n_pairs exceeds the distinct keys/values available")
        if not 1 <= self.min_pairs <= self.n_pairs:
            raise ConfigError("min_pairs must lie in [1, n_pairs]")
        if self.kind == "copy" and self.T < 5:
            raise ConfigError("T too small for the copy pattern")
        if 2 + self.n_keys + self.n_values > self.vocab:
            raise ConfigError("key/value ids exceed the vocabulary")


def _assoc_example(spec, rng, split):
    # values drawn without replacement: with n_pairs == n_values every value
    # is present in every sequence, so "guess a stored value" scores exactly
    # chance and only true key matching beats it
    #
    # mixed difficulty (min_pairs < n_pairs) applies to the train split only:
    # short examples bootstrap the matching circuit, which uniform full-length
    # training fails to find; eval always uses the full pair count
    if split == "train" and spec.min_pairs < spec.n_pairs:
        n_pairs = int(rng.integers(spec.min_pairs, spec.n_pairs + 1))
    else:
        n_pairs = spec.n_pairs
    keys = CHAR_OFFSET + rng.permutation(spec.n_keys)[:n_pairs]
    values = CHAR_OFFSET + spec.n_keys + rng.permutation(spec.n_values)[:n_pairs]
    tokens = np.full(spec.T, FILLER, dtype=np.int64)
    tokens[0 : 2 * n_pairs : 2] = keys
    tokens[1 : 2 * n_pairs + 1 : 2] = values
    q = int(rng.integers(0, n_pairs))
    tokens[-2] = MARKER
    tokens[-1] = keys[q]
    targets = np.empty_like(tokens)
    targets[:-1] = tokens[1:]
    targets[-1] = values[q]
    loss_mask = np.zeros(spec.T)
    loss_mask[-1] = 1.0
    return tokens, targets, loss_mask, loss_mask.astype(bool)


def _copy_example(spec, rng):
    L = (spec.T - 1) // 2
    seq = CHAR_OFFSET + rng.integers(0, spec.copy_symbols, L)
    tokens = np.full(spec.T, FILLER, dtype=np.int64)
    tokens[:L] = seq
    tokens[L] = MARKER
    tokens[L + 1 : 2 * L + 1] = seq
    targets = np.empty_like(tokens)
    targets[:-1] = tokens[1:]
    targets[-1] = FILLER
    mask = np.zeros(spec.T)
    mask[L : 2 * L] = 1.0  # positions predicting the echoed sequence
    return tokens, targets, mask, mask.astype(bool)


def _char_corpus(vocab):
    text = (
        importlib.resources.files("hafx.data").joinpath("charlm.txt").read_text()
    )
    charset = sorted(set(text))
    if CHAR_OFFSET + len(charset) > vocab:
        raise ConfigError("char-LM alphabet does not fit the vocabulary")
    lut = {c: CHAR_OFFSET + i for i, c in enumerate(charset)}
    ids = np.array([lut[c] for c in text], dtype=np.int64)
    return ids, len(charset)


def _char_example(spec, rng, corpus):
    start = int(rng.integers(0, len(corpus) - spec.T - 1))
    window = corpus[start : start + spec.T + 1]
    mask = np.ones(spec.T)
    return window[:-1].copy(), window[1:].copy(), mask, mask.astype(bool)


def gen_task(spec: TaskSpec, split="train"):
    """Deterministic dataset for one split; eval rows never appear in train."""
    rng = SeededRng(spec.seed, f"task/{spec.kind}/{split}")
    corpus, n_chars = _char_corpus(spec.vocab) if spec.kind == "char_lm" else (None, None)

    forbidden = set()
    if split == "train":
        eval_set = gen_task(spec, split="eval")
        forbidden = {row.tobytes() for row in eval_set["tokens"]}

    n = spec.n_examples if split == "train" else max(32, spec.n_examples // 4)
    rows = []
    attempts = 0
    while len(rows) < n:
        attempts += 1
        if attempts > 50 * n:
            raise ConfigError("could not generate enough distinct examples")
        r = rng.child(f"ex/{attempts}")
        if spec.kind == "assoc_recall":
            ex = _assoc_example(spec, r, split)
        elif spec.kind == "copy":
            ex = _copy_example(spec, r)
        else:
            ex = _char_example(spec, r, corpus)
        if split == "train" and ex[0].tobytes() in forbidden:
            continue
        rows.append(ex)

    tokens, targets, loss_mask, acc_mask = (np.stack(a) for a in zip(*rows))
    if spec.kind == "assoc_recall":
        chance = 1.0 / spec.n_values
    elif spec.kind == "copy":
        chance = 1.0 / spec.copy_symbols
    else:
        chance = 1.0 / n_chars
    return {
        "kind": spec.kind,
        "tokens": tokens,
        "targets": targets,
        "loss_mask": loss_mask,
        "acc_mask": acc_mask,
        "chance": chance,
    }


def merge_datasets(datasets, seed=0):
    """Shuffled concatenation of per-task training sets (same T, vocab)."""
    rng = SeededRng(seed, "task/merge")
    tokens = np.concatenate([d["tokens"] for d in datasets])
    targets = np.concatenate([d["targets"] for d in datasets])
    loss_mask = np.concatenate([d["loss_mask"] for d in datasets])
    order = rng.permutation(len(tokens))
    return {
        "kind": "mixture",
        "tokens": tokens[order],
        "targets": targets[order],
        "loss_mask": loss_mask[order],
    }
