"""AdamW with decoupled weight decay, plus a reduce-on-plateau scheduler."""

import numpy as np

LR_FLOOR = 1e-8  # below this the learning rate is frozen
BETAS = (0.9, 0.999)  # AdamW's first and second moment decay rates
ADAM_EPS = 1e-8  # AdamW's denominator floor
WEIGHT_DECAY = 0.01  # AdamW's decoupled weight decay
PLATEAU_FACTOR = 0.5  # lr multiplier on a plateau
PLATEAU_PATIENCE = 2  # evals without improvement that a plateau tolerates
PLATEAU_MIN_DELTA = 1e-4  # the smallest drop in the metric that counts as improvement


class AdamW:
    def __init__(self, params, lr, weight_decay=WEIGHT_DECAY):
        # params: dict name -> Tensor; order fixed by sorted name for determinism
        self.params = dict(sorted(params.items()))
        self.lr = float(lr)
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.t += 1
        b1, b2 = BETAS
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1**self.t)
            v_hat = self.v[name] / (1 - b2**self.t)
            p.data = p.data - self.lr * (
                m_hat / (np.sqrt(v_hat) + ADAM_EPS) + self.weight_decay * p.data
            )


class ReduceOnPlateau:
    """Multiply lr by PLATEAU_FACTOR after more than PLATEAU_PATIENCE evals in
    a row without a PLATEAU_MIN_DELTA improvement, never below LR_FLOOR."""

    def __init__(self, optimizer):
        self.opt = optimizer
        self.best = np.inf
        self.bad_evals = 0

    def step(self, metric):
        """Returns True if the lr was reduced on this eval."""
        if metric < self.best - PLATEAU_MIN_DELTA:
            self.best = metric
            self.bad_evals = 0
            return False
        self.bad_evals += 1
        if self.bad_evals > PLATEAU_PATIENCE:
            if self.opt.lr * PLATEAU_FACTOR >= LR_FLOOR:
                self.opt.lr *= PLATEAU_FACTOR
            self.bad_evals = 0
            return True
        return False
