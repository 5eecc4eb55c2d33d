"""Accelerated solver for bilinear box-simplex games.

The game is  min over x in [-1,1]^n of max over y in the probability
simplex of  x^T A y - <b, y> + <c, x>.  The solver is an extragradient
scheme, and it returns the running average of the iterates together with
an exactly evaluated duality gap certificate.

Each iteration makes ten products with A, A^T, |A| and |A|^T.  The
listing makes twelve, but two of them, |A| y and |A|^T x^2, are the last
half-step's |A| y_next and |A|^T x_next^2, so they are carried over; the
arithmetic and every iterate are bit for bit the listing's.  The loop
updates preallocated buffers and product outputs in place, and tests the
iterates for finiteness only at the gap checkpoints.

A run can only stop at a gap checkpoint, and most runs are decided long
before the budget T.  So by default the checkpoints are geometric: at
iterations k_1 = 1 and k_{j+1} = max(k_j + 1, ceil(CHECK_GROWTH k_j)),
and at T.  A run then stops within about 10% of the first checkpointed
iteration whose certificate decides it, after O(log T) checkpoints of
two products each.  The schedule only decides where the loop reads the
certificate; the iterates do not depend on it.

Simplex iterates are kept in the log domain: the multiplicative update
y * exp(v) followed by l1 normalization becomes a log-sum-exp shift, which
cannot underflow no matter how many iterations run.

A is any operator with a shape and the four products of a
ColSparseMatrix (matvec, matvec_T, abs_matvec, abs_matvec_T): an explicit
matrix, or a matrix that exists only as an operator, such as the stacked
game matrices of the flow reductions.  Each product must return a new
array, which the solver may overwrite.  The step weights ALPHA and BETA
and the budget multiplier T_MULTIPLIER are the published listing's
values and fixed.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

FLOOR = 1e-300  # denominator floor; only reachable for all-zero rows of A
ALPHA = 2.0  # regularization weights of the extragradient steps
BETA = 2.0
T_MULTIPLIER = 6.0  # iteration budget T = ceil(6 (8 log2 d + 1) L / eps)
CHECK_GROWTH = Fraction(11, 10)  # default checkpoints grow by this factor


class ParameterError(ValueError):
    """Bad accuracy or instance parameters."""


class NumericOverflowError(RuntimeError):
    """A non-finite intermediate appeared; should not happen on valid input."""


@dataclass
class SolverConfig:
    """Bookkeeping knobs.

    The exact gap of the running average is evaluated at the checkpoints
    and after the last iteration; with early_exit the loop stops once it
    reaches eps.  check_every > 0 puts a checkpoint every check_every
    iterations; 0 selects the geometric schedule 1, 2, ..., k,
    max(k + 1, ceil(1.1 k)), ..., which makes O(log T) checkpoints.  A
    non-finite entry of b or c raises NumericOverflowError before the first
    iteration; the iterates are tested for finiteness at the checkpoints,
    so a NaN or infinity that appears later raises at the next checkpoint.
    """

    early_exit: bool = True
    check_every: int = 0  # 0 selects the geometric schedule
    collect_trace: bool = False


@dataclass
class SaddlePoint:
    x: np.ndarray
    y: np.ndarray
    iterations: int
    gap: float
    scheduled_iterations: int
    early_exit: bool
    trace: list = field(default_factory=list)


class BoxSimplexInstance:
    """An (A, b, c) game with A of shape (n, d).

    A is a ColSparseMatrix or any operator with its shape and four
    products, each returning a new array; L = ||A||_{1->1} must be
    supplied when A has no one_to_one_norm().
    """

    def __init__(self, A, b, c, L=None):
        self.A = A
        n, d = A.shape
        self.n, self.d = n, d
        self.b = np.asarray(b, dtype=np.float64)
        self.c = np.asarray(c, dtype=np.float64)
        if self.b.shape != (d,):
            raise ParameterError(f"b has shape {self.b.shape}, expected ({d},)")
        if self.c.shape != (n,):
            raise ParameterError(f"c has shape {self.c.shape}, expected ({n},)")
        self.L = float(L) if L is not None else A.one_to_one_norm()

    def eval_simplex_form(self, y):
        """-( ||Ay + c||_1 + <b, y> ); lower certificate for the game value."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.d,) or y.min(initial=0.0) < -1e-12 or abs(y.sum() - 1.0) > 1e-9:
            raise ParameterError("y is not in the probability simplex")
        return -(float(np.abs(self.A.matvec(y) + self.c).sum()) + float(self.b @ y))

    def eval_box_form(self, x):
        """max(A^T x - b) + <c, x>; upper certificate for the game value."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,) or np.abs(x).max(initial=0.0) > 1.0 + 1e-12:
            raise ParameterError("x is not in the box [-1,1]^n")
        return float((self.A.matvec_T(x) - self.b).max()) + float(self.c @ x)

    def gap(self, x, y):
        """Exact sup/inf gap of the pair: eval_box(x) - eval_simplex(y).

        Nonnegative for every feasible pair and zero exactly at saddle
        points.
        """
        return self.eval_box_form(x) - self.eval_simplex_form(y)


def iteration_budget(d, L, eps):
    """Scheduled iteration count ceil(T_MULTIPLIER*(8 log2 d + 1)*L/eps)."""
    return int(math.ceil(T_MULTIPLIER * (8.0 * math.log2(d) + 1.0) * L / eps))


def _next_checkpoint(k, check_every):
    """The checkpoint after iteration k (1-based); T is one as well."""
    if check_every > 0:
        return k + check_every
    return max(k + 1, math.ceil(CHECK_GROWTH * k))


def _log_project(ln_new, scratch):
    """ln_new - logsumexp(ln_new), in place; scratch is a buffer of its length."""
    m = ln_new.max()
    np.subtract(ln_new, m, out=scratch)
    np.exp(scratch, out=scratch)
    ln_new -= m + math.log(scratch.sum())
    return ln_new


def _project_box(num, den, out):
    """clip(num / max(den, FLOOR), -1, 1) into out; den is overwritten.

    Where a row of A is identically zero the denominator vanishes and the
    update degenerates to the clipped sign of the numerator; the floor
    realizes exactly that limit.  maximum and minimum give np.clip's
    results bit for bit, NaN and -0.0 included, at a fraction of its call
    cost.
    """
    np.maximum(den, FLOOR, out=den)
    np.divide(num, den, out=out)
    np.maximum(out, -1.0, out=out)
    np.minimum(out, 1.0, out=out)
    return out


def _average(xhat_sum, yhat_sum, k):
    xa = np.clip(xhat_sum / k, -1.0, 1.0)
    ya = yhat_sum / k
    s = ya.sum()
    if s <= 0:
        raise NumericOverflowError("running average left the simplex")
    return xa, ya / s


def _entropy(y):
    mask = y > 0
    return float(-(y[mask] * np.log(y[mask])).sum())


def _solve_zero_matrix(inst):
    """Closed form for A = 0: the game decouples into two linear problems."""
    x = -np.sign(inst.c)
    j = int(np.argmin(inst.b)) if inst.d else 0
    y = np.zeros(inst.d)
    y[j] = 1.0
    return SaddlePoint(
        x=x, y=y, iterations=0, gap=inst.gap(x, y), scheduled_iterations=0, early_exit=False
    )


def _run(inst, eps, config, stop_fn=None):
    """Core loop shared by solve() and value probes.

    stop_fn(best_upper, best_lower) may end the run once the certified
    value bounds decide whatever question the caller is asking.  Returns
    (SaddlePoint, best_upper, best_lower) with certificates in original
    units.
    """
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if not (np.isfinite(inst.b).all() and np.isfinite(inst.c).all()):
        raise NumericOverflowError("b and c must be finite")
    L = inst.L
    if L == 0.0:
        pt = _solve_zero_matrix(inst)
        return pt, inst.eval_box_form(pt.x), inst.eval_simplex_form(pt.y)
    if eps >= L:
        raise ParameterError(f"eps={eps} must be below L={L}")

    n, d = inst.n, inst.d
    A = inst.A
    inv_L = 1.0 / L
    two_inv_L = 2.0 * inv_L
    neg_inv_beta = -(1.0 / BETA)
    b = inst.b * inv_L
    c = inst.c * inv_L
    T = iteration_budget(d, L, eps)
    checkpoint = _next_checkpoint(0, config.check_every)

    x = np.zeros(n)
    ln_y = np.full(d, -math.log(d))
    ln_ybar = ln_y.copy()
    y = np.exp(ln_y)
    ybar = y.copy()
    xhat_sum = np.zeros(n)
    yhat_sum = np.zeros(d)
    # Carried from one iteration to the next: the last half-step computes
    # |A| y_next and |A|^T x_next^2 anyway, and ALPHA ln_y_next is the
    # next iteration's ALPHA ln_y.
    absA_y = inv_L * A.abs_matvec(y)
    absAT_x2 = inv_L * A.abs_matvec_T(x * x)
    alpha_ln_y = ALPHA * ln_y
    x_new, x_prime, two_diag, den, sq = (np.empty(n) for _ in range(5))
    alpha_ln_next, scratch = np.empty(d), np.empty(d)

    def oracle(y_at, x_at, factor):
        """-(gx - two_diag) and gy of the gradient at (x_at, y_at) / factor."""
        num = A.matvec(y_at)
        num *= inv_L
        num += c
        num /= factor
        num -= two_diag
        np.negative(num, out=num)  # not two_diag - gx, which flips zero signs
        gy = A.matvec_T(x_at)
        gy *= inv_L
        np.subtract(b, gy, out=gy)
        gy /= factor
        return num, gy

    def abs_T_squared(v):
        p = A.abs_matvec_T(np.multiply(v, v, out=sq))
        p *= inv_L
        return p

    def simplex_step(base_ln, acc, addend, alpha_ln_target=None):
        """log_project(base_ln - (acc + addend - absAT_x2) / BETA), with
        alpha_ln_target - alpha_ln_y inside the bracket for the prox-center
        steps; built in acc, in the listing's order of operations."""
        acc += addend
        if alpha_ln_target is not None:
            acc += alpha_ln_target
        acc -= absAT_x2
        if alpha_ln_target is not None:
            acc -= alpha_ln_y
        acc *= neg_inv_beta
        acc += base_ln
        return _log_project(acc, scratch)

    trace = []
    best_upper = math.inf
    best_lower = -math.inf

    for t in range(T):
        np.multiply(2.0, x, out=two_diag)
        two_diag *= absA_y

        # gradient step from (x, y), factor 1/3
        num, gy = oracle(y, x, 3.0)
        np.multiply(2.0, absA_y, out=den)
        x_star = _project_box(num, den, x_new)
        yp = simplex_step(ln_y, abs_T_squared(x_star), gy)
        np.exp(yp, out=yp)
        p = A.abs_matvec(yp)
        p *= two_inv_L
        _project_box(num, p, x_prime)

        xhat_sum += x_prime
        yhat_sum += yp

        # extragradient step from the prox center (x, ybar), factor 1/6
        num, gy = oracle(yp, x_prime, 6.0)
        p = A.abs_matvec(ybar)
        p *= two_inv_L
        xbar_star = _project_box(num, p, x_new)
        np.multiply(ALPHA, ln_ybar, out=alpha_ln_next)
        ln_y_next = simplex_step(ln_ybar, abs_T_squared(xbar_star), gy, alpha_ln_next)
        y_next = np.exp(ln_y_next, out=y)
        absA_y_next = A.abs_matvec(y_next)
        np.multiply(absA_y_next, two_inv_L, out=den)
        absA_y_next *= inv_L
        x_next = _project_box(num, den, x_new)
        absAT_x2_next = abs_T_squared(x_next)
        np.multiply(ALPHA, ln_y_next, out=alpha_ln_next)
        # built in gy, so that absAT_x2_next survives; still subtracts
        # this iteration's absAT_x2 and ALPHA ln_y
        ln_ybar = simplex_step(ln_y, gy, absAT_x2_next, alpha_ln_next)

        x, x_new = x_next, x
        ln_y, y = ln_y_next, y_next
        ybar = np.exp(ln_ybar, out=ybar)
        absA_y, absAT_x2 = absA_y_next, absAT_x2_next
        alpha_ln_y, alpha_ln_next = alpha_ln_next, alpha_ln_y

        if t + 1 < checkpoint and t < T - 1:
            continue
        checkpoint = _next_checkpoint(t + 1, config.check_every)
        if not np.isfinite(x).all() or not np.isfinite(ln_y).all():
            raise NumericOverflowError(f"non-finite iterate by iteration {t + 1}")
        xa, ya = _average(xhat_sum, yhat_sum, t + 1)
        up = inst.eval_box_form(xa)
        lo = inst.eval_simplex_form(ya)
        best_upper = min(best_upper, up)
        best_lower = max(best_lower, lo)
        if config.collect_trace:
            trace.append((t + 1, up - lo, _entropy(ya)))
        if stop_fn is not None and stop_fn(best_upper, best_lower):
            break
        if config.early_exit and up - lo <= eps:
            break

    # The last iteration is a checkpoint, so every run ends on one and
    # its average and bounds are the final certificate.
    pt = SaddlePoint(
        x=xa,
        y=ya,
        iterations=t + 1,
        gap=up - lo,
        scheduled_iterations=T,
        early_exit=t + 1 < T,
        trace=trace,
    )
    return pt, best_upper, best_lower


def solve(inst, eps, config=None):
    """Run the extragradient iteration and return an eps-saddle point.

    The step sequence follows the published listing literally: rescale
    (A, b, c) by 1/L, take T = ceil(6(8 log2 d + 1) L / eps) iterations of
    the gradient (factor 1/3) and extragradient (factor 1/6) oracles with
    ALPHA = BETA = 2, and return the running average.  The reported gap is
    exact and in original (unrescaled) units.
    """
    pt, _, _ = _run(inst, eps, config or SolverConfig())
    return pt


def solve_decide(inst, eps, config=None, upper_at_most=None, lower_above=None):
    """Solve, stopping as soon as the certified value bounds settle a test.

    upper_at_most: stop once eval_box of the average is <= this value.
    lower_above: stop once eval_simplex of the average exceeds it.  Used
    by the binary search over the flow threshold t, where only a
    comparison against a fixed level matters, so far-from-threshold probes
    finish after a few checkpoints.  Returns (point, best_upper,
    best_lower).
    """

    def stop_fn(up, lo):
        if upper_at_most is not None and up <= upper_at_most:
            return True
        if lower_above is not None and lo > lower_above:
            return True
        return False

    return _run(inst, eps, config or SolverConfig(), stop_fn=stop_fn)
