"""Per-slot resource slicing as an overlapping coalition game, with solvers.

A slot presents each service with a slice: the energy every node commits to
that service plus the offload fractions routing workload between neighbors.
Payoffs are transferable and contribution-based: the sender of workload
keeps the full payment for every request of its own that gets served within
the deadline, wherever it was processed.  The welfare solver looks for the
joint energy split and offload pattern maximizing the summed payoff of all
nodes; the core checker then probes whether any small coalition could do
strictly better for every member on its own.

A slice (``SliceInstance``) holds its network, a service index and that
service's energy and arrivals columns; its round trips, capacities and open
edges are read from the network's fixed arrays (``NetworkSpec.arrays``).

Offload fractions for one slice are found by block-coordinate ascent: each
sender in turn gets the row of fractions maximizing its served workload
subject to every deadline and capacity staying feasible, via a water-filling
step on a common marginal delay price.  That price is the largest float
whose allocation passes.  Because round trips are non-negative, the
pass/fail verdict is monotone in the price even in floating point, so one
search finds it: safeguarded Newton probes narrow a pass/fail bracket, and
geometric mids close it to two adjacent floats, which is where a geometric
bisection ends, to the last bit.  Every stage that backs off along a segment
start + s*delta to stay feasible finds its step with one method,
``_SliceWork.last_feasible``, a bisection (``_last_feasible``) on that
segment.  It checks the mids of the next few bisection levels as one stack
of matrices, each with the arithmetic a check of that matrix alone does, so
the step is the one-mid-at-a-time bisection's to the last bit.  Every other
check, row bound and swap reads the slice's loads, responses and verdict
through ``_SliceWork.state``, which computes all three together and keeps
them for the offload matrix last seen, keyed on its bytes: each distinct
matrix's are computed once, however many stages ask.  A grid-search oracle
(oracles module) backstops the whole pipeline on desk-size instances.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .model import FogNodeSpec, NetworkSpec, ServiceTypeSpec, SlicingAgreement, frozen_array
from .queueing import SATURATION_TOL, capacity, optimal_local_fraction, response_times

# Destinations always keep this much residual capacity (requests/s); far above
# the 1e-9 saturation tolerance, far below any economically relevant load.
RESIDUAL_FLOOR = 1e-6
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class SliceInstance:
    """One service's view of a slot: committed energy and offered workload.

    ``energy[i]`` is the integer energy node i committed to service
    ``service_idx`` of ``network``, and ``arrivals[i]`` its offered rate
    there.  Everything else, the service, the round trips, the unit rates
    and the open edges, is read from the network and its ``arrays``.
    """

    network: NetworkSpec
    service_idx: int
    energy: np.ndarray
    arrivals: np.ndarray

    def __post_init__(self):
        energy = frozen_array(self.energy)
        arrivals = frozen_array(self.arrivals, dtype=float)
        if energy.shape != (self.n_nodes,) or arrivals.shape != (self.n_nodes,):
            raise ValueError("energy and arrivals must align with the network's nodes")
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "arrivals", arrivals)

    @property
    def service(self) -> ServiceTypeSpec:
        return self.network.services[self.service_idx]

    @property
    def rtt(self) -> np.ndarray:
        return self.network.rtt

    @property
    def n_nodes(self) -> int:
        return self.network.n_nodes

    def capacities(self) -> np.ndarray:
        """unit_rate * rate_factor * floor(energy / unit_energy) per node, requests/s."""
        arrays = self.network.arrays
        return capacity(arrays.unit_rates[:, self.service_idx], self.energy, arrays.unit_energy[:, 0])

    def allowed(self) -> np.ndarray:
        """Read-only boolean (n x n): sender i may place workload on destination m.

        Edges whose round trip alone meets or exceeds the deadline are
        closed (``NetworkArrays.closed``): a request forwarded there can
        never return in time, no matter how small its share of the mix.
        """
        return self.network.arrays.allowed[self.service_idx]


@dataclass(frozen=True)
class GameInstance:
    """A whole slot: the network, realized arrivals and per-node energy budgets."""

    network: NetworkSpec
    arrivals: np.ndarray
    budgets: np.ndarray

    def __post_init__(self):
        arrivals = frozen_array(self.arrivals, dtype=float)
        budgets = frozen_array(self.budgets)
        n, k = self.network.n_nodes, self.network.n_services
        if arrivals.shape != (n, k) or budgets.shape != (n,):
            raise ValueError("arrivals/budgets do not match the network")
        # written so that NaN fails each test
        if not ((arrivals >= 0) & (arrivals < np.inf)).all():
            raise ValueError("arrivals must be finite and >= 0")
        if not ((budgets >= 0) & (budgets % 1 == 0)).all():
            raise ValueError("budgets must be whole numbers >= 0")
        object.__setattr__(self, "arrivals", arrivals)
        object.__setattr__(self, "budgets", budgets)

    def slice_for(self, service_idx: int, energy: np.ndarray) -> SliceInstance:
        return SliceInstance(
            self.network, service_idx, np.asarray(energy, dtype=int), self.arrivals[:, service_idx]
        )

    def restrict(self, members) -> GameInstance:
        """The game ``members`` play alone, nodes indexed in ``members`` order.

        Neighbor links to nodes outside the set are dropped.
        """
        members = list(members)  # a tuple would index one axis per entry
        net = self.network
        local = {g: li for li, g in enumerate(members)}
        sub = NetworkSpec(
            services=net.services,
            nodes=tuple(net.nodes[g] for g in members),
            neighbors=tuple(
                frozenset(local[m] for m in net.neighbors[g] if m in local) for g in members
            ),
            rtt=net.rtt[np.ix_(members, members)],
        )
        return GameInstance(network=sub, arrivals=self.arrivals[members], budgets=self.budgets[members])


INSTANCE_FORMAT = "fogslice-instance 2"


def dump_instance(game: GameInstance, path) -> None:
    """Write one slot instance as a JSON document.

    Services and nodes are objects keyed by their field names.  Floats are
    written with repr, so a load/dump cycle reproduces the file byte for
    byte; that makes dumped instances usable as golden fixtures and for
    oracle replay.
    """
    net = game.network
    doc = {
        "format": INSTANCE_FORMAT,
        "services": [asdict(svc) for svc in net.services],
        "nodes": [asdict(nd) for nd in net.nodes],
        "neighbors": [sorted(int(j) for j in nbrs) for nbrs in net.neighbors],
        "rtt": net.rtt.tolist(),
        "budgets": [int(b) for b in game.budgets],
        "arrivals": game.arrivals.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_instance(path) -> GameInstance:
    """Read an instance written by dump_instance.

    The file is checked by the types it builds.  Any fault is raised as one
    ValueError starting with the path; a JSON syntax error names its line.
    """
    try:
        doc = json.loads(Path(path).read_text())
        if doc["format"] != INSTANCE_FORMAT:
            raise ValueError(f"format is {doc['format']!r}, expected {INSTANCE_FORMAT!r}")
        net = NetworkSpec(
            services=tuple(ServiceTypeSpec(**svc) for svc in doc["services"]),
            nodes=tuple(FogNodeSpec(**nd) for nd in doc["nodes"]),
            neighbors=tuple(frozenset(nbrs) for nbrs in doc["neighbors"]),
            rtt=doc["rtt"],
        )
        return GameInstance(network=net, arrivals=doc["arrivals"], budgets=doc["budgets"])
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Offload solver: water-filling on the marginal delay price, per sender.


# Ascent passes per round and rounds of ascent plus swaps; a stage stops
# early once welfare gains fall below ASCENT_TOL (relative).
ASCENT_PASSES = 60
OUTER_ROUNDS = 12
ASCENT_TOL = 1e-10
# SLSQP joint refinement and the priority polish run only on slices this small.
JOINT_MAX_SENDERS = 8
POLISH_MAX_NODES = 8


@dataclass(frozen=True, slots=True)
class OffloadSolution:
    alpha: np.ndarray
    welfare: float
    passes: int
    converged: bool


def _pairwise_sum(xs) -> float:
    """The floats xs summed as ``np.add.reduce`` sums them in a float64 array.

    numpy adds a contiguous 1-D array pairwise: a run of up to 128 entries
    in eight interleaved accumulators, a longer run as two halves split at
    a multiple of 8, and the total onto the reduction's identity 0.0.  Each
    addition here is one numpy makes, in its order, so the sums agree to the
    last bit; only which of two NaNs a NaN sum carries is the compiler's.
    Runs under 8 entries go left to right from 0.0 (numpy starts them from
    -0.0 and then adds 0.0: the same sum).
    """
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])
    r0, r1, r2, r3, r4, r5, r6, r7 = xs[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        x0, x1, x2, x3, x4, x5, x6, x7 = xs[i : i + 8]
        r0 += x0
        r1 += x1
        r2 += x2
        r3 += x3
        r4 += x4
        r5 += x5
        r6 += x6
        r7 += x7
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for x in xs[end:]:
        total += x
    return 0.0 + total


def _waterfill(tau, cap, box, lam, theta):
    """Maximize sum(a) over 0 <= a <= box, sum(a) <= 1 and total delay <= theta.

    The delay of destination m is g_m(a) = a*tau_m + a/(cap_m - lam*a),
    strictly convex and increasing, so the optimum equalizes the marginal
    price phi_m(a) = tau_m + cap_m/(cap_m - lam*a)^2 across destinations in
    use.  The common price is the largest float whose allocation passes
    (share at most 1 and delay at most theta), and the result is the
    allocation there.

    The kernel computes on Python floats, one destination at a time.  Each
    step rounds as numpy's elementwise operation would, numpy's maximum and
    clip are copied with their NaN rules, and the shares and delays are
    summed by ``_pairwise_sum`` in numpy's order; so the result is the one
    the same steps on float64 arrays give, bit for bit.

    One search finds that price.  With tau >= 0 at the destinations in use
    (and cap > 0, lam > 0) every float operation in the allocation and the
    verdict is monotone in each of its arguments, and so is the kernel's
    fixed summation order; so the verdict, as computed, is monotone in the
    price: a price that passes answers every lower one, and a price that
    fails every higher one.  The search keeps a bracket of a passing and a
    failing price.  Safeguarded Newton probes (see ``_price_probe``) narrow
    it while a budget of 64 lasts; a probe outside the bracket, and every
    step after the budget, takes the bracket's geometric mid instead.  The
    search ends when no float lies between the two, at the largest passing
    float: the price a geometric bisection of the whole range ends on.

    Raises:
        ValueError: If a destination in use has lam * box >= cap, so its box
            leaves no residual capacity, or a negative or NaN round trip,
            which breaks the monotonicity the search rests on.
    """
    full = [0.0] * len(cap)
    tau, cap, box, lam, theta = tau.tolist(), cap.tolist(), box.tolist(), float(lam), float(theta)
    on = [m for m, (cm, bm) in enumerate(zip(cap, box)) if bm > 1e-15 and cm > RESIDUAL_FLOOR]
    if not on or not lam > 0:  # NaN too: it opens no destination
        return np.array(full)
    t = [tau[m] for m in on]
    c = [cap[m] for m in on]
    b = [box[m] for m in on]
    if any(lam * bm >= cm for bm, cm in zip(b, c)):
        raise ValueError("box leaves a destination in use no residual capacity")
    if not all(tm >= 0 for tm in t):
        raise ValueError("a destination in use has a negative or NaN round trip")
    phi0 = [tm + 1.0 / cm for tm, cm in zip(t, c)]
    share_max, delay_max = 1.0 + 1e-15, theta + 1e-15
    dests = list(zip(t, c, b, phi0))

    def measure(mu):
        """The allocation at price mu, its share and delay, and the verdict."""
        a, terms = [], []
        for tm, cm, bm, pm in dests:
            if mu <= pm:
                a.append(0.0)
                terms.append(0.0 * tm)  # 0 * tm + 0 / cm
                continue
            inner = mu - tm
            am = (cm - math.sqrt(cm / (1e-300 if inner <= 1e-300 else inner))) / lam
            am = 0.0 if am < 0.0 else bm if am >= bm else am
            resid = cm - lam * am
            a.append(am)
            terms.append(am * tm + am / (1e-300 if resid <= 1e-300 else resid))
        share, delay = _pairwise_sum(a), _pairwise_sum(terms)
        return a, share, delay, share <= share_max and delay <= delay_max

    def spread(a):
        for m, x in zip(on, a):
            full[m] = x
        return np.array(full)

    # cap > RESIDUAL_FLOOR keeps cap - lam * box above 1e-22, so its square is not 0
    tops = [tm + cm / ((cm - lam * bm) * (cm - lam * bm)) for tm, cm, bm in zip(t, c, b)]
    # an infinite cap makes its top NaN, and numpy's max returns it
    hi = (math.nan if any(x != x for x in tops) else max(tops)) * 2.0 + 1.0
    a, share, delay, ok = measure(hi)
    if ok:
        return spread(a)
    # good passes and bad fails; the allocation at the lowest opening price is all zeros
    good, bad, kept = min(phi0), hi, [0.0] * len(c)
    mu, a, share, delay, ok = good, kept, 0.0, 0.0, True
    k = [math.sqrt(cm) / lam for cm in c]
    for probe in itertools.count():
        nxt = math.nan
        if probe < 64:
            opened = [(tm, km) for tm, km, pm, am, bm in zip(t, k, phi0, a, b) if mu >= pm and am < bm]
            if opened:
                nxt = _price_probe(mu, *zip(*opened), share_max - share, delay_max - delay)
                # once the fit stalls at the switch, step one ulp across it
                nxt = max(nxt, mu + math.ulp(mu)) if ok else min(nxt, mu - math.ulp(mu))
            else:
                # every destination is shut or full: nothing moves before the next opening price
                above = [pm for pm in phi0 if pm > mu]
                nxt = min(above) if ok and above else math.nan
        if not good < nxt < bad:
            nxt = math.sqrt(good * bad)
            if not good < nxt < bad:
                break  # no float left between a pass and a fail
        mu = nxt
        a, share, delay, ok = measure(mu)
        if ok:
            good, kept = mu, a
        else:
            bad = mu
    return spread([0.0 if x < 1e-12 else x for x in kept])


def _price_probe(mu, t, k, share_gap, delay_gap):
    """Next water-fill price to probe, from the allocation at price mu.

    t and k = sqrt(cap)/lam list the destinations open and below their box
    at mu; share_gap and delay_gap are the limits minus the share S and the
    delay G there.  Until a destination opens or fills, S(x) = const -
    sum k (x - t)^-1/2, so S' = 0.5 sum k (x - t)^-1.5, and G' = x S'.  The
    fit S ~ K - A (x - T)^-1/2 matches S' and S'' at mu, and is exact when
    the open destinations share one round trip; its integral
    A ((x - T)^1/2 - T (x - T)^-1/2) fits G.  Returns the lowest price at
    which either fit meets its limit (NaN if the delay fit cannot), written
    as steps from mu so that they survive when the gaps are tiny.
    """
    # an open destination has mu >= t; where they are equal, 1/0 is inf as in numpy
    zi = [1.0 / x if (x := mu - tm) else math.inf for tm in t]
    p = [km * z * math.sqrt(z) for km, z in zip(k, zi)]
    d1 = 0.5 * _pairwise_sum(p)
    d2 = 0.75 * _pairwise_sum([pm * z for pm, z in zip(p, zi)])
    if not (0.0 < d1 < math.inf and 0.0 < d2 < math.inf):
        return math.nan
    z = 1.5 * d1 / d2  # mu - T
    # S: solve (x - T)^-1/2 = z^-1/2 (1 - e) for x - mu
    e = share_gap / (2.0 * d1 * z)
    step_share = 2.0 * z * e * (1.0 - 0.5 * e) / (1.0 - e) ** 2 if e < 1.0 else math.inf
    # G: w = (x - T)^1/2 moves from sqrt(z) by dw, a root of sqrt(z) dw^2 + (mu - f sqrt(z)) dw - f z = 0
    w = math.sqrt(z)
    f = delay_gap / (2.0 * d1 * z * w)
    lin = mu - f * w
    disc = lin * lin + 4.0 * f * z * w
    den = math.sqrt(max(disc, 0.0)) + lin
    if disc < 0.0 or den <= 0.0:
        return math.nan
    dw = 2.0 * f * z / den
    return mu + min(step_share, dw * (2.0 * w + dw))


def _violations(work: _SliceWork, alpha, loads, pis):
    """Largest constraint excess of one offload matrix, or of each in a stack.

    ``alpha`` is (n, n) or a stack (m, n, n), with its ``loads`` and
    responses ``pis`` ((n,) or (m, n) each).  > 0 means infeasible, inf on
    a NaN entry.  Only destinations actually carrying load are held to the
    residual floor; an idle zero-capacity node violates nothing.  Sums run
    along one matrix's rows and the other reductions are maxima, so each
    matrix of a stack gets the value it gets alone, to the last bit.
    """
    rows = alpha.sum(axis=-1)
    top = rows.max(axis=-1, initial=0.0)
    over = np.where(loads > 1e-12, loads - (work.caps - RESIDUAL_FLOOR / 2), -np.inf)
    late = np.where(work.is_sender & (rows > 0), (pis - work.theta) / max(work.theta, 1e-9), np.nan)
    # fmax skips a NaN response, and the unchecked senders, the way a running max() does
    worst = np.fmax(over.max(axis=-1), np.fmax.reduce(late, axis=-1))
    return np.where(np.isnan(top), np.inf, np.maximum(worst, top - 1.0))


class _SliceState(NamedTuple):
    """One offload matrix's loads, responses and ``_violations`` verdict.

    ``key`` is the matrix's bytes; both arrays are read-only.
    """

    key: bytes
    loads: np.ndarray
    pis: np.ndarray
    violation: float


class _SliceWork:
    """Mutable solver scratch for one slice."""

    def __init__(self, instance: SliceInstance):
        self.instance = instance
        self.n = instance.n_nodes
        self.lam = instance.arrivals
        self.caps = instance.capacities()
        self.tau = instance.rtt
        self.allowed = instance.allowed()
        self.theta = instance.service.deadline
        self.is_sender = self.lam > 0
        self.senders = np.flatnonzero(self.is_sender).tolist()
        # a usable pair: a sender and an allowed destination with capacity;
        # a sender without one (not a mover) can never place any load
        self.usable = self.allowed & (self.caps > RESIDUAL_FLOOR) & self.is_sender[:, None]
        self.movers = np.flatnonzero(self.usable.any(axis=1)).tolist()
        # bisection levels checked per stacked call: a small slice's check
        # costs mostly its call, a large one's its n x n arithmetic
        self.depth = 4 if self.n <= 8 else 1
        self._state: _SliceState | None = None

    def state(self, alpha) -> _SliceState:
        """The slice state of ``alpha``'s current values.

        One state is kept, keyed on the matrix's bytes: every stage changes
        alpha in place, so only its values name it.  A lookup with the same
        bytes returns the kept state; any other replaces it, with its loads,
        responses and verdict computed together.  A -0.0 read where +0.0 was
        kept is a miss, which costs only the recomputation.
        """
        key = alpha.tobytes()
        if self._state is None or self._state.key != key:
            loads = alpha.T @ self.lam
            pis = response_times(alpha, self.lam, self.caps, self.tau)
            loads.setflags(write=False)
            pis.setflags(write=False)
            self._state = _SliceState(key, loads, pis, float(_violations(self, alpha, loads, pis)))
        return self._state

    @functools.cached_property
    def receivers(self) -> list[list[int]]:
        """Per destination m, the senders allowed at m, stably sorted by tau[i, m].

        An allowed entry's round trip is below the deadline, so never NaN.
        """
        return [
            sorted((i for i in self.senders if self.allowed[i, m]), key=lambda i: self.tau[i, m])
            for m in range(self.n)
        ]

    def welfare(self, alpha):
        # served requests only; the reward rate is applied after the solve
        # so scaling it cannot perturb the search path
        return float(np.sum(self.lam * alpha.sum(axis=1)))

    def max_violation(self, alpha):
        """Largest constraint excess: > 0 means infeasible, inf on a NaN entry."""
        return self.state(alpha).violation

    def feasible(self, alpha) -> bool:
        return self.max_violation(alpha) <= FEAS_TOL

    def last_feasible(self, start, delta, hi: float, steps: int) -> float:
        """Last feasible step of start + s*delta a ``steps``-step bisection of [0, hi] finds.

        The one back-off search of every stage.  ``_last_feasible`` asks for
        the verdicts of ``depth`` levels of mids at once; they are checked
        as one stack, each matrix start + s*delta with ``feasible``'s
        arithmetic, so the step is the one-mid-at-a-time bisection's to the
        last bit.
        """

        def verdicts(mids):
            stack = start + np.array(mids)[:, None, None] * delta
            loads = np.swapaxes(stack, -1, -2) @ self.lam
            pis = response_times(stack, self.lam, self.caps, self.tau)
            return _violations(self, stack, loads, pis) <= FEAS_TOL

        return _last_feasible(verdicts, hi, steps, self.depth)


def _last_feasible(verdicts, hi: float, steps: int, depth: int) -> float:
    """The lo a ``steps``-step bisection of [0, hi] ends on.

    Each step tests mid = (lo + hi) / 2 and moves lo up on a pass, hi down
    on a fail.  Once mid equals lo, or an hi the loop itself saw fail, every
    later step repeats a verdict, so the loop stops there with the same lo
    for any deterministic verdict.  The given hi is never assumed to fail.

    ``verdicts(mids)`` answers ``depth`` levels at once: the 2^depth - 1
    mids those levels can visit, in heap order (the children of mid k,
    after a fail and after a pass, are 2k + 1 and 2k + 2), each computed as
    the loop computes it.  The loop then walks down their verdicts; a call
    whose first mid already stops the loop is never made.
    """
    lo, failed_hi = 0.0, False
    while steps > 0:
        levels = min(depth, steps)
        steps -= levels
        mids, spans = [], [(lo, hi)]
        for _ in range(levels):
            level = [(a + b) / 2 for a, b in spans]
            spans = [half for (a, b), m in zip(spans, level) for half in ((a, m), (m, b))]
            mids += level
        ok, k = None, 0
        for _ in range(levels):
            mid = mids[k]
            if mid == lo or (mid == hi and failed_hi):
                return lo
            if ok is None:
                ok = verdicts(mids)
            if ok[k]:
                lo, k = mid, 2 * k + 2
            else:
                hi, failed_hi, k = mid, True, 2 * k + 1
    return lo


def _row_boxes(work: _SliceWork, alpha: np.ndarray, i: int):
    """Free capacity and per-destination allocation bound for sender i.

    Written elementwise with ``np.where`` in the order of Python's min() and
    max() (the first argument unless the second beats it), so NaN and
    signed zeros come out as a per-destination loop would leave them.
    """
    lam_i, a_i, state = work.lam[i], alpha[i], work.state(alpha)
    loads = state.loads
    others = loads - a_i * lam_i
    free = work.caps - others
    room = (free - RESIDUAL_FLOOR) / lam_i
    keep = room <= 0
    # other senders already on m tolerate only so much extra delay there
    on = (alpha > 0) & work.is_sender[:, None]
    on[i] = False
    if on.any():
        slack = np.maximum(work.theta - state.pis, 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            extra = np.fmin.reduce(np.where(on, slack[:, None] / alpha, np.inf), axis=0)
            cur_resid = work.caps - loads
            limit = (work.caps - 1.0 / (1.0 / cur_resid + extra) - others) / lam_i
        capped = np.isfinite(extra)
        keep |= capped & (cur_resid <= 0)
        room = np.where(capped & (limit < room), limit, room)
    box = np.where(a_i > room, a_i, room)
    box = np.where(keep, a_i, np.where(box < 1.0, box, 1.0))
    return free, np.where(work.allowed[i], box, 0.0)


def _update_row(work: _SliceWork, alpha: np.ndarray, i: int):
    free, box = _row_boxes(work, alpha, i)
    candidate = _waterfill(work.tau[i], free, box, work.lam[i], work.theta)
    old = alpha[i].copy()
    alpha[i] = candidate
    if work.feasible(alpha):
        return
    # multi-destination interactions can overshoot other senders' deadlines;
    # the feasible set is convex, so back off along the segment to the old row
    start, delta = alpha.copy(), np.zeros_like(alpha)
    start[i], delta[i] = old, candidate - old
    alpha[i] = old + work.last_feasible(start, delta, 1.0, 60) * delta[i]
    alpha[i][alpha[i] < 1e-12] = 0.0
    if not work.feasible(alpha):
        alpha[i] = old


def _polish_priority(work: _SliceWork, alpha: np.ndarray):
    """Shift welfare-neutral mass toward the diagonal, then lower indices.

    Transfers keep every row total, so the slice's welfare, unchanged and
    go as far as the full slice stays feasible.  This is not a tie-break
    only: the allocation picked feeds later slots, and without the polish
    urban80 episode 2's welfare moves by -3.2e-3.

    A target without capacity is skipped: any share moved onto it meets a
    residual of at most ``SATURATION_TOL``, so no transfer there can pass.
    """
    for i in work.senders:
        order = [i] + sorted(m for m in range(work.n) if work.allowed[i, m] and m != i)
        for ti, target in enumerate(order):
            if work.caps[target] <= SATURATION_TOL:
                continue
            for source in reversed(order[ti + 1 :]):
                avail = alpha[i, source]
                if avail <= 1e-12:
                    continue
                delta = np.zeros_like(alpha)
                delta[i, source], delta[i, target] = -1.0, 1.0
                if work.feasible(alpha + avail * delta):
                    d = avail  # full transfer accepted
                else:
                    d = work.last_feasible(alpha, delta, avail, 50)
                if d > 1e-12:
                    alpha += d * delta


def _ascent(work: _SliceWork, alpha: np.ndarray) -> int:
    """Row updates until a full pass stops improving; returns passes used.

    Only movers are updated.  Every other sender's row stays zero, and its
    update would leave the bytes of alpha as they are: no load reaches a
    destination without capacity, so each of its allowed destinations has
    free capacity at most ``RESIDUAL_FLOOR``, its box is 0 there, the
    water-fill returns the zero row, and a back-off along that zero delta
    restores the old row.
    """
    prev = work.welfare(alpha)
    for passes in range(1, ASCENT_PASSES + 1):
        for i in work.movers:
            _update_row(work, alpha, i)
        current = work.welfare(alpha)
        if current - prev <= ASCENT_TOL * max(1.0, abs(current)):
            return passes
        prev = current
    return ASCENT_PASSES


def _swap_pass(work: _SliceWork, alpha: np.ndarray) -> bool:
    """Move load at each destination to the sender with cheaper access.

    A swap keeps every destination's load (hence every queueing delay) and
    the total served workload unchanged, but frees deadline budget on the
    expensive sender, which the next ascent pass can spend.  Swapping only
    strictly-cheaper directions makes total transport cost a decreasing
    potential, so passes terminate.
    """
    moved = False
    state = work.state(alpha)  # renewed only when a swap changes alpha
    for m in range(work.n):
        loads = state.loads
        resid = work.caps[m] - loads[m]
        if resid <= RESIDUAL_FLOOR / 2 and loads[m] <= 0:
            continue
        delta_m = 1.0 / resid if resid > 0 else np.inf
        donors = sorted(
            (j for j in work.senders if alpha[j, m] > 1e-12),
            key=lambda j: -work.tau[j, m],
        )
        for j in donors:
            # the strictly cheaper senders are a prefix of m's order, without j
            cheaper = work.tau[j, m] - 1e-12
            for i in work.receivers[m]:
                if not work.tau[i, m] < cheaper:
                    break
                load_avail = alpha[j, m] * work.lam[j]
                row_i = alpha[i].sum()
                row_room = max(0.0, 1.0 - row_i) * work.lam[i]
                slack_i = max(0.0, work.theta - (state.pis[i] if row_i > 0 else 0.0))
                price_i = (work.tau[i, m] + delta_m) / work.lam[i]
                budget_room = slack_i / price_i if price_i > 0 else np.inf
                d = min(load_avail, row_room, budget_room) * (1 - 1e-12)
                if d <= 1e-9:
                    continue
                alpha[j, m] -= d / work.lam[j]
                alpha[i, m] += d / work.lam[i]
                if alpha[j, m] < 1e-12:
                    alpha[j, m] = 0.0
                moved = True
                state = work.state(alpha)
    return moved


def _joint_constraints(work: _SliceWork):
    """The joint NLP's variables x = alpha[rows, cols] and its constraints.

    x covers the usable pairs (``_SliceWork.usable``).  ``ineq(x)`` stacks
    every inequality in one vector: each destination's capacity (in ``set``
    order), then each sender's row total and deadline.  ``ineq_jac(x)`` is its exact Jacobian, rows in the same
    order.  The capacity and row-total rows are constant (-lam_j on each
    entry (j, m), -1 on each entry (i, .)).  The deadline row of sender i
    has, on entry p = (j, m), -[j == i](tau_im + 1/r_m) - a_im lam_j / r_m^2
    with r_m = c_m - sum_j a_jm lam_j; where ``ineq`` clamps r_m at 1e-9
    the second term is 0, so the Jacobian is that of the clamped function.
    """
    rows, cols = np.nonzero(work.usable)
    cap_terms = [
        (work.caps[m] - RESIDUAL_FLOOR, work.lam[rows[cols == m]], np.flatnonzero(cols == m))
        for m in set(cols.tolist())
    ]
    senders = np.array(work.senders, dtype=int)
    # own[s, p]: entry p lies in the row of sender s
    k, own = len(cap_terms), rows == senders[:, None]
    jac0 = np.zeros((k + 2 * senders.size, rows.size))  # deadline rows filled per call
    for r, (_, lam_m, idx) in enumerate(cap_terms):
        jac0[r, idx] = -lam_m
    jac0[k::2][own] = -1.0
    tau_s, tau_p, lam_p = work.tau[senders], work.tau[rows, cols], work.lam[rows]

    def unpack(x):
        a = np.zeros((work.n, work.n))
        a[rows, cols] = x
        raw = work.caps - a.T @ work.lam
        return a[senders], np.maximum(raw, 1e-9), raw

    def ineq(x):
        a, resid, _ = unpack(x)
        out = np.empty(jac0.shape[0])
        out[:k] = [cap_m - np.dot(lam_m, x[idx]) for cap_m, lam_m, idx in cap_terms]
        out[k::2] = 1.0 - a.sum(axis=1)
        out[k + 1 :: 2] = work.theta - np.sum(a * (tau_s + 1.0 / resid), axis=1)
        return out

    def ineq_jac(x):
        a, resid, raw = unpack(x)
        slope = np.where(raw > 1e-9, 1.0 / resid**2, 0.0)
        jac = jac0.copy()
        jac[k + 1 :: 2] = -(own * (tau_p + 1.0 / resid[cols]) + a[:, cols] * (lam_p * slope[cols]))
        return jac

    return rows, cols, ineq, ineq_jac


def _joint_refine(work: _SliceWork, alpha: np.ndarray) -> np.ndarray:
    """Polish all rows at once with a smooth NLP; keep the best feasible point.

    The coupled deadline constraints make the problem non-convex, so a few
    deterministic starts are tried, each distinct one once, and the
    incumbent always survives.  SLSQP gets the exact objective gradient
    (the constant -lam of each entry's sender) and the exact Jacobian of
    the stacked constraints from ``_joint_constraints``, so it never
    differences anything.  ``solve_offload`` calls it only on a slice with
    a usable pair, so x is never empty.
    """
    from scipy.optimize import minimize

    rows, cols, ineq, ineq_jac = _joint_constraints(work)
    lam_of = work.lam[rows]
    obj = lambda x: -float(np.dot(lam_of, x))
    obj_jac = lambda x: -lam_of
    upper = np.minimum(1.0, (work.caps[cols] - RESIDUAL_FLOOR) / lam_of)

    def local_start():
        a = np.zeros((work.n, work.n))
        inst = work.instance
        arrays = inst.network.arrays
        for i in work.senders:
            cap = work.caps[i]
            if cap <= RESIDUAL_FLOOR:
                continue
            frac = optimal_local_fraction(
                inst.energy[i], arrays.unit_energy[i, 0], arrays.unit_rates[i, inst.service_idx],
                work.lam[i], work.theta,
            )
            a[i, i] = min(frac, (cap - RESIDUAL_FLOOR) / work.lam[i])
        return a

    best, best_w = alpha, work.welfare(alpha)
    # SLSQP is deterministic, so a repeated start cannot beat the incumbent
    starts = (alpha, local_start(), np.zeros((work.n, work.n)))
    for x0 in {x.tobytes(): x for x in (a[rows, cols] for a in starts)}.values():
        with warnings.catch_warnings():
            # SLSQP steps outside its own box and clips; harmless here
            warnings.simplefilter("ignore", RuntimeWarning)
            res = minimize(
                obj,
                x0,
                jac=obj_jac,
                method="SLSQP",
                bounds=[(0.0, u) for u in upper],
                constraints=[{"type": "ineq", "fun": ineq, "jac": ineq_jac}],
                options={"maxiter": 300, "ftol": 1e-12},
            )
        cand = np.zeros((work.n, work.n))
        cand[rows, cols] = np.clip(res.x, 0.0, None)
        cand[cand < 1e-12] = 0.0
        # tiny constraint overshoot from the NLP: pull back toward feasible
        if not work.feasible(cand):
            cand = cand * work.last_feasible(np.zeros_like(cand), cand, 1.0, 60)
        w = work.welfare(cand)
        if w > best_w + 1e-12 and work.feasible(cand):
            best, best_w = cand, w
    return best.copy()


def _cap_rows(alpha: np.ndarray) -> None:
    """Shrink in place each row of ``alpha`` whose float sum is above 1.0 to a sum of at most 1.0.

    Such a row is divided by its sum, then its largest entry steps down one
    float at a time while the sum is still above 1.0.  No entry grows, so
    loads and responses can only fall and a feasible alpha stays feasible.
    Sums are taken as ``alpha.sum(axis=1)`` takes them; with every row at
    most 1.0, float multiplication and pairwise addition being monotone,
    ``sum(lam * alpha.sum(axis=1))`` is at most ``sum(lam)`` to the last bit.
    """
    rows = alpha.sum(axis=1)
    for i in np.flatnonzero(rows > 1.0):
        alpha[i] /= rows[i]
        while alpha.sum(axis=1)[i] > 1.0:
            j = alpha[i].argmax()
            alpha[i, j] = np.nextafter(alpha[i, j], 0.0)


def solve_offload(instance: SliceInstance) -> OffloadSolution:
    """Best offload fractions for one slice.

    Alternates block-coordinate ascent on sender rows with load swaps
    toward cheaper access paths, then polishes all rows jointly with a
    smooth NLP on small slices and moves mass toward local shares.  The
    objective (total slice payoff) never decreases across stages.  Each
    stage that may overshoot a constraint backs off to the last feasible
    step that ``_SliceWork.last_feasible`` finds on its segment: a row
    update toward its old row, a polish transfer back toward its source,
    the NLP's point toward zero.  The bisection checks the mids of several
    levels as one stack, so a small slice pays one call per few levels.
    Each distinct alpha's loads, responses and verdict are computed once
    (``_SliceWork.state``): a row the water-fill leaves unchanged is checked
    for free, and a swap pass recomputes responses only after a swap.

    Only usable pairs (``_SliceWork.usable``: a sender and an allowed
    destination with capacity above ``RESIDUAL_FLOOR``) can carry load.  A
    dead slice, with no usable pair, runs no stage: it returns the zero
    alpha with 0 passes, converged.  A dead sender, with no usable pair of
    its own, is skipped by the ascent, whose update could not move its row.

    No returned row sums above 1.0 in floats (``_cap_rows``): the stages
    may leave a row above it, by up to ``FEAS_TOL`` after the NLP or by
    ulps after a swap or the polish, and such a row is shrunk back.  So
    the welfare is at most ``reward * sum(arrivals)``, full service, to the
    last bit.
    """
    work = _SliceWork(instance)
    alpha = np.zeros((work.n, work.n))
    if not work.movers:
        # no usable pair: no stage can place any load
        return OffloadSolution(
            alpha=alpha, welfare=instance.service.reward * work.welfare(alpha), passes=0, converged=True
        )
    passes = 0
    converged = False
    prev = -np.inf
    for _ in range(OUTER_ROUNDS):
        passes += _ascent(work, alpha)
        current = work.welfare(alpha)
        if current - prev <= ASCENT_TOL * max(1.0, abs(current)):
            converged = True
            break
        prev = current
        if not _swap_pass(work, alpha):
            converged = True
            break
    # the NLP cannot improve a lone queue (the row update is exact there)
    # or a slice already serving every request
    full = not work.senders or work.welfare(alpha) >= work.lam[work.senders].sum() - 1e-9
    if work.n > 1 and not full and len(work.senders) <= JOINT_MAX_SENDERS:
        alpha = _joint_refine(work, alpha)
    if work.n <= POLISH_MAX_NODES:
        _polish_priority(work, alpha)
    alpha[alpha < 1e-12] = 0.0
    _cap_rows(alpha)
    return OffloadSolution(
        alpha=alpha,
        welfare=instance.service.reward * work.welfare(alpha),
        passes=passes,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Energy split of one node across services.


def _energy_cap(node: FogNodeSpec, budget) -> int:
    """Most energy one service of ``node`` can take from ``budget``: the unit cap."""
    return min(int(budget), node.max_units * node.unit_energy)


def _split_value_table(node: FogNodeSpec, services, arrivals, budget: int):
    """values[k][e]: closed-form payoff of giving service k exactly e energy, alone."""
    budget = int(budget)
    tables = []
    for k, svc in enumerate(services):
        lam = float(arrivals[k])
        values = np.zeros(budget + 1)
        if lam > 0:
            w = svc.unit_rate * node.rate_factor
            for e in range(budget + 1):
                frac = optimal_local_fraction(e, node.unit_energy, w, lam, svc.deadline)
                values[e] = svc.reward * lam * frac
        tables.append(values)
    return tables


def _best_split(tables, budget: int, cap: int, step: int):
    """Best whole-unit split of at most ``budget`` energy over per-service value tables.

    ``tables[k][e]`` is the payoff of giving service k energy e; each service
    gets a multiple of ``step`` up to ``cap``.  The best split has the most
    value, then the smallest total (energy that buys nothing stays unspent),
    then the smallest sum of squares (the balanced split).  Values compare
    exactly; splits equal on all three keep the one found first.

    Returns:
        (split, value): integer energy per service and its summed value.
    """
    units = budget // step
    # dp[u] = best (value, -sum of squares, split) committing exactly u units
    dp: list[tuple[float, int, tuple[int, ...]] | None] = [None] * (units + 1)
    dp[0] = (0.0, 0, ())
    for table in tables:
        nxt: list[tuple[float, int, tuple[int, ...]] | None] = [None] * (units + 1)
        for u, entry in enumerate(dp):
            if entry is None:
                continue
            value, neg_sq, split = entry
            for du in range(min(cap // step, units - u) + 1):
                e = du * step
                cand = (value + table[e], neg_sq - e * e, split + (e,))
                cur = nxt[u + du]
                if cur is None or cand[:2] > cur[:2]:
                    nxt[u + du] = cand
        dp = nxt
    best = max((u for u, entry in enumerate(dp) if entry is not None), key=lambda u: (dp[u][0], -u))
    value, _, split = dp[best]
    return np.array(split, dtype=int), float(value)


def solve_energy_split(
    node: FogNodeSpec,
    services: tuple[ServiceTypeSpec, ...],
    arrivals,
    budget: int,
):
    """Best whole-unit split of an energy budget across services for one node alone.

    Maximizes the summed closed-form payoff of serving the node's own
    arrivals; each service gets whole units up to the node's unit cap.
    Ties prefer the smaller total, so energy that serves nothing is left
    unspent, then the balanced split (smallest sum of squares).

    Returns:
        (split, value): integer energy per service and the summed payoff.
    """
    budget = int(budget)
    if budget < 0:
        raise ValueError("budget must be >= 0")
    tables = _split_value_table(node, services, arrivals, budget)
    return _best_split(tables, budget, _energy_cap(node, budget), node.unit_energy)


# ---------------------------------------------------------------------------
# Social welfare over all slices of a slot.


@dataclass(frozen=True)
class SolverOptions:
    exhaustive_nodes: int = 3
    exhaustive_vectors: int = 4000


@dataclass(frozen=True, slots=True)
class WelfareSolution:
    agreement: SlicingAgreement
    welfare: float
    status: str  # exhaustive | heuristic
    certified: bool
    rounds: int


def _assemble(game: GameInstance, energy: np.ndarray, alphas: list[np.ndarray]) -> SlicingAgreement:
    n, k_n = game.network.n_nodes, game.network.n_services
    rewards = np.zeros((n, k_n))
    offload = np.zeros((k_n, n, n))
    for k in range(k_n):
        offload[k] = alphas[k]
        rewards[:, k] = (
            game.network.services[k].reward * game.arrivals[:, k] * alphas[k].sum(axis=1)
        )
    return SlicingAgreement(energy=energy.astype(int), offload=offload, rewards=rewards)


def _exhaustive_vector_count(game: GameInstance) -> int:
    return math.prod(_energy_cap(nd, budget) + 1 for nd, budget in zip(game.network.nodes, game.budgets))


def _slice_bound(instance: SliceInstance) -> float:
    """Upper bound on ``solve_offload(instance).welfare``, from one water-fill.

    The senders' deadline rows, weighted by arrival rate and summed, give
    sum_m L_m (tau_m + 1/(c_m - L_m)) <= theta * Lambda: L_m is the load on
    m, tau_m the cheapest allowed round trip into m, Lambda the total
    arrival rate.  Maximizing sum_m L_m under it, L_m <= min(inbound_m,
    c_m - RESIDUAL_FLOOR/2) and sum_m L_m <= Lambda is a water-fill for one
    pooled sender, inflated past FEAS_TOL and the bisection's float bracket.
    It is clamped to full service, reward * Lambda, summed as the solver
    sums its welfare: no solved slice exceeds that, to the last bit.
    """
    lam = instance.arrivals
    total = float(lam.sum())
    if total <= 0:
        return 0.0
    reach = instance.allowed() & (lam > 0)[:, None]
    inbound = lam @ reach
    tau = np.where(reach, instance.rtt, np.inf).min(axis=0)
    caps = instance.capacities()
    box = np.minimum(inbound, caps - RESIDUAL_FLOOR / 2) / total
    theta = instance.service.deadline * (1 + 2 * FEAS_TOL)
    served = total * float(_waterfill(tau, caps, box, total, theta).sum())
    reward = instance.service.reward
    return min(reward * (served * (1 + 1e-9) + 1e-9), reward * total)


def _solve_exhaustive(game: GameInstance) -> WelfareSolution:
    """Exact welfare over every per-service energy vector, solving only some.

    Services decouple once the split is fixed, so the joint split is a
    search over one vector per service under the budgets.  Each candidate
    vector gets an optimistic total: its ``_slice_bound`` plus the best
    bounded total of the later services on the budget left.  That bound is
    at most full service, ``reward * sum(arrivals)``, which no solved slice
    exceeds to the last bit (``solve_offload``).  Candidates are visited by
    optimistic total, highest first, equal ones in ``itertools.product``
    order; each (service, vector) is solved at most once.  The visit stops
    at the first candidate whose optimistic total is below the best exact
    total so far, and passes over one that could at most tie the best from
    a later position.  So every vector that can serve everything shares one
    optimistic value, and the first of them that does ends the visit of the
    others, instead of each near-tie being solved.  No skipped candidate
    can win, and among the visited ones that reach the maximum the first in
    product order wins with the same float sum as a full enumeration, so
    the agreement and welfare are those of solving every vector.
    """
    net = game.network
    n, k_n = net.n_nodes, net.n_services
    ranges = [range(_energy_cap(nd, budget) + 1) for nd, budget in zip(net.nodes, game.budgets)]
    vectors = list(itertools.product(*ranges))

    # every cache below lives in this call only
    @functools.cache
    def solve(k: int, vec: tuple[int, ...]) -> OffloadSolution:
        return solve_offload(game.slice_for(k, np.array(vec)))

    @functools.cache
    def bound(k: int, vec: tuple[int, ...]) -> float:
        return _slice_bound(game.slice_for(k, np.array(vec)))

    def fitting(remaining: tuple[int, ...]):
        # (vector, budget left) for every vector within ``remaining``, in product order
        return [
            (vec, tuple(r - e for r, e in zip(remaining, vec)))
            for vec in vectors
            if all(e <= r for e, r in zip(vec, remaining))
        ]

    @functools.cache
    def bound_from(k: int, remaining: tuple[int, ...]) -> float:
        if k == k_n:
            return 0.0
        return max(bound(k, vec) + bound_from(k + 1, rest) for vec, rest in fitting(remaining))

    @functools.cache
    def best_from(k: int, remaining: tuple[int, ...]) -> tuple[float, tuple]:
        if k == k_n:
            return 0.0, ()
        cands = [(np.inf, pos, vec, rest) for pos, (vec, rest) in enumerate(fitting(remaining))]
        if len(cands) > 1:  # a lone candidate is solved without a bound
            cands = [
                (bound(k, vec) + bound_from(k + 1, rest), pos, vec, rest)
                for _, pos, vec, rest in cands
            ]
            cands.sort(key=lambda c: c[0], reverse=True)
        best, best_pos = (-np.inf, ()), len(cands)
        for optimistic, pos, vec, rest in cands:
            if optimistic < best[0]:
                break
            if optimistic == best[0] and pos > best_pos:
                continue  # it can at most tie, and a tie goes to the lower position
            sub_w, sub_vecs = best_from(k + 1, rest)
            total = solve(k, vec).welfare + sub_w
            if total > best[0] or (total == best[0] and pos < best_pos):
                best, best_pos = (total, (vec,) + sub_vecs), pos
        return best

    welfare, vecs = best_from(0, tuple(int(b) for b in game.budgets))
    energy = np.array(vecs, dtype=int).T if vecs else np.zeros((n, k_n), dtype=int)
    alphas = [solve(k, vecs[k]).alpha for k in range(k_n)]
    energy, alphas = _trim_energy(game, energy, alphas)
    return WelfareSolution(
        agreement=_assemble(game, energy, alphas),
        welfare=welfare,
        status="exhaustive",
        certified=True,
        rounds=0,
    )


def _isolated_candidate(game: GameInstance):
    """Every node alone: its best energy split plus the closed-form local fraction."""
    net = game.network
    n, k_n = net.n_nodes, net.n_services
    rates = net.arrays.unit_rates.tolist()
    energy = np.zeros((n, k_n), dtype=int)
    alphas = [np.zeros((n, n)) for _ in range(k_n)]
    for i, nd in enumerate(net.nodes):
        split, _ = solve_energy_split(nd, net.services, game.arrivals[i], int(game.budgets[i]))
        energy[i] = split
        for k, svc in enumerate(net.services):
            lam = game.arrivals[i, k]
            if lam <= 0 or split[k] <= 0:
                continue
            cap = capacity(rates[i][k], split[k], nd.unit_energy)
            # largest admissible share under the per-request deadline mix
            frac = min(1.0, svc.deadline * cap / (1.0 + svc.deadline * lam))
            alphas[k][i, i] = frac
    welfare = _total_welfare(game, alphas)
    return energy, alphas, welfare


def _total_welfare(game: GameInstance, alphas) -> float:
    total = 0.0
    for k, svc in enumerate(game.network.services):
        total += svc.reward * float(np.sum(game.arrivals[:, k] * alphas[k].sum(axis=1)))
    return total


def _demand_candidate(game: GameInstance):
    """Provision capacity for own plus potential inbound workload, then route."""
    net = game.network
    n, k_n = net.n_nodes, net.n_services
    inbound = np.zeros((n, k_n))
    for j in range(n):
        for m in net.neighbors[j]:
            inbound[m] += game.arrivals[j]
    rates = net.arrays.unit_rates.tolist()
    energy = np.zeros((n, k_n), dtype=int)
    for i, nd in enumerate(net.nodes):
        demands = game.arrivals[i] + inbound[i]
        budget = int(game.budgets[i])
        tables = []
        for k, svc in enumerate(net.services):
            # requests e energy serves inside the deadline, up to the demand
            served = [
                min(max(0.0, capacity(rates[i][k], e, nd.unit_energy) - 1.0 / svc.deadline), demands[k])
                for e in range(budget + 1)
            ]
            tables.append([svc.reward * s for s in served])
        # the demand-driven value curves are flat for the first units (the
        # deadline floor eats them), so a marginal greedy stalls; a small
        # exact split over whole units does not
        energy[i], _ = _best_split(tables, budget, _energy_cap(nd, budget), nd.unit_energy)
    alphas = []
    for k in range(k_n):
        sol = solve_offload(game.slice_for(k, energy[:, k]))
        alphas.append(sol.alpha)
    energy, alphas = _trim_energy(game, energy, alphas)
    return energy, alphas, _total_welfare(game, alphas)


def _trim_energy(game: GameInstance, energy: np.ndarray, alphas):
    """Drop committed energy that supports no allocation.

    Whole units are removed while every response time stays within its
    deadline; sub-unit remainders activate nothing and are always dropped.
    The offload matrices, and hence all payoffs, are unchanged.
    """
    net, arrays = game.network, game.network.arrays
    unit = arrays.unit_energy[:, 0]
    energy = energy - energy % arrays.unit_energy
    for k, svc in enumerate(net.services):
        alpha = alphas[k]
        lam = game.arrivals[:, k]
        loads = alpha.T @ lam
        for i in range(net.n_nodes):
            while energy[i, k] >= unit[i]:
                trial = energy[:, k].copy()
                trial[i] -= unit[i]
                caps = capacity(arrays.unit_rates[:, k], trial, unit)
                # an idle queue, like max_violation's, is held to nothing
                if loads[i] > 1e-12 and loads[i] > caps[i] - RESIDUAL_FLOOR:
                    break
                if _late(alpha, lam, caps, net.rtt, svc.deadline):
                    break
                energy[i, k] = trial[i]
    return energy, alphas


def _late(alpha, lam, caps, rtt, theta) -> bool:
    """Whether some sender of the slice misses the deadline theta."""
    late = response_times(alpha, lam, caps, rtt) > theta + FEAS_TOL
    return bool(np.any((alpha.sum(axis=1) > 0) & late))


def solve_social_welfare(game: GameInstance, options: SolverOptions | None = None) -> WelfareSolution:
    """Energy splits and offload matrices maximizing total slot payoff.

    Small instances are solved exactly over every energy vector per service
    (services decouple given the split).  A pooled-deadline bound per
    (service, vector) orders the search, and only vectors the bound cannot
    rule out are solved; the winner is the one a full enumeration keeps,
    the first best in ``itertools.product`` order.  Larger ones build two
    candidates, isolated play and demand-driven provisioning with routed
    offload, and keep the better; the isolated candidate guarantees
    cooperation never pays less than going it alone.
    """
    opt = options or SolverOptions()
    n = game.network.n_nodes
    if n <= opt.exhaustive_nodes and _exhaustive_vector_count(game) <= opt.exhaustive_vectors:
        return _solve_exhaustive(game)

    iso_energy, iso_alphas, iso_welfare = _isolated_candidate(game)
    coop_energy, coop_alphas, coop_welfare = _demand_candidate(game)
    if coop_welfare >= iso_welfare - 1e-12:
        energy, alphas, welfare = coop_energy, coop_alphas, coop_welfare
    else:
        energy, alphas, welfare = iso_energy, iso_alphas, iso_welfare
    return WelfareSolution(
        agreement=_assemble(game, energy, alphas),
        welfare=welfare,
        status="heuristic",
        certified=False,
        rounds=0,
    )


# ---------------------------------------------------------------------------
# Conservative core check by bounded enumeration.


# Coalitions of up to CORE_MAX_SIZE nodes with no fully served member are
# searched.  CORE_MAX_CHECKS caps the grid leaves checked over all of them; a
# leaf is one row bundle per member, checked against every deadline.  A
# deviation must beat the standing reward by more than STRICT_EPS, the offload
# solver's own convergence tolerance, or it is numerical noise.
CORE_MAX_SIZE = 4
CORE_MAX_CHECKS = 2_000_000
STRICT_EPS = 1e-6


@dataclass(frozen=True)
class CoreOptions:
    grid: float = 0.05

    def __post_init__(self):
        if not (math.isfinite(self.grid) and 0.0 < self.grid <= 1.0):
            raise ValueError(f"grid must be a finite fraction in (0, 1], got {self.grid!r}")


@dataclass(frozen=True)
class Deviation:
    members: tuple[int, ...]
    energy: np.ndarray  # |N| x K
    alphas: tuple[np.ndarray, ...]  # per service, |N| x |N| (local indices)
    rewards: np.ndarray  # |N|


@dataclass(frozen=True, slots=True)
class CoreResult:
    deviation: Deviation | None
    certified: bool
    checked_subsets: int
    truncated_sizes: tuple[int, ...]
    grid: float


def lone_sender_share(tau: np.ndarray, cap: np.ndarray, lam: float, theta: float) -> float:
    """Largest share of one sender's workload its destinations can serve in time.

    The sender is alone: destination m offers capacity cap[m] at round trip
    tau[m] and carries no other load.
    """
    box = np.minimum(np.maximum((cap - RESIDUAL_FLOOR) / lam, 0.0), 1.0)
    return float(_waterfill(tau, cap, box, lam, theta).sum())


def _grid_rows(lam, caps, open_row, grid):
    """Candidate allocation rows on the grid for one sender and service.

    Rows are grid units per open destination, ``np.flatnonzero(open_row)``,
    in lexicographic order.  Per-destination loads beyond capacity can never
    become feasible, so those entries are cut before enumeration.
    """
    dests = np.flatnonzero(open_row)
    if lam <= 0:
        return [(0,) * len(dests)]
    steps = int(round(1.0 / grid))
    rows = [()]
    for cap in caps[dests]:
        top = max(min(steps, int((cap - FEAS_TOL) / (lam * grid)) if cap > 0 else 0), 0)
        rows = [row + (units,) for row in rows for units in range(min(top, steps - sum(row)) + 1)]
    return rows


def check_core(
    game: GameInstance, agreement: SlicingAgreement, options: CoreOptions | None = None
) -> CoreResult:
    """Search for a coalition whose members all strictly beat their payoff.

    Every coalition of up to ``CORE_MAX_SIZE`` nodes that contains no fully
    served member (one already paid for all of its workload) is searched,
    smallest first.  Deviating coalitions are conservative: they keep only
    their own members' energy and workload and re-split on integer units,
    with offload fractions restricted to the grid.  The first grid leaf, one
    row bundle per member, that meets every deadline is the deviation.  Each
    leaf checked spends one unit of ``CORE_MAX_CHECKS``; once the budget is
    spent the search stops and reports the coalition size it stopped at
    rather than certifying.
    """
    opt = options or CoreOptions()
    net = game.network
    n = net.n_nodes
    current = agreement.total_rewards()
    full_service = [sum(svc.reward * a for svc, a in zip(net.services, row)) for row in game.arrivals]
    checked = 0
    budget_left = CORE_MAX_CHECKS
    for size in range(1, min(CORE_MAX_SIZE, n) + 1):
        for members in itertools.combinations(range(n), size):
            checked += 1
            if any(current[i] >= full_service[i] - STRICT_EPS for i in members):
                continue
            found, spent = _search_subset(game, members, current, opt.grid, budget_left)
            budget_left -= spent
            if found is not None:
                return CoreResult(found, False, checked, (), opt.grid)
            if budget_left <= 0:
                return CoreResult(None, False, checked, (size,), opt.grid)
    return CoreResult(None, True, checked, (), opt.grid)


def _search_subset(game, members, current, grid: float, budget: int):
    """Grid search one subset for an all-strict-gain agreement.

    Returns the first deviation found, or None, and the leaves checked,
    stopping once ``budget`` leaves are checked.
    """
    sub = game.restrict(members)
    k_n = sub.network.n_services
    split_sets = []
    for nd, budget_m in zip(sub.network.nodes, sub.budgets):
        cap, step = _energy_cap(nd, budget_m), nd.unit_energy
        # more energy never hurts: a split is dominated exactly when one more
        # step fits on some service, so keep only those where none does
        split_sets.append([
            split
            for split in itertools.product(range(0, cap + 1, step), repeat=k_n)
            if sum(split) <= budget_m
            and (sum(split) + step > budget_m or all(e + step > cap for e in split))
        ])

    spent = 0
    for split_combo in itertools.product(*split_sets):
        energy = np.array(split_combo, dtype=int)
        slices = [sub.slice_for(k, energy[:, k]) for k in range(k_n)]
        caps = [sl.capacities() for sl in slices]
        opens = [sl.allowed() for sl in slices]
        # candidate row bundles per member: joint rows over services, kept
        # only if the member's total payoff is strictly above current, best first
        bundles = []
        for li, m in enumerate(members):
            rows = [
                _grid_rows(float(sl.arrivals[li]), caps[k], opens[k][li], grid)
                for k, sl in enumerate(slices)
            ]
            gains = []
            for combo in itertools.product(*rows):
                reward = sum(
                    sl.service.reward * sl.arrivals[li] * (sum(row) * grid)
                    for sl, row in zip(slices, combo)
                )
                if reward > current[m] + STRICT_EPS:
                    gains.append((-reward, combo))
            if not gains:
                break
            # combos come in increasing order, so equal rewards keep that order
            bundles.append([combo for _, combo in sorted(gains)])
        if len(bundles) < len(members):
            continue  # some member cannot gain on these splits
        for chosen in itertools.product(*bundles):
            spent += 1
            leaf = _grid_leaf(slices, caps, opens, chosen, grid)
            if leaf is not None:
                return Deviation(members, energy, *leaf), spent
            if spent >= budget:
                return None, spent
    return None, spent


def _grid_leaf(slices, caps, opens, chosen, grid):
    """Offload matrices and member rewards of one row bundle per member.

    None unless every sender of every service meets its deadline.
    """
    alphas = []
    for k, sl in enumerate(slices):
        alpha = np.zeros((sl.n_nodes, sl.n_nodes))
        for li, bundle in enumerate(chosen):
            alpha[li, opens[k][li]] = np.multiply(bundle[k], grid)
        if _late(alpha, sl.arrivals, caps[k], sl.rtt, sl.service.deadline):
            return None
        alphas.append(alpha)
    rewards = sum(sl.service.reward * sl.arrivals * alpha.sum(axis=1) for sl, alpha in zip(slices, alphas))
    return tuple(alphas), rewards
