"""Translation of a validated community spec into a scheduling problem.

Decision variables per hour t and participant p, all continuous:

  chi_buy[t,p], chi_sell[t,p]   grid purchase / sale, kWh
  sigma_ch[t], sigma_dis[t]     battery charge / discharge, kWh
  soc[t]                        battery state of charge at the end of hour t, kWh
  alloc[t,p]                    hourly share of net generation, kWh
                                (only when the allocation itself is optimized)

Each kind is one contiguous column block, in the order listed, hour-major
and participant-minor: `VariableIndex.block(kind)` gives its column numbers
shaped (T, P) or (T,), so `x[index.block(CHI_BUY)]` is the (T, P) purchase
schedule. One problem covers one optimization window of T hours; the last
window of a horizon that is not a multiple of the window length is shorter.

The problem is an LP plus complementarity pairs: nobody buys and sells in
the same hour (buy, sell), and the battery never charges and discharges at
once (ch, dis). The solver closes a pair by a shift where the LP allows it
and branches on the rest.
`MilpProblem` holds it as read-only arrays, the rows in compressed sparse row (CSR) form (Saad,
*Iterative Methods for Sparse Linear Systems*, 2003, §3.4) that the solver, verifier and export read.
`export_lp_text` writes the equivalent MILP for external solvers: one
binary per flow of a pair, a big-M cap per flow, and an exclusivity row
per pair. Each big-M is the flow's upper bound, i.e. exactly the contracted
power of the active tariff period, never a generic large number.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from lecopt.domain import CommunitySpec, validate_community

INF = math.inf


class Objective(enum.Enum):
    PRICE = "price"
    ENVIRONMENT = "environment"


class AllocationMode(enum.Enum):
    """Fixed sharing coefficients (data) vs. hourly allocation as decision variables."""

    FIXED = "fixed"
    OPTIMIZED = "optimized"


CHI_BUY = "chi_buy"
CHI_SELL = "chi_sell"
SIGMA_CH = "sigma_ch"
SIGMA_DIS = "sigma_dis"
SOC = "soc"
ALLOC = "alloc"

_PER_PARTICIPANT_KINDS = (CHI_BUY, CHI_SELL)
_BATTERY_KINDS = (SIGMA_CH, SIGMA_DIS, SOC)


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


class VariableIndex:
    """Column layout: one contiguous block per variable kind, in the order of `names`.

    Within a block columns run hour-major, participant-minor, so
    `block(kind)` is an arange shaped (T, P) for the per-participant kinds
    and (T,) for the battery kinds.
    """

    def __init__(self, horizon: int, participant_ids: Sequence[str], optimized_allocation: bool):
        self.horizon = horizon
        self.participant_ids = tuple(participant_ids)
        T, P = horizon, len(self.participant_ids)
        shapes = [(kind, (T, P)) for kind in _PER_PARTICIPANT_KINDS]
        shapes += [(kind, (T,)) for kind in _BATTERY_KINDS]
        if optimized_allocation:
            shapes.append((ALLOC, (T, P)))
        self._blocks: dict[str, tuple[int, tuple[int, ...]]] = {}
        names: list[str] = []
        pids = [_sanitize(pid) for pid in self.participant_ids]
        for kind, shape in shapes:
            self._blocks[kind] = (len(names), shape)
            if len(shape) == 2:
                names += [f"{kind}_{t}_{pid}" for t in range(T) for pid in pids]
            else:
                names += [f"{kind}_{t}" for t in range(T)]
        self.names = tuple(names)
        self.num_cols = len(names)

    def block(self, kind: str) -> np.ndarray:
        """Column numbers of `kind`, shaped (T, P) or (T,); KeyError for an absent kind."""
        start, shape = self._blocks[kind]
        return np.arange(start, start + math.prod(shape)).reshape(shape)


@dataclass(frozen=True)
class LinearRow:
    """One constraint row as Python values: sum(coef * col) `sense` rhs."""

    name: str
    coeffs: tuple[tuple[int, float], ...]
    sense: str  # "<=", "=", ">="
    rhs: float


@dataclass(frozen=True, eq=False)
class MilpProblem:
    """Immutable LP with complementarity pairs, as read-only arrays (`eq=False`: arrays have no `==`).

    Row i is sum(data[k] * x[indices[k]] for k in range(indptr[i], indptr[i + 1]))
    `sense[i]` rhs[i] (CSR form), its columns rising and no coefficient zero.
    Each row (a, b) of `complementary_pairs`, shape (K, 2), is a buy/sell or
    charge/discharge column pair of which at most one may be positive: the
    only discrete part of the problem, which has no binary columns (see
    `export_lp_text` for the binaries an external MILP solver needs).
    """

    scenario_label: str
    index: VariableIndex
    objective: np.ndarray
    objective_constant: float
    row_names: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    complementary_pairs: np.ndarray
    allocation_mode: AllocationMode = AllocationMode.FIXED

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def num_cols(self) -> int:
        return self.index.num_cols

    @property
    def num_rows(self) -> int:
        return len(self.row_names)

    def row_of_entry(self) -> np.ndarray:
        """The row of each stored coefficient, parallel to `indices` and `data`."""
        return np.repeat(np.arange(self.num_rows), np.diff(self.indptr))

    def _row_entries(self):
        """Each row as (name, columns, coefficients, sense, rhs), in Python values."""
        cols, vals, ptr = self.indices.tolist(), self.data.tolist(), self.indptr.tolist()
        rows = zip(self.row_names, ptr, ptr[1:], self.sense.tolist(), self.rhs.tolist())
        return ((name, cols[start:end], vals[start:end], sense, rhs) for name, start, end, sense, rhs in rows)

    @property
    def rows(self) -> tuple[LinearRow, ...]:
        """The rows as `LinearRow`s, derived from the arrays on every call.

        Only the benchmark's build probe reads it (and `binaries`), to count nonzeros; both go once it reads a count.
        """
        return tuple(LinearRow(name, tuple(zip(cols, vals)), sense, rhs) for name, cols, vals, sense, rhs in self._row_entries())

    @property
    def binaries(self) -> frozenset[int]:
        """Binary columns: none, the pairs take their place. Read only by the benchmark's build probe, like `rows`."""
        return frozenset()

    def col_name(self, j: int) -> str:
        return self.index.names[j]


class _Builder:
    def __init__(self, index: VariableIndex):
        self.index = index
        self.pids = [_sanitize(pid) for pid in index.participant_ids]
        self.lb = np.zeros(index.num_cols)
        self.ub = np.full(index.num_cols, INF)
        self.objective = np.zeros(index.num_cols)
        self.objective_constant = 0.0
        self.blocks: list[tuple] = []  # (names, row lengths, indices, data, sense, rhs)

    def add_rows(self, names: list[str], cols, coefs, sense, rhs) -> None:
        """Append a block of rows, one per name, from `cols` shaped (..., W), each row's columns ascending.

        `coefs` broadcasts to `cols`, `sense` and `rhs` to its leading shape. Zero
        coefficients, which pad short rows, are dropped. Raises ValueError naming
        the first row with a non-finite coefficient or rhs.
        """
        cols = np.asarray(cols)
        rhs, sense = (np.broadcast_to(np.asarray(v, dtype), cols.shape[:-1]).ravel() for v, dtype in ((rhs, float), (sense, "<U2")))
        coefs = np.broadcast_to(np.asarray(coefs, dtype=float), cols.shape).reshape(len(names), -1)
        cols = cols.reshape(len(names), -1)
        bad_coef = ~np.isfinite(coefs).all(axis=1)
        for r in np.flatnonzero(bad_coef | ~np.isfinite(rhs))[:1].tolist():
            raise ValueError(f"non-finite {'coefficient' if bad_coef[r] else 'rhs'} in row {names[r]}")
        keep = coefs != 0.0
        self.blocks.append((names, keep.sum(axis=1), cols[keep], coefs[keep], sense, rhs))


def build(
    spec: CommunitySpec,
    objective: Objective,
    allocation: AllocationMode | None = None,
) -> MilpProblem:
    """Build the scheduling LP and its complementarity pairs for one optimization window.

    `allocation` defaults to OPTIMIZED when the sharing scheme leaves the
    hourly coefficients free, FIXED otherwise. Raises ValueError when the
    spec fails validation or when FIXED is requested without coefficients.
    """
    report = validate_community(spec)
    if not report.ok:
        raise ValueError(f"community spec invalid:\n{report}")

    if allocation is None:
        allocation = AllocationMode.OPTIMIZED if spec.sharing.optimized else AllocationMode.FIXED
    if allocation is AllocationMode.FIXED and spec.sharing.optimized:
        raise ValueError("fixed allocation requested but the sharing scheme carries no coefficients")

    T = spec.horizon_hours
    ids = spec.participant_ids()
    index = VariableIndex(T, ids, allocation is AllocationMode.OPTIMIZED)
    b = _Builder(index)

    # `export_lp_text` places the rows of its binaries by position: it needs
    # the T*P balance rows first, the T `socdyn_t` rows next, and the pairs
    # in the same (t, p) and t order.
    _declare_variables(b, spec, allocation)
    _add_energy_balance(b, spec, allocation)
    _add_battery(b, spec)
    if allocation is AllocationMode.OPTIMIZED:
        _add_sharing(b, spec)
    if spec.compensation_cap_enabled:
        _add_compensation_cap(b, spec)
    if objective is Objective.PRICE:
        _set_price_objective(b, spec)
    else:
        _set_environment_objective(b, spec)

    buy, sell, ch, dis = (index.block(k) for k in (CHI_BUY, CHI_SELL, SIGMA_CH, SIGMA_DIS))
    pairs = np.concatenate([np.column_stack([buy.ravel(), sell.ravel()]), np.column_stack([ch, dis])])
    names, counts, indices, data, sense, rhs = (np.concatenate(part) for part in zip(*b.blocks))

    label = f"objective={objective.value} allocation={allocation.value} horizon={T}h participants={len(ids)}"
    return MilpProblem(
        scenario_label=label,
        index=index,
        objective=b.objective,
        objective_constant=b.objective_constant,
        row_names=tuple(names.tolist()),
        indptr=np.concatenate([[0], np.cumsum(counts)]),
        indices=indices,
        data=data,
        sense=sense,
        rhs=rhs,
        lb=b.lb,
        ub=b.ub,
        complementary_pairs=pairs,
        allocation_mode=allocation,
    )


def _declare_variables(b: _Builder, spec: CommunitySpec, allocation: AllocationMode) -> None:
    index = b.index
    bess = spec.bess
    hours = range(spec.horizon_hours)
    b.ub[index.block(CHI_BUY)] = [[p.import_limit(t) for p in spec.participants] for t in hours]
    b.ub[index.block(CHI_SELL)] = [[p.export_limit(t) for p in spec.participants] for t in hours]
    b.ub[index.block(SIGMA_CH)] = bess.p_ch_max
    b.ub[index.block(SIGMA_DIS)] = bess.p_dis_max
    soc = index.block(SOC)
    b.lb[soc] = bess.soc_min
    b.ub[soc] = bess.soc_max
    if allocation is AllocationMode.OPTIMIZED:
        alloc = index.block(ALLOC)
        b.lb[alloc] = -bess.p_ch_max
        b.ub[alloc] = (spec.pv.generation.as_array() + bess.p_dis_max)[:, None]


def _add_energy_balance(b: _Builder, spec: CommunitySpec, allocation: AllocationMode) -> None:
    # Fixed mode: beta*(pv + dis - ch) + buy = load + sell, with beta and pv data.
    # Optimized mode: alloc + buy = load + sell; alloc is tied to net generation
    # by the sharing rows. One row per (t, p), hour-major.
    index = b.index
    hours = range(spec.horizon_hours)
    buy, sell = index.block(CHI_BUY), index.block(CHI_SELL)
    load = np.column_stack([p.load.as_array() for p in spec.participants])
    names = [f"balance_{t}_{pid}" for t in hours for pid in b.pids]
    if allocation is AllocationMode.FIXED:
        beta = np.array([[spec.sharing.coefficient(p.id, t) for p in spec.participants] for t in hours])
        ch, dis = index.block(SIGMA_CH)[:, None], index.block(SIGMA_DIS)[:, None]
        cols = np.stack(np.broadcast_arrays(buy, sell, ch, dis), axis=-1)
        coefs = np.stack(np.broadcast_arrays(1.0, -1.0, -beta, beta), axis=-1)
        b.add_rows(names, cols, coefs, "=", load - beta * spec.pv.generation.as_array()[:, None])
    else:
        b.add_rows(names, np.stack([buy, sell, index.block(ALLOC)], axis=-1), [1.0, -1.0, 1.0], "=", load)


def _add_battery(b: _Builder, spec: CommunitySpec) -> None:
    # socdyn_t: soc_t - soc_{t-1} - eta_ch*ch_t + dis_t/eta_dis = 0, with
    # soc_initial in place of soc_{-1}; then socend: soc_{T-1} = soc_final.
    bess = spec.bess
    T = spec.horizon_hours
    ch, dis, soc = (b.index.block(kind) for kind in (SIGMA_CH, SIGMA_DIS, SOC))
    cols = np.vstack([np.column_stack([ch, dis, np.roll(soc, 1), soc]), np.full(4, soc[-1])])
    coefs = np.tile([-bess.eta_ch, 1.0 / bess.eta_dis, -1.0, 1.0], (T + 1, 1))
    coefs[0, 2] = coefs[T, :3] = 0.0  # socdyn_0 has no soc_{-1}; socend keeps only soc_{T-1}
    rhs = np.zeros(T + 1)
    rhs[0], rhs[T] = bess.soc_initial, bess.soc_final
    b.add_rows([f"socdyn_{t}" for t in range(T)] + ["socend"], cols, coefs, "=", rhs)


def _add_sharing(b: _Builder, spec: CommunitySpec) -> None:
    # Allocations partition the hourly net generation theta = pv + dis - ch.
    # Each share is capped by gross generation above and total charging below,
    # so net-charging hours distribute the charge as consumption. Per hour:
    # share_t, then sharelo_t_p and sharehi_t_p for each participant p, the
    # two-term rows padded with zeros to the width of share_t.
    index = b.index
    T, P = spec.horizon_hours, len(b.pids)
    alloc, ch, dis = index.block(ALLOC), index.block(SIGMA_CH), index.block(SIGMA_DIS)
    pv = spec.pv.generation.as_array()
    cols, coefs = np.zeros((T, 1 + 2 * P, P + 2), dtype=int), np.zeros((T, 1 + 2 * P, P + 2))
    cols[:, 0], coefs[:, 0] = np.column_stack([ch, dis, alloc]), [1.0, -1.0] + [1.0] * P
    cols[:, 1::2, 0], cols[:, 2::2, 0] = ch[:, None], dis[:, None]
    cols[:, 1::2, 1] = cols[:, 2::2, 1] = alloc
    coefs[:, 1::2, :2], coefs[:, 2::2, :2] = [1.0, 1.0], [-1.0, 1.0]
    rhs = np.zeros((T, 1 + 2 * P))
    rhs[:, 0], rhs[:, 2::2] = pv, pv[:, None]
    names = [name for t in range(T) for name in [f"share_{t}"] + [f"share{s}_{t}_{pid}" for pid in b.pids for s in ("lo", "hi")]]
    b.add_rows(names, cols, coefs, ["="] + [">=", "<="] * P, rhs)


def _add_compensation_cap(b: _Builder, spec: CommunitySpec) -> None:
    # Billing-period rule: compensated surplus value cannot exceed the value
    # of imported consumption. Off by default. One row per participant.
    cols = np.hstack([b.index.block(CHI_BUY).T, b.index.block(CHI_SELL).T])
    coefs = np.array([np.concatenate([-p.buy_price.as_array(), p.sell_price.as_array()]) for p in spec.participants])
    b.add_rows([f"compcap_{pid}" for pid in b.pids], cols, coefs, "<=", 0.0)


def _set_price_objective(b: _Builder, spec: CommunitySpec) -> None:
    index = b.index
    b.objective[index.block(CHI_BUY)] = np.column_stack([p.buy_price.as_array() for p in spec.participants])
    b.objective[index.block(CHI_SELL)] = -np.column_stack([p.sell_price.as_array() for p in spec.participants])
    if spec.bess.throughput_cost_per_kwh:
        b.objective[index.block(SIGMA_CH)] = spec.bess.throughput_cost_per_kwh
        b.objective[index.block(SIGMA_DIS)] = spec.bess.throughput_cost_per_kwh
    b.objective_constant = spec.horizon_hours * spec.bess.calendar_cost_per_hour


def _set_environment_objective(b: _Builder, spec: CommunitySpec) -> None:
    # Only consumed energy carries emissions: sold energy has no coefficient.
    index = b.index
    b.objective[index.block(CHI_BUY)] = spec.grid_intensity.as_array()[:, None]
    b.objective[index.block(SIGMA_DIS)] = spec.bess.emission_factor_discharge
    b.objective_constant = spec.pv.emission_factor * float(np.sum(spec.pv.generation.as_array()))


def net_generation(problem: MilpProblem, x: Sequence[float], spec: CommunitySpec) -> np.ndarray:
    """Hourly community net generation theta = pv + discharge - charge."""
    index = problem.index
    xs = np.asarray(x, dtype=float)
    return spec.pv.generation.as_array() + xs[index.block(SIGMA_DIS)] - xs[index.block(SIGMA_CH)]


def effective_coefficients(
    problem: MilpProblem, x: Sequence[float], spec: CommunitySpec, zero_tol: float = 1e-9
) -> dict[str, np.ndarray]:
    """Hourly sharing coefficients realized by a solution.

    In fixed mode these are the data, static or hourly. In optimized mode
    beta = alloc / theta where theta is nonzero; hours with theta == 0 fall
    back to the static coefficients (uniform when absent).
    """
    ids = spec.participant_ids()
    if problem.allocation_mode is AllocationMode.FIXED:
        hours = range(problem.index.horizon)
        return {pid: np.array([spec.sharing.coefficient(pid, t) for t in hours]) for pid in ids}
    theta = net_generation(problem, x, spec)
    alloc = np.asarray(x, dtype=float)[problem.index.block(ALLOC)].T.copy()  # one contiguous row per participant
    nonzero = np.abs(theta) > zero_tol
    out: dict[str, np.ndarray] = {}
    for pid, row in zip(ids, alloc):
        betas = np.full(theta.size, float(spec.sharing.static_coefficients.get(pid, 1.0 / len(ids))))
        np.divide(row, theta, out=betas, where=nonzero)
        out[pid] = betas
    return out


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _term(coef: float, name: str, first: bool) -> str:
    sign = "-" if coef < 0 else ("" if first else "+")
    mag = abs(coef)
    lead = "" if first and sign == "" else f"{sign} "
    return f"{lead}{_fmt(mag)} {name}"


def _terms(terms) -> str:
    """`(name, coef)` terms as LP text; zero coefficients are dropped, as `_Builder.add_rows` drops them from the rows."""
    nonzero = [(name, coef) for name, coef in terms if coef != 0.0]
    return " ".join(_term(coef, name, k == 0) for k, (name, coef) in enumerate(nonzero))


def _row_text(name: str, terms, sense: str, rhs: float) -> str:
    return f" {name}: {_terms(terms)} {sense} {_fmt(rhs)}"


def export_lp_text(problem: MilpProblem) -> str:
    """Render the problem as a MILP in LP text format for external cross-checking.

    LP text has no complementarity constraints, so each member f of a pair
    gets a binary `delta_<f without its kind prefix>` (`delta_buy_3_B1` for
    `chi_buy_3_B1`), the cap row f - ub(f) * delta_f <= 0, and each pair the
    exclusivity row delta_a + delta_b <= 1. These rows sit right after the
    balance row of their (hour, participant), or the `socdyn_t` row of
    their hour, as `build` orders them.

    Deterministic: identical problems export byte-identical text. The
    objective constant is not representable in LP format and is recorded in
    a leading comment instead.
    """
    names, ub = problem.index.names, problem.ub.tolist()
    grid_pairs = problem.index.horizon * len(problem.index.participant_ids)
    pairs = problem.complementary_pairs.tolist()
    grid, battery = pairs[:grid_pairs], pairs[grid_pairs:]

    def delta(j: int) -> str:
        return "delta_" + names[j].split("_", 1)[1]

    def cap(j: int) -> str:
        _, short, suffix = names[j].split("_", 2)
        return _row_text(f"{short}cap_{suffix}", [(names[j], 1.0), (delta(j), -ub[j])], "<=", 0.0)

    def exclusion(prefix: str, a: int, b: int) -> str:
        return _row_text(f"{prefix}_{names[a].split('_', 2)[2]}", [(delta(a), 1.0), (delta(b), 1.0)], "<=", 1.0)

    lines = [f"\\ scenario: {problem.scenario_label}"]
    lines.append(f"\\ objective constant: {_fmt(problem.objective_constant)}")
    lines.append("Minimize")
    lines.append(" obj: " + (_terms(zip(names, problem.objective.tolist())) or "0 " + names[0]))
    lines.append("Subject To")
    rows = [_row_text(name, [(names[c], v) for c, v in zip(cols, vals)], sense, rhs)
            for name, cols, vals, sense, rhs in problem._row_entries()]
    lines += rows[:grid_pairs]
    for a, b in grid:
        lines += [exclusion("excl", a, b), cap(a), cap(b)]
    for t, (a, b) in enumerate(battery):
        lines += [rows[grid_pairs + t], cap(a), cap(b), exclusion("battexcl", a, b)]
    lines += rows[grid_pairs + len(battery):]
    lines.append("Bounds")
    for name, lo, hi in zip(names, problem.lb.tolist(), ub):  # validation makes every bound finite
        lines.append(f" {name} = {_fmt(lo)}" if lo == hi else f" {_fmt(lo)} <= {name} <= {_fmt(hi)}")
    lines.append("Binaries")
    lines += [f" {delta(pair[m])}" for group in (grid, battery) for m in (0, 1) for pair in group]
    lines.append("End")
    return "\n".join(lines) + "\n"
