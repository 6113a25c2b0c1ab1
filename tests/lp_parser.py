"""Minimal independent parser for the LP text format.

Deliberately shares no code with lecopt.model: it reconstructs the problem
from the exported text alone, so solving the parsed problem with an
external solver is a genuine cross-check of the model builder.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass
class ParsedLp:
    objective: dict[str, float]
    objective_constant: float
    rows: list[tuple[str, dict[str, float], str, float]]  # (name, coeffs, sense, rhs)
    lower: dict[str, float]
    upper: dict[str, float]
    binaries: set[str] = field(default_factory=set)

    def variables(self) -> list[str]:
        seen: dict[str, None] = {}
        for name in self.objective:
            seen.setdefault(name)
        for _, coeffs, _, _ in self.rows:
            for name in coeffs:
                seen.setdefault(name)
        for name in (*self.lower, *self.upper, *self.binaries):
            seen.setdefault(name)
        return list(seen)


_TERM = re.compile(r"([+-])?\s*(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)?\s*([A-Za-z_][A-Za-z0-9_]*)")


def _parse_terms(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for sign, mag, name in _TERM.findall(text):
        coef = float(mag) if mag else 1.0
        if sign == "-":
            coef = -coef
        out[name] = out.get(name, 0.0) + coef
    return out


def parse_lp(text: str) -> ParsedLp:
    objective: dict[str, float] = {}
    constant = 0.0
    rows: list[tuple[str, dict[str, float], str, float]] = []
    lower: dict[str, float] = {}
    upper: dict[str, float] = {}
    binaries: set[str] = set()

    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("\\"):
            m = re.match(r"\\ objective constant:\s*(\S+)", line)
            if m:
                constant = float(m.group(1))
            continue
        lowered = line.lower()
        if lowered in ("minimize", "subject to", "bounds", "binaries", "end"):
            section = lowered
            continue
        if section == "minimize":
            body = line.split(":", 1)[1] if ":" in line else line
            for name, coef in _parse_terms(body).items():
                objective[name] = objective.get(name, 0.0) + coef
        elif section == "subject to":
            name, body = (part.strip() for part in line.split(":", 1))
            m = re.search(r"(<=|>=|=)\s*([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*$", body)
            if m is None:
                raise ValueError(f"cannot parse constraint: {line!r}")
            sense, rhs = m.group(1), float(m.group(2))
            rows.append((name, _parse_terms(body[: m.start()]), sense, rhs))
        elif section == "bounds":
            m = re.match(r"^([+-]?[\d.eE+-]+)\s*<=\s*(\w+)\s*<=\s*([+-]?[\d.eE+-]+)$", line)
            if m:
                lower[m.group(2)] = float(m.group(1))
                upper[m.group(2)] = float(m.group(3))
                continue
            m = re.match(r"^(\w+)\s*(>=|=)\s*([+-]?[\d.eE+-]+)$", line)
            if m is None:
                raise ValueError(f"cannot parse bound: {line!r}")
            value = float(m.group(3))
            lower[m.group(1)] = value
            if m.group(2) == "=":
                upper[m.group(1)] = value
        elif section == "binaries":
            binaries.add(line)
        elif section == "end":
            raise ValueError(f"content after End: {line!r}")
        else:
            raise ValueError(f"line outside any section: {line!r}")
    return ParsedLp(objective, constant, rows, lower, upper, binaries)


def solve_with_scipy(parsed: ParsedLp):
    """Solve a parsed LP/MILP with scipy's HiGHS backend to a zero MIP gap.

    Returns (objective value including the constant, {name: value}).
    """
    import numpy as np
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import lil_matrix

    names = parsed.variables()
    col = {name: j for j, name in enumerate(names)}
    n = len(names)
    c = np.zeros(n)
    for name, coef in parsed.objective.items():
        c[col[name]] = coef

    A = lil_matrix((len(parsed.rows), n))
    lo = np.empty(len(parsed.rows))
    hi = np.empty(len(parsed.rows))
    for i, (_, coeffs, sense, rhs) in enumerate(parsed.rows):
        for name, coef in coeffs.items():
            A[i, col[name]] = coef
        lo[i] = rhs if sense in (">=", "=") else -np.inf
        hi[i] = rhs if sense in ("<=", "=") else np.inf

    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    for name in parsed.binaries:
        ub[col[name]] = 1.0
    for name, v in parsed.lower.items():
        lb[col[name]] = v
    for name, v in parsed.upper.items():
        ub[col[name]] = v

    integrality = np.zeros(n)
    for name in parsed.binaries:
        integrality[col[name]] = 1

    from scipy.optimize import Bounds

    res = milp(
        c,
        constraints=LinearConstraint(A.tocsr(), lo, hi),
        bounds=Bounds(lb, ub),
        integrality=integrality,
        options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise RuntimeError(f"external solver failed: status {res.status} ({res.message})")
    values = {name: float(res.x[col[name]]) for name in names}
    return float(res.fun) + parsed.objective_constant, values


def load_solution_file(path) -> dict[str, float]:
    """Read `name value` pairs produced by an external solver."""
    out: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected 'name value', got {line!r}")
            out[parts[0]] = float(parts[1])
    return out


def solution_vector(problem, values: dict[str, float]) -> tuple[float, ...]:
    """Dense column vector of `problem` from a name->value mapping; absent names default to 0."""
    name_to_col = {name: j for j, name in enumerate(problem.index.names)}
    x = [0.0] * problem.num_cols
    for name, value in values.items():
        if name not in name_to_col:
            raise KeyError(f"unknown column name {name!r}")
        x[name_to_col[name]] = value
    return tuple(x)
