"""Variance-based global sensitivity indices, read off the surrogate coefficients.

For a variable subset U, the index is the fraction of output variance
carried by the terms whose multi-index is active exactly on U:

    S_U = (1 / variance) * sum over {i : i_j > 0 iff j in U} of
          c_i^2 / prod_j (2 i_j + 1)

The total index of U sums S_V over every superset V of U; for singletons it
reduces to the terms with i_u > 0, no subset enumeration needed.  Indices
over all non-empty subsets partition the variance, so with the subset size
uncapped they sum to one; a capped report states the missing mass as the
higher-order remainder.

Nothing is sampled here: every quantity is analytic in the coefficients.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .errors import ConfigurationError, ZeroVarianceError
from .surrogate import PceModel

# Below this, variance is indistinguishable from zero and indices are undefined.
VARIANCE_FLOOR = 1e-300


def _variance_by_pattern(model: PceModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Active-variable patterns present in the model, the variance of each,
    and each output's total variance, which must exceed VARIANCE_FLOOR.

    Terms are grouped by the variables they are active on (degree > 0);
    row k of the (patterns, outputs) table sums c_i^2 * prod 1/(2 i_j + 1)
    over the terms active exactly on patterns[k].
    """
    variance = model.variance()
    for name, value in zip(model.output_names, variance):
        if not value > VARIANCE_FLOOR:
            raise ZeroVarianceError(
                f"output {name!r} has (near-)zero variance {value}; "
                "sensitivity indices are undefined"
            )
    patterns, group = np.unique(model.indices > 0, axis=0, return_inverse=True)
    table = np.zeros((len(patterns), len(model.output_names)))
    np.add.at(table, group.ravel(), model.basis_norms()[:, None] * model.coefficients**2)
    return patterns, table, variance


def _normalize_subset(model: PceModel, subset: Iterable[int]) -> tuple[int, ...]:
    positions = tuple(sorted(set(int(u) for u in subset)))
    if not positions:
        raise ConfigurationError("variable subset must be non-empty")
    if positions[0] < 0 or positions[-1] >= model.dim:
        raise ConfigurationError(
            f"variable positions {positions} out of range for {model.dim} inputs"
        )
    return positions


def _output_column(model: PceModel, output: str | None, values: np.ndarray):
    if output is None:
        return values
    if output not in model.output_names:
        raise ConfigurationError(f"unknown output {output!r}; have {model.output_names}")
    return float(values[model.output_names.index(output)])


def sobol_index(model: PceModel, subset: Iterable[int], output: str | None = None):
    """Sensitivity index of an exact variable subset (0-based positions).

    Returns one float when `output` names a single output, otherwise the
    vector across all outputs.
    """
    positions = _normalize_subset(model, subset)
    patterns, table, variance = _variance_by_pattern(model)
    exact = (patterns == np.isin(np.arange(model.dim), positions)).all(axis=1)
    values = table[exact].sum(axis=0) / variance
    return _output_column(model, output, values)


def total_index(model: PceModel, subset: int | Iterable[int], output: str | None = None):
    """Total index: the sum of indices over every superset of the given subset.

    Computed directly from the terms active on all of the subset's
    variables, without enumerating supersets.
    """
    if isinstance(subset, (int, np.integer)):
        subset = (int(subset),)
    positions = _normalize_subset(model, subset)
    patterns, table, variance = _variance_by_pattern(model)
    values = table[patterns[:, list(positions)].all(axis=1)].sum(axis=0) / variance
    return _output_column(model, output, values)


@dataclass
class SobolReport:
    """Indices for all subsets up to a size cap, plus singleton totals.

    `indices` maps a subset (tuple of 0-based positions) to its per-output
    index vector; `totals` does the same for singletons; `remainder` is the
    per-output mass of all subsets larger than the cap.
    """

    variable_names: list[str]
    output_names: list[str]
    total_variance: np.ndarray
    max_subset_size: int
    indices: dict[tuple[int, ...], np.ndarray]
    totals: dict[int, np.ndarray]
    remainder: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "schema": "pcekit/sobol-report",
            "variables": self.variable_names,
            "outputs": self.output_names,
            "max_subset_size": self.max_subset_size,
            "total_variance": {
                name: float(v) for name, v in zip(self.output_names, self.total_variance)
            },
            "indices": [
                {
                    "variables": [self.variable_names[u] for u in subset],
                    "values": {n: float(v) for n, v in zip(self.output_names, vec)},
                }
                for subset, vec in self.indices.items()
            ],
            "totals": [
                {
                    "variable": self.variable_names[u],
                    "values": {n: float(v) for n, v in zip(self.output_names, vec)},
                }
                for u, vec in self.totals.items()
            ],
            "higher_order_remainder": {
                name: float(v) for name, v in zip(self.output_names, self.remainder)
            },
        }

    def write_json(self, dest: IO[str], *, extra: dict | None = None) -> None:
        doc = self.to_json_dict()
        if extra:
            doc.update(extra)
        dest.write(json.dumps(doc, indent=2) + "\n")

    def to_text(self) -> str:
        """Aligned-column tables: main effects, interactions by size, totals."""
        lines: list[str] = []
        for name, var in zip(self.output_names, self.total_variance):
            lines.append(f"Total variance [{name}]: {var:.10g}")
        lines.append("")

        def table(title: str, rows: list[tuple[str, str, np.ndarray]]) -> None:
            if not rows:
                return
            lines.append(title)
            header = ["Variables", "Index"] + self.output_names
            cells = [header] + [
                [label, symbol] + [f"{v:.7f}" for v in vec] for label, symbol, vec in rows
            ]
            widths = [max(len(row[c]) for row in cells) for c in range(len(header))]
            for row in cells:
                lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
            lines.append("")

        by_size: dict[int, list[tuple[str, str, np.ndarray]]] = {}
        for subset, vec in self.indices.items():
            names = [self.variable_names[u] for u in subset]
            by_size.setdefault(len(subset), []).append(
                (", ".join(names), f"S({','.join(names)})", vec)
            )
        titles = {1: "Main effect indices", 2: "Pairwise interaction indices"}
        for size in sorted(by_size):
            table(titles.get(size, f"Order-{size} interaction indices"), by_size[size])
        table(
            "Total indices",
            [
                (self.variable_names[u], f"T({self.variable_names[u]})", vec)
                for u, vec in self.totals.items()
            ],
        )
        remainder = "  ".join(
            f"{name}={v:.7f}" for name, v in zip(self.output_names, self.remainder)
        )
        lines.append(f"Higher-order remainder: {remainder}")
        return "\n".join(lines) + "\n"


def full_report(model: PceModel, max_subset_size: int) -> SobolReport:
    """Indices for every subset up to the size cap, singleton totals, remainder.

    Subsets are ordered by (size, positions) so reports and goldens are
    stable.
    """
    if not 1 <= max_subset_size <= model.dim:
        raise ConfigurationError(
            f"max subset size must be in [1, {model.dim}], got {max_subset_size}"
        )
    patterns, table, variance = _variance_by_pattern(model)
    shares = table / variance
    by_subset = {tuple(np.flatnonzero(pattern)): row for pattern, row in zip(patterns, shares)}
    absent = np.zeros(len(model.output_names))

    indices = {
        subset: by_subset.get(subset, absent)
        for size in range(1, max_subset_size + 1)
        for subset in itertools.combinations(range(model.dim), size)
    }
    totals = {u: shares[patterns[:, u]].sum(axis=0) for u in range(model.dim)}
    remainder = 1.0 - sum(indices.values())
    return SobolReport(
        variable_names=[var.name for var in model.inputs],
        output_names=list(model.output_names),
        total_variance=variance,
        max_subset_size=max_subset_size,
        indices=indices,
        totals=totals,
        remainder=np.asarray(remainder),
    )
