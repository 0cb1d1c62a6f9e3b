"""Output correctness and mapping quality.

The gate holds every served response to three checks:

* the mapping is a member of its problem's map space (``MapSpace.is_member``);
* its EDP equals an in-process ``CostModel.evaluate`` of that mapping, bit
  for bit, and its normalized EDP equals that EDP over the algorithmic
  minimum, bit for bit;
* for a seeded sample, the response equals a solo in-process
  ``engine.map`` of the same request, bit for bit (the documented
  invariant of cohort serving: batching never changes an answer).

Quality is the geometric-mean normalized EDP of a fixed leading request
set (``norm_edp_geo``), plus the paper's iso-iteration comparison of
Mind Mappings against SA and GA (Fig. 5's shape).
"""

from __future__ import annotations

import json
import math
import platform
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel import CostModel, algorithmic_minimum, default_accelerator
from repro.engine import MappingEngine, MappingRequest, MappingResponse
from repro.mapspace import MapSpace

from stack import engine_config

QUALITY_REF = Path(__file__).resolve().parent / "quality_ref.json"


class Gate:
    """Checks responses against the analytical oracle, in process."""

    def __init__(self) -> None:
        self.accelerator = default_accelerator()
        self.cost_model = CostModel(self.accelerator)
        self._bounds: Dict[str, float] = {}
        self._spaces: Dict[str, MapSpace] = {}
        self.checked = 0
        self.failures: List[str] = []

    def _space(self, request: MappingRequest) -> MapSpace:
        name = request.problem.name
        if name not in self._spaces:
            self._spaces[name] = MapSpace(request.problem, self.accelerator)
            self._bounds[name] = algorithmic_minimum(
                request.problem, self.accelerator).edp
        return self._spaces[name]

    def check(self, request: MappingRequest, response: MappingResponse) -> bool:
        """Verify one response; a failure is recorded with its reason."""
        self.checked += 1
        space = self._space(request)
        reasons = []
        if response.problem != request.problem.name:
            reasons.append(f"problem {response.problem!r}")
        if not space.is_member(response.mapping):
            reasons.append("mapping is not a map-space member")
        else:
            edp = self.cost_model.evaluate(response.mapping, request.problem).edp
            if response.stats.edp != edp:
                reasons.append(f"edp {response.stats.edp!r} != evaluate {edp!r}")
            norm = edp / self._bounds[request.problem.name]
            if response.norm_edp != norm:
                reasons.append(f"norm_edp {response.norm_edp!r} != {norm!r}")
        if reasons:
            self.failures.append(f"{request.tag}: " + "; ".join(reasons))
            return False
        return True

    def check_solo(self, pairs: Sequence[Tuple[MappingRequest, MappingResponse]]) -> int:
        """Re-serve each request through a fresh in-process engine; count
        responses that differ from the served ones in any bit."""
        engine = MappingEngine(self.accelerator, engine_config())
        mismatches = 0
        for request, served in pairs:
            solo = engine.map(request)
            if (solo.mapping != served.mapping
                    or solo.stats.edp != served.stats.edp
                    or solo.norm_edp != served.norm_edp):
                mismatches += 1
                self.failures.append(
                    f"{request.tag}: differs from solo engine.map "
                    f"(edp {served.stats.edp!r} vs {solo.stats.edp!r})")
        return mismatches


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def solo_sample(count: int, available: int, seed: int) -> List[int]:
    """Seeded choice of which responses are re-served solo."""
    rng = np.random.default_rng([seed, 3])
    return sorted(int(i) for i in rng.choice(available, size=min(count, available), replace=False))


def paper_panel(
    responses: Sequence[MappingResponse],
) -> Dict[str, object]:
    """Per-problem normalized EDP per searcher, and the iso-iteration
    geomean ratios SA/MM and GA/MM over the problems both served."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for response in responses:
        table.setdefault(response.problem, {}).setdefault(
            response.searcher, []).append(response.norm_edp)
    per_problem = {
        problem: {searcher: geomean(values) for searcher, values in sorted(row.items())}
        for problem, row in table.items()
    }
    ratios = {}
    for label, searcher in (("SA/MM", "annealing"), ("GA/MM", "genetic"),
                            ("random/MM", "random")):
        shared = [row for row in per_problem.values()
                  if searcher in row and "gradient" in row]
        if shared:
            ratios[label] = geomean(row[searcher] / row["gradient"] for row in shared)
    return {"per_problem_norm_edp": per_problem, "iso_iteration_ratios": ratios}


def quality_host() -> Dict[str, str]:
    """What the exact quality figures depend on besides the code: float
    results of the surrogate's training can differ across numpy builds
    and CPU architectures."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def quality_reference(workload: str) -> Tuple[Optional[float], str]:
    """The recorded ``norm_edp_geo`` of ``workload`` and how it applies.

    Returns ``(value, note)``; ``value`` is ``None`` when nothing was
    recorded or it was recorded on a different numpy/architecture.
    """
    if not QUALITY_REF.exists():
        return None, "no reference recorded"
    recorded = json.loads(QUALITY_REF.read_text())
    if recorded.get("host") != quality_host():
        return None, f"skipped: recorded on {recorded.get('host')}"
    value = recorded.get("norm_edp_geo", {}).get(workload)
    if value is None:
        return None, "no reference recorded"
    return float(value), "checked"
