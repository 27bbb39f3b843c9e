"""Stable JSON shapes for results.

Every document carries a versioned `schema` tag; field names are part of
the interface and must not be renamed without bumping the version.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from .exclusivity import LadderPoint, PartitionReport, RefutationCertificate
from .minimax import MinimaxResult
from .risk import WorstCaseResult

MINIMAX_SCHEMA = "minmax-lab/minimax-result/v4"
CERTIFICATE_SCHEMA = "minmax-lab/refutation-certificate/v2"
PARTITION_SCHEMA = "minmax-lab/partition-report/v1"


def _opt(x: Optional[float]) -> Optional[float]:
    return None if x is None else float(x)


def worst_case_to_dict(w: WorstCaseResult) -> Dict[str, Any]:
    return {
        "sup_value": float(w.sup_value),
        "argmax_theta": float(w.argmax_theta),
        "sup_method": w.sup_method,
        "grid_points": int(w.grid_points),
        "constant_in_theta": bool(w.constant_in_theta),
    }


def minimax_result_to_dict(mm: MinimaxResult) -> Dict[str, Any]:
    return {
        "schema": MINIMAX_SCHEMA,
        "best_params": [float(v) for v in mm.best_params],
        "minimax_value": float(mm.minimax_value),
        "worst_case": worst_case_to_dict(mm.inner_results),
        "outer_iterations": int(mm.outer_iterations),
        "converged": bool(mm.converged),
        "restart_agreement": float(mm.restart_agreement),
    }


def _ladder_point_to_dict(pt: LadderPoint) -> Dict[str, Any]:
    return {
        "alpha": float(pt.alpha),
        "delta_Rp": float(pt.delta_Rp),
        "delta_Rq": float(pt.delta_Rq),
    }


def certificate_to_dict(cert: RefutationCertificate) -> Dict[str, Any]:
    return {
        "schema": CERTIFICATE_SCHEMA,
        "p": float(cert.p),
        "q": float(cert.q),
        "delta_star_params": [float(v) for v in cert.delta_star_params],
        "gradient_q": [float(v) for v in cert.gradient_q],
        "gradient_p_norm": float(cert.gradient_p_norm),
        "direction": [float(v) for v in cert.direction],
        "alpha": _opt(cert.alpha),
        "delta_Rq": _opt(cert.delta_Rq),
        "delta_Rp": _opt(cert.delta_Rp),
        "taylor_slope_p": _opt(cert.taylor_slope_p),
        "verdict": cert.verdict.value,
        "ladder": [_ladder_point_to_dict(pt) for pt in cert.ladder],
    }


def partition_report_to_dict(report: PartitionReport) -> Dict[str, Any]:
    return {
        "schema": PARTITION_SCHEMA,
        "classes": [
            {
                "exponent": float(c.exponent),
                "params": [float(v) for v in c.params],
                "value": float(c.value),
            }
            for c in report.classes
        ],
        "pairwise_disjoint": bool(report.pairwise_disjoint),
        "witnesses": [certificate_to_dict(w) for w in report.witnesses],
        "param_distances": [[float(d) for d in row] for row in report.param_distances],
    }


def to_json(document: Dict[str, Any]) -> str:
    """Render with a fixed layout so equal documents are byte-identical."""
    return json.dumps(document, indent=2, allow_nan=False) + "\n"
