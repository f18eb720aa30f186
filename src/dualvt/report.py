"""Summary statistics and directory diff reports for transform outputs."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .tensors import tensor_read


def l2(x: np.ndarray) -> float:
    """L2 norm as numpy's pairwise sum of the float64 squares, one temporary;
    `np.linalg.norm` is a BLAS dot product, whose order depends on the machine."""
    return float(np.sqrt(np.sum(np.square(x, dtype=np.float64))))


def cell_energy(f: np.ndarray) -> np.ndarray:
    """(ny, nx) per-cell L2 norm over channels."""
    return np.sqrt(np.sum(f.astype(np.float64) ** 2, axis=0))


def occupancy_stats(f: np.ndarray, gt_bev: np.ndarray) -> dict:
    """Mean cell energy over GT-occupied vs empty cells and their separation."""
    energy = cell_energy(f)
    occ = gt_bev[0] > 0.5
    occupied = float(energy[occ].mean()) if occ.any() else 0.0
    empty = float(energy[~occ].mean()) if (~occ).any() else 0.0
    return {
        "occupied_mean_energy": occupied,
        "empty_mean_energy": empty,
        "separation": occupied - empty,
        "n_occupied": int(occ.sum()),
    }


def summarize_outputs(arrays: dict, gt_bev=None) -> dict:
    summary = {
        name: {
            "shape": list(a.shape),
            "l2": l2(a),
            "max_abs": float(np.abs(a).max()) if a.size else 0.0,
        }
        for name, a in arrays.items()
    }
    if gt_bev is not None and "F" in arrays:
        summary["occupancy"] = occupancy_stats(arrays["F"], gt_bev)
    return summary


def diff_directories(dir_a, dir_b) -> dict:
    """Compare the BTSR files of two directories; a file on one side only, like a
    shape mismatch, is an error entry and makes the overall max_abs_diff inf."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    for d in (dir_a, dir_b):
        if not d.is_dir():
            raise ConfigError(f"{d} is not a directory")
    names_a = {p.name for p in dir_a.glob("*.btsr")}
    names_b = {p.name for p in dir_b.glob("*.btsr")}
    shared = names_a & names_b
    if not shared:
        raise ConfigError(f"{dir_a} and {dir_b} share no .btsr tensor")
    report = {"files": {}, "max_abs_diff": 0.0}
    for name in sorted(names_a | names_b):
        if name not in shared:
            report["files"][name] = {"error": f"only in {dir_a if name in names_a else dir_b}"}
            report["max_abs_diff"] = float("inf")
            continue
        a = tensor_read(dir_a / name).astype(np.float64)
        b = tensor_read(dir_b / name).astype(np.float64)
        if a.shape != b.shape:
            report["files"][name] = {"error": f"shape {a.shape} vs {b.shape}"}
            report["max_abs_diff"] = float("inf")
            continue
        diff = a - b
        max_abs = float(np.abs(diff).max()) if a.size else 0.0
        denom = l2(a)
        rel_l2 = l2(diff) / denom if denom > 0 else 0.0
        report["files"][name] = {
            "max_abs_diff": max_abs,
            "rel_l2": rel_l2,
            "bitwise_equal": bool(np.array_equal(a, b)),
        }
        report["max_abs_diff"] = max(report["max_abs_diff"], max_abs)
    for d, key in ((dir_a, "a"), (dir_b, "b")):
        summary = d / "summary.json"
        if summary.exists():
            report[f"summary_{key}"] = json.loads(summary.read_text())
    return report
