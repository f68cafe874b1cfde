"""Access to the bundled example corpus (map and system files).

The corpus holds identity maps, strictly triangular cubic-linear Keller
maps for n = 2..6, the two bifurcation exemplars (x, xy) and
(x, x(x-1)y), and a ready-made curve system for the n = 2 triangular map.
"""

from __future__ import annotations

from importlib import resources

from .expr_io import MapFile, parse_map_file


def _data_dir():
    return resources.files("kellerlab") / "data"


def bundled_names() -> list:
    """Sorted names of all bundled files."""
    return sorted(p.name for p in _data_dir().iterdir() if p.name.endswith((".map", ".sys")))


def bundled_text(name: str) -> str:
    return (_data_dir() / name).read_text(encoding="utf-8")


def load_bundled_map(name: str) -> MapFile:
    return parse_map_file(bundled_text(name))
