"""Seeded end-to-end and per-layer benchmark of the gridfilt CLI; see run.py."""
