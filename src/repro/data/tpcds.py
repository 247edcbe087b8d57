"""Deterministic TPC-DS-shaped dataset generator.

Covers the three TPC-DS tables in the paper's evaluation (Table II):

- ``customer_demographics`` — in real TPC-DS this table *is* the cross
  product of its dimension columns, so every column is a mixed-radix digit
  of the surrogate key.  This is the paper's flagship high-correlation case
  (it compresses to 0.6% of its size); the generator reproduces the cross
  product exactly.
- ``catalog_sales`` / ``catalog_returns`` — fact tables with higher-
  cardinality categorical columns than TPC-H (the reason the paper finds
  TPC-DS "generally harder to compress", Sec. V-B1), generated with mild
  key structure plus noise.

Row counts are scaled to 1/100th of the official counts, like
:mod:`repro.data.tpch`.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ._patterns import mixed_radix_column, noisy_choice, structured_column
from .schema import ColumnSpec, ColumnType, Schema
from .table import ColumnTable

__all__ = ["ROWS_PER_SF", "TPCDS_TABLES", "CD_DIMENSIONS", "generate", "schema_for"]

#: Rows per unit scale factor (about 1/100th of official TPC-DS SF=1).
ROWS_PER_SF: Dict[str, int] = {
    "customer_demographics": 19_208,
    "catalog_sales": 14_400,
    "catalog_returns": 1_440,
}

TPCDS_TABLES: Tuple[str, ...] = tuple(sorted(ROWS_PER_SF))

#: Dimension vocabularies of customer_demographics (name, values).  The
#: cross product of the sizes (2*5*7*20*4*7) spans the scaled table.
CD_DIMENSIONS: Tuple[Tuple[str, np.ndarray], ...] = (
    ("cd_gender", np.array(["F", "M"])),
    ("cd_marital_status", np.array(["D", "M", "S", "U", "W"])),
    ("cd_education_status", np.array(
        ["2 yr Degree", "4 yr Degree", "Advanced Degree", "College",
         "Primary", "Secondary", "Unknown"])),
    ("cd_purchase_estimate", np.arange(500, 10_001, 500, dtype=np.int64)),
    ("cd_credit_rating", np.array(["Good", "High Risk", "Low Risk", "Unknown"])),
    ("cd_dep_count", np.arange(0, 7, dtype=np.int64)),
)

_CALL_CENTERS = np.array([f"cc_{i:02d}" for i in range(6)])
_SHIP_MODES = np.array(
    [f"{speed} {carrier}" for speed in ("EXPRESS", "LIBRARY", "NEXT DAY",
                                        "OVERNIGHT", "REGULAR")
     for carrier in ("AIRBORNE", "DHL", "FEDEX", "UPS")]
)
_REASONS = np.array([f"reason_{i:02d}" for i in range(35)])


#: Per-table seed salt.  These are the values ``hash(table) & 0xFFFF``
#: took under ``PYTHONHASHSEED=0``, frozen so every process generates
#: the same rows (``hash`` of a str is salted per process).
_SEED_SALT = {"customer_demographics": 2447, "catalog_sales": 19462,
              "catalog_returns": 29196}


def _rows(table: str, scale: float) -> int:
    return max(int(round(ROWS_PER_SF[table] * scale)), 10)


def generate(table: str, scale: float = 1.0, seed: int = 0) -> ColumnTable:
    """Generate one TPC-DS table at the given (scaled-down) scale factor."""
    if table not in ROWS_PER_SF:
        raise KeyError(f"unknown TPC-DS table {table!r}; have {TPCDS_TABLES}")
    rng = np.random.default_rng((seed, _SEED_SALT[table]))
    n = _rows(table, scale)
    builder = {
        "customer_demographics": _customer_demographics,
        "catalog_sales": _catalog_sales,
        "catalog_returns": _catalog_returns,
    }[table]
    return builder(n, rng)


def _customer_demographics(n: int, rng: np.random.Generator) -> ColumnTable:
    keys = np.arange(1, n + 1, dtype=np.int64)
    radices = np.array([v.size for _, v in CD_DIMENSIONS], dtype=np.int64)
    columns: Dict[str, np.ndarray] = {"cd_demo_sk": keys}
    for pos, (name, vocab) in enumerate(CD_DIMENSIONS):
        digits = mixed_radix_column(keys - 1, radices, pos)
        columns[name] = vocab[digits]
    return ColumnTable(columns, key=("cd_demo_sk",), name="customer_demographics")


def _catalog_sales(n: int, rng: np.random.Generator) -> ColumnTable:
    keys = np.arange(1, n + 1, dtype=np.int64)
    ship_mode = structured_column(keys, _SHIP_MODES.size, period=6, noise=0.2,
                                  rng=rng)
    call_center = structured_column(keys, _CALL_CENTERS.size, period=48,
                                    noise=0.15, rng=rng)
    return ColumnTable(
        {
            "cs_order_sk": keys,
            "cs_ship_mode": _SHIP_MODES[ship_mode],
            "cs_call_center": _CALL_CENTERS[call_center],
            "cs_warehouse_sk": noisy_choice(n, 5, rng) + 1,
            "cs_quantity": noisy_choice(n, 100, rng) + 1,
            "cs_promo_sk": structured_column(keys, 10, period=96, noise=0.25,
                                             rng=rng) + 1,
        },
        key=("cs_order_sk",),
        name="catalog_sales",
    )


def _catalog_returns(n: int, rng: np.random.Generator) -> ColumnTable:
    keys = np.arange(1, n + 1, dtype=np.int64)
    reason = structured_column(keys, _REASONS.size, period=4, noise=0.25, rng=rng)
    return ColumnTable(
        {
            "cr_order_sk": keys,
            "cr_reason": _REASONS[reason],
            "cr_ship_mode": _SHIP_MODES[noisy_choice(n, _SHIP_MODES.size, rng)],
            "cr_return_quantity": noisy_choice(n, 100, rng) + 1,
        },
        key=("cr_order_sk",),
        name="catalog_returns",
    )


def schema_for(table: str) -> Schema:
    """Schema metadata for a TPC-DS table."""
    integer, categorical = ColumnType.INTEGER, ColumnType.CATEGORICAL
    schemas = {
        "customer_demographics": Schema(
            "customer_demographics",
            (ColumnSpec("cd_demo_sk", integer),)
            + tuple(
                ColumnSpec(name, categorical if vocab.dtype.kind in "US" else integer,
                           vocab.size)
                for name, vocab in CD_DIMENSIONS
            ),
            key=("cd_demo_sk",),
        ),
        "catalog_sales": Schema(
            "catalog_sales",
            (
                ColumnSpec("cs_order_sk", integer),
                ColumnSpec("cs_ship_mode", categorical, 20),
                ColumnSpec("cs_call_center", categorical, 6),
                ColumnSpec("cs_warehouse_sk", integer, 5),
                ColumnSpec("cs_quantity", integer, 100),
                ColumnSpec("cs_promo_sk", integer, 10),
            ),
            key=("cs_order_sk",),
        ),
        "catalog_returns": Schema(
            "catalog_returns",
            (
                ColumnSpec("cr_order_sk", integer),
                ColumnSpec("cr_reason", categorical, 35),
                ColumnSpec("cr_ship_mode", categorical, 20),
                ColumnSpec("cr_return_quantity", integer, 100),
            ),
            key=("cr_order_sk",),
        ),
    }
    if table not in schemas:
        raise KeyError(f"unknown TPC-DS table {table!r}")
    return schemas[table]
