"""Tests for the TPC-H generator."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.data import tpch
from repro.data.synthetic import key_value_pearson


class TestGenerate:
    @pytest.mark.parametrize("table", tpch.TPCH_TABLES)
    def test_all_tables_generate(self, table):
        data = tpch.generate(table, scale=0.2)
        assert data.n_rows > 0
        assert data.name == table

    def test_unknown_table_rejected(self):
        with pytest.raises(KeyError):
            tpch.generate("region")

    def test_deterministic(self):
        a = tpch.generate("orders", scale=0.2, seed=3)
        b = tpch.generate("orders", scale=0.2, seed=3)
        assert a.equals(b)

    @pytest.mark.parametrize("family,table", [("tpch", "lineitem"),
                                              ("tpcds", "catalog_sales")])
    def test_deterministic_across_processes(self, family, table):
        # str hashes are salted per process; generation must not be.
        script = (
            "import hashlib, sys\n"
            "from repro.data import tpch, tpcds\n"
            f"data = {family}.generate({table!r}, scale=0.2, seed=0)\n"
            "digest = hashlib.sha256()\n"
            "for name in data.column_names:\n"
            "    digest.update(name.encode())\n"
            "    digest.update(data.column(name).tobytes())\n"
            "sys.stdout.write(digest.hexdigest())\n")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        digests = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.path.abspath(src))
            digests.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert len(digests) == 1

    def test_seed_changes_data(self):
        a = tpch.generate("orders", scale=0.2, seed=3)
        b = tpch.generate("orders", scale=0.2, seed=4)
        assert not a.equals(b)

    def test_scale_controls_rows(self):
        small = tpch.generate("orders", scale=0.1)
        large = tpch.generate("orders", scale=0.5)
        assert large.n_rows == 5 * small.n_rows

    @pytest.mark.parametrize("table", tpch.TPCH_TABLES)
    def test_schema_conformance(self, table):
        data = tpch.generate(table, scale=0.1)
        schema = tpch.schema_for(table)
        assert set(data.column_names) == set(schema.column_names)
        assert data.key == schema.key

    @pytest.mark.parametrize("table", tpch.TPCH_TABLES)
    def test_keys_unique(self, table):
        data = tpch.generate(table, scale=0.2)
        key_cols = [data.column(k).astype(np.int64) for k in data.key]
        if len(key_cols) == 1:
            flat = key_cols[0]
        else:
            flat = key_cols[0] * 100 + key_cols[1]
        assert np.unique(flat).size == data.n_rows


class TestDataCharacter:
    def test_orders_keys_sparse(self):
        data = tpch.generate("orders", scale=0.2)
        keys = data.column("o_orderkey")
        domain = keys.max() - keys.min() + 1
        assert data.n_rows < domain / 2  # real TPC-H uses 1/4 of the domain

    def test_order_status_low_key_correlation_vs_cd(self):
        # The paper: TPC-H key-value mappings are weakly correlated.
        data = tpch.generate("orders", scale=0.3)
        single = data.take(np.arange(data.n_rows))
        corr = key_value_pearson(single)
        assert corr < 0.6  # structured-with-noise, far from deterministic

    def test_lineitem_composite_key(self):
        data = tpch.generate("lineitem", scale=0.1)
        assert data.key == ("l_orderkey", "l_linenumber")
        assert data.column("l_linenumber").min() >= 1
        assert data.column("l_linenumber").max() <= 7

    def test_vocabularies(self):
        data = tpch.generate("lineitem", scale=0.1)
        assert set(np.unique(data.column("l_returnflag"))) <= {"A", "N", "R"}
        assert set(np.unique(data.column("l_linestatus"))) <= {"F", "O"}
        assert np.unique(data.column("l_shipmode")).size <= 7

    def test_part_brand_nests_in_mfgr(self):
        data = tpch.generate("part", scale=0.2)
        brands = data.column("p_brand")
        mfgr = data.column("p_mfgr")
        # brand // 5 encodes the manufacturer ordinal
        codes = np.array([int(m.split("#")[1]) - 1 for m in mfgr])
        assert np.array_equal(brands // 5, codes)

    def test_relative_table_sizes_preserved(self):
        sizes = {t: tpch.generate(t, scale=0.1).n_rows for t in tpch.TPCH_TABLES}
        assert sizes["lineitem"] > sizes["orders"] > sizes["part"]
        assert sizes["part"] > sizes["customer"] > sizes["supplier"]
