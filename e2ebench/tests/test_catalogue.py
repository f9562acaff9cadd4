#!/usr/bin/env python3
"""Checks BENCHMARK.json against the benchmark's metric catalogue.

    python3 test_catalogue.py <path to linefs_e2ebench> <path to BENCHMARK.json>

Every metric BENCHMARK.json names must be one linefs_e2ebench prints, in the same
section (end_to_end or per_layer), with the same unit and direction; every
end-to-end metric needs a unit, a direction and a bound of at most 0.25.
"""

import json
import re
import subprocess
import sys
import unittest

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class CatalogueTest(unittest.TestCase):
    binary = None
    bench_json = None

    @classmethod
    def setUpClass(cls):
        out = subprocess.run([cls.binary, "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        cls.catalogue = {m["name"]: m for m in json.loads(out)}
        with open(cls.bench_json) as f:
            cls.spec = json.load(f)

    def test_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, ["seqwrite_idle", "syncwrite_busy", "readwrite_mix"])

    def test_sections_match_catalogue(self):
        for section in ("end_to_end", "per_layer"):
            for m in self.spec[section]:
                with self.subTest(metric=m["name"]):
                    self.assertRegex(m["name"], NAME)
                    self.assertRegex(m["unit"], UNIT)
                    self.assertIn(m["better"], ("lower", "higher"))
                    cat = self.catalogue.get(m["name"])
                    self.assertIsNotNone(cat, "linefs_e2ebench does not print it")
                    self.assertEqual(cat["kind"], section)
                    self.assertEqual(cat["unit"], m["unit"])
                    self.assertEqual(cat["better"], m["better"])

    def test_end_to_end_bounds(self):
        for m in self.spec["end_to_end"]:
            with self.subTest(metric=m["name"]):
                self.assertGreater(m["bound"], 0)
                self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    def test_every_printed_metric_is_declared(self):
        declared = {m["name"] for s in ("end_to_end", "per_layer") for m in self.spec[s]}
        for name, cat in self.catalogue.items():
            if cat["kind"] != "info":
                with self.subTest(metric=name):
                    self.assertIn(name, declared)


if __name__ == "__main__":
    CatalogueTest.binary, CatalogueTest.bench_json = sys.argv[1], sys.argv[2]
    unittest.main(argv=sys.argv[:1])
