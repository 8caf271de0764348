"""Golden bytes: the SHA-256 of small seeded CLI outputs, one case per command and mode.

The determinism tests elsewhere compare one run with another, so a change
that moved every number would keep them green. These digests pin the bytes
themselves. A deliberate change of output re-freezes them in the open:
``PYTHONPATH=src python3 tests/test_golden.py`` prints the current digests. They
hold numpy's and scipy's last bits, so other versions of those may move them.
"""

import hashlib
import platform
import sys

import numpy as np
import pytest
import scipy

from uavcov import cli

# the digests hold the last bits of numpy's and scipy's math functions
FROZEN_UNDER = "numpy 2.4.6 and scipy 1.17.1 on x86-64"

# name -> argv; ``--out`` is appended. Sizes are small but every code path runs:
# MC columns, both formulations, both area shapes, a scenario whose shadowing
# spans more than one draw block, one whose CSV spans several chunks, and one SVG chart.
CASES = {
    "sweep-plos": ["sweep-plos", "--env", "all", "--step", "2.5"],
    "sweep-plos-literal": ["sweep-plos", "--env", "urban", "--step", "5",
                           "--mode", "paper-literal"],
    "sweep-pathloss": ["sweep-pathloss", "--env", "all", "--start", "0", "--stop", "1000",
                       "--step", "50"],
    "sweep-coverage": ["sweep-coverage", "--env", "all", "--start", "0", "--stop", "1000",
                       "--step", "50", "--plot"],
    "sweep-coverage-literal": ["sweep-coverage", "--env", "all", "--axis", "altitude",
                               "--start", "50", "--stop", "1000", "--step", "50",
                               "--mode", "paper-literal"],
    "sweep-coverage-mc": ["sweep-coverage", "--env", "urban", "--env", "suburban",
                          "--axis", "angle", "--step", "15", "--mc-samples", "3000",
                          "--seed", "3"],
    "optimize-altitude": ["optimize-altitude", "--env", "all", "--steps", "200"],
    "optimize-altitude-literal": ["optimize-altitude", "--env", "urban", "--steps", "120",
                                  "--mode", "paper-literal"],
    "coverage-radius": ["coverage-radius", "--env", "all", "--resolution", "10"],
    "coverage-radius-literal": ["coverage-radius", "--env", "dense-urban", "--resolution",
                                "10", "--target", "0.5", "--mode", "paper-literal"],
    "scenario-square": ["scenario", "--env", "urban", "--n-users", "300", "--n-draws", "7",
                        "--seed", "5", "--p-min", "-70"],
    "scenario-disk": ["scenario", "--env", "suburban", "--area-shape", "disk",
                      "--n-users", "250", "--n-draws", "9", "--seed", "8"],
    "scenario-literal": ["scenario", "--env", "high-rise-urban", "--n-users", "120",
                         "--n-draws", "3", "--seed", "2", "--uav-x", "100", "--mode",
                         "paper-literal"],
    "scenario-blocks": ["scenario", "--env", "urban", "--n-users", "11000", "--n-draws", "100",
                        "--seed", "13", "--workers", "2"],
    # more rows than two CSV chunks of 2**14, and a part chunk
    "scenario-chunks": ["scenario", "--env", "dense-urban", "--n-users", "40000", "--n-draws",
                        "2", "--seed", "17"],
    # charts of list columns: MC lists beside arrays, a str column beside lists, and a
    # table with one numeric column, which draws no series
    "sweep-coverage-mc-plot": ["sweep-coverage", "--env", "urban", "--env", "suburban",
                               "--axis", "angle", "--step", "15", "--mc-samples", "3000",
                               "--seed", "3", "--plot"],
    "optimize-altitude-plot": ["optimize-altitude", "--env", "all", "--steps", "200", "--plot"],
    "coverage-radius-plot": ["coverage-radius", "--env", "all", "--resolution", "10", "--plot"],
    # planner grids of three kernel blocks, scanned as two spans of blocks
    "optimize-altitude-blocks": ["optimize-altitude", "--env", "all", "--steps", "40000",
                                 "--workers", "2"],
    "optimize-altitude-blocks-literal": ["optimize-altitude", "--env", "all", "--steps", "40000",
                                         "--workers", "2", "--mode", "paper-literal"],
    "coverage-radius-blocks": ["coverage-radius", "--env", "all", "--resolution", "0.05",
                               "--workers", "2"],
}

# frozen from the outputs of uavcov 0.1.0 before the columnar scenario path
GOLDEN = {
    "sweep-plos":
        {"csv": "6f0b282e3cd45d7c97007e7ff1d829e7a71b3117f6b739396b45da7abf7b962c"},
    "sweep-plos-literal":
        {"csv": "fe528147e912a3814c9a57b0af129078ef0985cb2492852de7fb434ebf253690"},
    "sweep-pathloss":
        {"csv": "b3f796903b04df581abecf3daf161adb9542e259580ba07a0e310aea2f783c33"},
    "sweep-coverage":
        {"csv": "ab9dd5656a98881f6fc719ca6f4f79a59b153e81cbbe4d80d6742cecf40fe906",
         "svg": "1d89501e480a4dc368ebbcfc4e3240d8e010d67759c1f15186312dcafce8c704"},
    "sweep-coverage-literal":
        {"csv": "6d257ee286191c1e4529246b5f79bf90323141f13e5bb33ea7b03ac11a83110b"},
    "sweep-coverage-mc":
        {"csv": "0c2f0fcbb96c00ca0b66fe49d2139427c93a522a28c5074e5c6ed27af2994dfc"},
    "optimize-altitude":
        {"csv": "517c54e250dab91266296118e4faf4ca29855a4177137fe2f6564201700fb2f1"},
    "optimize-altitude-literal":
        {"csv": "dbdfc2ba0740a714cf3d3b521f8d67158a5055e53c58ee53fc013cb504b95ec5"},
    "coverage-radius":
        {"csv": "ea19501e661315e85d0f218a3f9783fd75a3bcb80c52958e425f071cc343c3ae"},
    "coverage-radius-literal":
        {"csv": "db42a4b1c987f25c8ce934ab8a59a2f3f2ed40a9a88c6d76520abad36788a4cb"},
    "scenario-square":
        {"csv": "7aa5d650b120dfc209276de9b91fea2b657ef5086b217231cc4790bcf7fa2cb0"},
    "scenario-disk":
        {"csv": "a32aaa748608c684cd5f703eca4fe4bdffc6d302c4d3dbfa122ce23ae6e9f981"},
    "scenario-literal":
        {"csv": "02216482fb9ea688f01d52e01fbad922e9e5d57da635abba5e0be81f8636add8"},
    "scenario-blocks":
        {"csv": "2f2967535d577d4c71fea1b4505fd60b01677cfeb43b0dbca044bb54e5d99b23"},
    # frozen from the row-at-a-time CSV writer, before the chunked one
    "scenario-chunks":
        {"csv": "af2509ed152b414a5ac2441e348ad39928a7f97ee74f652125977e33474970f6"},
    # frozen from the SVG writer that read row tuples, before it read the columns
    "sweep-coverage-mc-plot":
        {"csv": "0c2f0fcbb96c00ca0b66fe49d2139427c93a522a28c5074e5c6ed27af2994dfc",
         "svg": "03c07487966afa15e7ce112b29287904d37db7db5c3c726a5e532384eea9e61d"},
    "optimize-altitude-plot":
        {"csv": "517c54e250dab91266296118e4faf4ca29855a4177137fe2f6564201700fb2f1",
         "svg": "8667defe7bb9cb7373c49a86a59e54458797c40b2f5bf83e5784b09da4f71e1f"},
    "coverage-radius-plot":
        {"csv": "ea19501e661315e85d0f218a3f9783fd75a3bcb80c52958e425f071cc343c3ae",
         "svg": "05d34089bf5a19d928b7118d1dda58c726ee1136567b003430543b85b57fe7b5"},
    # frozen from the scans that ran each environment whole on one thread
    "optimize-altitude-blocks":
        {"csv": "02b3fd29f308b3c7b7ea49e685b8f29dda93777c7b4006405ae6fd74145c47b6"},
    "optimize-altitude-blocks-literal":
        {"csv": "de93c7cb2dfd8e57f33f1d75fb78a60d61b7fd945527a6b43c8c5c278a07a514"},
    "coverage-radius-blocks":
        {"csv": "d0dc7bfbd04325e4887383565022fe2145d0972fb87770328c0db29cfc09a007"},
}


def _digests(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert cli.main(CASES[name] + ["--out", str(out)]) == 0
    paths = {"csv": out, "svg": out.with_suffix(".svg")}
    return {kind: hashlib.sha256(path.read_bytes()).hexdigest()
            for kind, path in paths.items() if path.exists()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(name, tmp_path):
    assert _digests(name, tmp_path) == GOLDEN[name], (
        f"the digests were frozen under {FROZEN_UNDER}; this run has numpy {np.__version__} "
        f"and scipy {scipy.__version__} on {platform.machine()}")


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            sys.stdout.write(f"    {case!r}: {_digests(case, pathlib.Path(tmp))!r},\n")
