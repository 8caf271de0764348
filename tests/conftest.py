"""Shared pytest hooks."""

import platform

import numpy as np
import scipy


def pytest_report_header(config):
    # the golden digests hold numpy's and scipy's last bits, so a run states the versions
    return (f"uavcov numerics: numpy {np.__version__}, scipy {scipy.__version__}, "
            f"{platform.machine()}")
