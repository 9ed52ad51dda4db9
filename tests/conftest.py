"""Acceptance summary: the verdict of every criterion in one cache entry.

Each acceptance check prints ``ACCEPTANCE <id>: PASS|FAIL - <detail>``.
The plugin below collects those lines from the captured output of each
test and, at the end of the session, stores them in pytest's cache
under ``taskload/acceptance`` as {id: {"verdict", "detail", "test"}}:

    pytest tests/test_acceptance.py
    pytest --cache-show 'taskload/*'

Lines printed with capturing disabled (``-s``) are not seen. Each
session that prints any replaces the entry.
"""

import re

_LINE = re.compile(r"^ACCEPTANCE (\S+): (PASS|FAIL) - (.*)$", re.MULTILINE)
_KEY = "taskload/acceptance"


class AcceptanceSummary:
    def __init__(self):
        self.verdicts: dict[str, dict] = {}

    def pytest_runtest_logreport(self, report):
        for cid, verdict, detail in _LINE.findall(report.capstdout):
            self.verdicts[cid] = {"verdict": verdict, "detail": detail,
                                  "test": report.nodeid}

    def pytest_sessionfinish(self, session):
        cache = getattr(session.config, "cache", None)
        if self.verdicts and cache is not None:
            cache.set(_KEY, dict(sorted(self.verdicts.items())))


def pytest_configure(config):
    config.pluginmanager.register(AcceptanceSummary(), "taskload-acceptance")
