"""Golden digests of every verifier report and exhaustive result.

The digests were recorded before the claim definitions were shared between
the reference verifiers and the table-driven scan, so any change to a report
field, a count, a certificate or an error message shows up here.
"""

import hashlib
import json

import pytest

from proxrem.digraph import is_strong
from proxrem.search import enumerate_class, exhaustive_verify
from proxrem.verifiers import THEOREMS

GENERAL = ("thm-2.1", "thm-2.2")
TOURNAMENT = ("thm-3.2", "thm-3.3", "prop-3.1")
BIPARTITE = ("lem-3.4", "lem-3.5", "lem-3.6", "cor-3.7", "cor-3.8")

#: (class, n, parts) -> digest of every THEOREMS report on every strong member.
REPORT_DIGESTS = {
    ("all_digraphs", 4, None): "6a82b3db29c571cc",
    ("tournaments", 5, None): "49d50a426b009011",
    ("tournaments", 6, None): "8809230d3a7f1a40",
    ("bipartite_tournaments", None, (2, 3)): "4401f1d05871dbda",
    ("bipartite_tournaments", None, (3, 3)): "cc80c3a1290c51b8",
    ("symmetric_digraphs", 5, None): "2f98de72fa0e1046",
}

#: (claims, class, n, parts) -> digest of the exhaustive result, elapsed time dropped.
RESULT_DIGESTS = {
    (GENERAL, "all_digraphs", 4, None): "c8dfde60c8001e82",
    (GENERAL, "tournaments", 5, None): "48eb8f95f92573a5",
    (TOURNAMENT, "tournaments", 5, None): "42e9595677ca966c",
    (GENERAL, "tournaments", 6, None): "44ab1308c5ab2a8a",
    (TOURNAMENT, "tournaments", 6, None): "810e5ecd626a55c0",
    (GENERAL, "bipartite_tournaments", None, (2, 3)): "962c6e6803931da1",
    (BIPARTITE, "bipartite_tournaments", None, (2, 3)): "70c1c280910938f8",
    (GENERAL, "bipartite_tournaments", None, (3, 3)): "db44820ab452f823",
    (BIPARTITE, "bipartite_tournaments", None, (3, 3)): "bd68799b0a8331c7",
    (GENERAL, "symmetric_digraphs", 5, None): "679673b0481ff655",
}


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _report_lines(cls, n, parts):
    for D in enumerate_class(cls, n, parts):
        if not is_strong(D):
            continue
        for claim in sorted(THEOREMS):
            try:
                reports = THEOREMS[claim](D)
            except ValueError as exc:
                yield f"{claim} error {exc}"
                continue
            for rep in reports:
                yield json.dumps(rep.as_json_dict(), sort_keys=True)


@pytest.mark.parametrize("key", sorted(REPORT_DIGESTS, key=str), ids=str)
def test_report_digest(key):
    assert _digest(_report_lines(*key)) == REPORT_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(RESULT_DIGESTS, key=str), ids=str)
def test_exhaustive_result_digest(key):
    claims, cls, n, parts = key
    obj = exhaustive_verify(list(claims), cls, n=n, parts=parts).as_json_dict()
    del obj["elapsed_seconds"]
    assert _digest([json.dumps(obj, sort_keys=True)]) == RESULT_DIGESTS[key]
