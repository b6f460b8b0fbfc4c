"""The benchmark's workloads: the public calls one pass makes, and their answers.

Every call goes through the public API (``exhaustive_verify`` or ``search``)
with ``shards=1`` in the benchmark's own process, so the numbers measure the
scan and not a worker pool.  A pass is fully fixed by its calls and their
order; the seed only sets that order.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_source() -> None:
    if not (SRC / "proxrem" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no proxrem source under {SRC}; run from a checkout of the repository")


def import_proxrem():
    """Import proxrem from the source tree beside the benchmark, and only from there."""
    require_source()
    sys.path.insert(0, str(SRC))
    proxrem = importlib.import_module("proxrem")
    if Path(proxrem.__file__).resolve().parent != SRC / "proxrem":
        raise SystemExit(f"perfbench: imported proxrem from {proxrem.__file__}, not from {SRC}")
    return proxrem


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Call:
    """One public call: ``exhaustive_verify`` when ``claims`` is set, else ``search``."""

    cls: str
    n: Optional[int] = None
    parts: Optional[Tuple[int, int]] = None
    claims: Tuple[str, ...] = ()
    predicates: Tuple[str, ...] = ()
    expect: Optional[Dict[str, object]] = None

    @property
    def label(self) -> str:
        size = f"n={self.n}" if self.n is not None else f"parts={self.parts}"
        return f"{'verify' if self.claims else 'search'}:{self.cls}:{size}"

    def run(self, search_mod):
        """Make the call through ``proxrem.search`` (the module), returning its result."""
        if self.claims:
            return search_mod.exhaustive_verify(list(self.claims), self.cls, n=self.n, parts=self.parts, shards=1)
        query = search_mod.SearchQuery(
            self.cls, self.n, self.parts, predicates=self.predicates, dedup="canonical", shards=1
        )
        return search_mod.search(query)

    def answer(self, result) -> Dict[str, object]:
        """The exact facts of a result that the expected table fixes."""
        if self.claims:
            return {
                "scanned": result.scanned,
                "strong": result.strong_count,
                "checked": result.checked,
                "failures": dict(result.failure_counts),
                "certificates": len(result.certificates),
                "certificate_digest": digest(result.certificates),
            }
        return {
            "scanned": result.scanned,
            "labeled_matches": result.dedup_stats["labeled_matches"],
            "classes": result.dedup_stats["classes"],
            "match_digest": digest(
                [[d6, None if rep is None else rep.as_json_dict()] for d6, rep in result.matches]
            ),
        }

    def wrong(self, result) -> bool:
        return self.expect is not None and self.answer(result) != self.expect


NO_CERTIFICATES = digest([])

T32_CLAIMS = ("thm-3.2", "thm-3.3", "prop-3.1")
BIPARTITE_CLAIMS = ("lem-3.4", "lem-3.5", "lem-3.6", "cor-3.7", "cor-3.8")
GENERAL_CLAIMS = ("thm-2.1", "thm-2.2")

#: workload name -> the calls of one pass, with their answers at the seed.
#: The thm-3.2 failures on tournaments n=6 are the known even-order
#: refutation: expected answers, not defects.
WORKLOADS: Dict[str, Tuple[Call, ...]] = {
    # The only class with the cheap strongness screen; Gray step and screen
    # carry their largest share here.
    "scan-digraphs": (
        Call(
            "all_digraphs", n=5, claims=GENERAL_CLAIMS,
            expect={
                "scanned": 1048576, "strong": 565080, "checked": 565080,
                "failures": {"thm-2.1-pi": 0, "thm-2.1-rho": 0, "thm-2.2": 0},
                "certificates": 0, "certificate_digest": NO_CERTIFICATES,
            },
        ),
    ),
    # No screen: the distance kernel runs on every instance, at order 9 with
    # deep layers on the bipartite pass.
    "scan-oriented": (
        Call(
            "tournaments", n=6, claims=T32_CLAIMS,
            expect={
                "scanned": 32768, "strong": 22320, "checked": 32768,
                "failures": {"thm-3.2-pi": 2400, "thm-3.2-rho": 1200, "thm-3.3": 0, "prop-3.1": 0},
                "certificates": 200, "certificate_digest": "a6c202873d14bb01",
            },
        ),
        Call(
            "bipartite_tournaments", parts=(4, 5), claims=BIPARTITE_CLAIMS,
            expect={
                "scanned": 1048576, "strong": 415650, "checked": 415650,
                "failures": {c: 0 for c in BIPARTITE_CLAIMS},
                "certificates": 0, "certificate_digest": NO_CERTIFICATES,
            },
        ),
    ),
    # Canonical labeling dominates (plain and part-respecting); the kernel is
    # a small share, so kernel work should leave this workload unchanged.
    "search-dedup": (
        Call(
            "tournaments", n=6, predicates=("strong", "equality_thm_3_2_rho"),
            expect={"scanned": 32768, "labeled_matches": 2640, "classes": 5, "match_digest": "93f092804a686606"},
        ),
        Call(
            "bipartite_tournaments", parts=(4, 4), predicates=("strong", "good"),
            expect={"scanned": 65536, "labeled_matches": 842, "classes": 8, "match_digest": "367f58dbac852d59"},
        ),
    ),
    # The only workload on the reference verifiers in verifiers.THEOREMS.
    "verify-generic": (
        Call(
            "symmetric_digraphs", n=6, claims=GENERAL_CLAIMS,
            expect={
                "scanned": 32768, "strong": 26704, "checked": 80112,
                "failures": {"thm-2.1-pi": 0, "thm-2.1-rho": 0, "thm-2.2": 0},
                "certificates": 0, "certificate_digest": NO_CERTIFICATES,
            },
        ),
    ),
}
