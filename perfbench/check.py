"""Output check: every input row comes out exactly once, with the format
and status its generator implies and the same text as the single-thread
traced pass over the same input."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import pyarrow as pa

from perfbench.workloads import Expected

#: (url, status, format, sha1 of extracted_text)
Row = Tuple[str, str, str, str]


def text_digest(text: Optional[str]) -> str:
    return hashlib.sha1((text or "").encode("utf-8", "surrogatepass")).hexdigest()


def row_digests(batch: pa.Table) -> pa.Table:
    """Extracted batch → one small row per document."""
    return pa.table({
        "url": batch["url"],
        "status": batch["status"],
        "format": batch["format"],
        "text_sha1": pa.array([text_digest(t) for t in batch["extracted_text"].to_pylist()], pa.string()),
    })


def rows_of(table: pa.Table) -> List[Row]:
    return list(zip(*(table[c].to_pylist() for c in ("url", "status", "format", "text_sha1"))))


def corpus_digest(rows: Iterable[Row]) -> str:
    """Digest of the sorted (url, status, extracted_text) triples."""
    h = hashlib.sha256()
    for url, status, _fmt, text_sha1 in sorted(rows):
        h.update(f"{url}\t{status}\t{text_sha1}\n".encode("utf-8", "surrogatepass"))
    return h.hexdigest()


@dataclass
class CheckResult:
    rows_in: int
    rows_out: int
    missing: int = 0
    duplicated: int = 0
    unexpected: int = 0
    parse_errors: int = 0
    mix_mismatches: int = 0
    reference_mismatches: int = 0
    #: rows failing any per-row check (parse_error, mix or reference)
    bad_rows: int = 0
    digest: str = ""
    #: format → status → rows
    mix: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.bad_rows + self.missing + self.duplicated + self.unexpected


def check_output(rows: List[Row], expected: Dict[str, Expected],
                 reference: Optional[Dict[str, Tuple[str, str]]] = None) -> CheckResult:
    """Compare one job's output rows with the generator's expectations and,
    when given, with the reference pass's (status, text digest) per url."""
    res = CheckResult(rows_in=len(expected), rows_out=len(rows), digest=corpus_digest(rows))
    seen = Counter(r[0] for r in rows)
    res.missing = sum(1 for url in expected if url not in seen)
    res.duplicated = sum(n - 1 for n in seen.values())
    mix: Dict[str, Counter] = {}
    for url, status, fmt, text_sha1 in rows:
        mix.setdefault(fmt, Counter())[status] += 1
        exp = expected.get(url)
        if exp is None:
            res.unexpected += 1
            continue
        bad = False
        if status == "parse_error":
            res.parse_errors += 1
            bad = True
        elif fmt != exp.fmt or status not in exp.statuses:
            res.mix_mismatches += 1
            bad = True
        if reference is not None and reference.get(url) != (status, text_sha1):
            res.reference_mismatches += 1
            bad = True
        res.bad_rows += bad
    res.mix = {fmt: dict(sorted(c.items())) for fmt, c in sorted(mix.items())}
    return res
