"""Seeded workload inputs, written to Parquet before anything is timed.

Every workload starts from a ``documents`` table (doc_id, text, lang,
source): the shape of the corpus the page generators in
``dedoc_ray.sources`` were written for, with its 30-word vocabulary and
10..100-word texts. The seed chooses the texts; the doc_ids are fixed, so
the format mix is fixed by the generators' doc_id rules. The shape of each
text is fixed too, down to the length of every word, so a seed changes
what a page says but not how many characters, lines and paragraphs it
has: that keeps run-to-run spread down on the small OCR workload, whose
cost follows the glyph count.

The pipeline under test only ever reads the Parquet written here.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Tuple

import pyarrow as pa
import pyarrow.parquet as pq

#: the corpus vocabulary besides "the", which one word in 30 is
WORDS = (
    "a agg batch big column customer data fast filter group hash join key line merge "
    "order part query row scan slow small sort spark stream table value vector window"
).split()
THE_SHARE = 1 / 30
WORDS_BY_LENGTH: Dict[int, List[str]] = {}
for _word in WORDS:
    WORDS_BY_LENGTH.setdefault(len(_word), []).append(_word)
SHAPE_SEED = 0
LANGS = ("en", "zh", "es", "fr", "de")
LANG_WEIGHTS = (41, 15, 15, 15, 14)
MIN_WORDS, MAX_WORDS = 10, 100
N_SOURCES = 20

#: production job shape: several shards through the resumable writer, each
#: big enough that the kernel, not the per-shard plan start, is most of a job
WEB_SHARDS = 2
WEB_ROWS = 8000  # a multiple of 40, so every doc_id % 10/20/40 class is exact
#: every PDF generator of sources/synth_office.py and scan_writer.scan_pdf
PDF_GENERATORS = (
    "pdf_table", "pdf2col", "pdf_para", "pdf_cid", "pdf_info", "pdf_attach", "pdf_encrypted", "pdf_scan",
)
#: Ray Data reads one file as 8 blocks: 1024 rows make each block exactly
#: two 64-row batches (at 480 rows, pairs of 60-row blocks ran 30 % slower),
#: and enough kernel work that the actor pool's start is not most of a job
PDF_ROWS = 1024
#: plain and ruled-table pages in turn; all land in one 64-row batch, so
#: one actor builds its recognizer (about 2 s) and then reads every page
#: (0.6-0.85 s each), recognition outweighing the build
SCAN_ROWS = 6
WARMUP_ROWS = 8
WARMUP_SEED = 0

OK_STATUSES = frozenset({"ok", "low_confidence"})


@dataclass(frozen=True)
class Expected:
    """What the output row of one input row must look like."""

    generator: str
    fmt: str
    statuses: FrozenSet[str]


@dataclass
class WorkloadInput:
    """Generated input: Parquet paths (one job reads all of them, in order)
    plus the expected outcome of every url."""

    name: str
    paths: List[str]
    expected: Dict[str, Expected]
    payload_bytes: int

    @property
    def rows(self) -> int:
        return len(self.expected)

    def summary(self) -> dict:
        return {
            "workload": self.name,
            "rows": self.rows,
            "payload_bytes": self.payload_bytes,
            "generators": dict(sorted(Counter(e.generator for e in self.expected.values()).items())),
            "formats": dict(sorted(Counter(e.fmt for e in self.expected.values()).items())),
        }


def documents(seed: int, n: int) -> pa.Table:
    """Seeded ``documents`` rows with doc_ids 0..n-1.

    The shape of every text (its word count, where ' the ' falls, which
    the generators split lines and paragraphs at, and the length of every
    other word) is the same for every seed; the seed draws each other word
    among the vocabulary words of its length."""
    shape, words = random.Random(SHAPE_SEED), random.Random(seed)
    texts = []
    for _ in range(n):
        # a slot is "the" or the length of a word drawn from the vocabulary
        slots = [0 if shape.random() < THE_SHARE else len(shape.choice(WORDS))
                 for _ in range(shape.randint(MIN_WORDS, MAX_WORDS))]
        texts.append(" ".join(words.choice(WORDS_BY_LENGTH[k]) if k else "the" for k in slots))
    return pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": texts,
            "lang": words.choices(LANGS, weights=LANG_WEIGHTS, k=n),
            "source": [f"src{i % N_SOURCES}" for i in range(n)],
        }
    )


def web_generator(doc_id: int) -> Tuple[str, str]:
    """(generator, sniffed format) of a ``sources.synth`` page by its doc_id rules."""
    from dedoc_ray.sources.synth import template_class

    cls = template_class(doc_id)
    if cls <= 5:
        return "html", "html"
    if cls == 6:
        return "rich_html", "html"
    if cls == 7:
        if doc_id % 20 == 17:
            return "pdf", "pdf"
        return ("gz_txt" if doc_id % 40 == 27 else "txt"), "txt"
    if cls == 8:
        return "json", "json"
    return "undecodable", "bad_file"


def _write(table: pa.Table, path: str) -> str:
    pq.write_table(table, path)
    return path


def _web(seed: int, out_dir: str, rows: int, shards: int) -> WorkloadInput:
    from dedoc_ray.sources.synth import pages_batch

    kinds = [web_generator(i) for i in range(rows)]
    pages = pages_batch(documents(seed, rows), n_shards=shards)
    paths, expected = [], {}
    for url, (gen, fmt) in zip(pages["url"].to_pylist(), kinds):
        expected[url] = Expected(gen, fmt, frozenset({"bad_file"}) if fmt == "bad_file" else OK_STATUSES)
    shard_col = pages["shard"].to_pylist()
    for k in range(shards):
        part = pages.take([i for i, s in enumerate(shard_col) if s == k])
        paths.append(_write(part, os.path.join(out_dir, f"shard-{k}.parquet")))
    payload = sum(len(b) for b in pages["html"].to_pylist())
    return WorkloadInput("web_pages", paths, expected, payload)


def web_pages(seed: int, out_dir: str) -> WorkloadInput:
    """The ``sources.synth`` page mix in several shards (the resumable job)."""
    return _web(seed, out_dir, WEB_ROWS, WEB_SHARDS)


def warmup_pages(out_dir: str) -> WorkloadInput:
    """A few cheap web rows, the same for every workload and seed."""
    return _web(WARMUP_SEED, out_dir, WARMUP_ROWS, 1)


def _pdf_generators() -> Dict[str, Callable[[int, str], bytes]]:
    from dedoc_ray.sources import synth_office as so
    from dedoc_ray.sources.scan_writer import scan_pdf

    return {
        "pdf_table": so.pdf_table_bytes,
        "pdf2col": so.pdf_twocol_bytes,
        "pdf_para": so.pdf_para_bytes,
        "pdf_cid": so.pdf_cid_bytes,
        "pdf_info": so.pdf_info_bytes,
        "pdf_attach": so.pdf_attach_bytes,
        "pdf_encrypted": so.pdf_encrypted_bytes,
        "pdf_scan": scan_pdf,
    }


def _single_format(name: str, seed: int, out_dir: str, gens: List[str], fmt: str, ext: str,
                   makers: Dict[str, Callable[[int, str], bytes]]) -> WorkloadInput:
    docs = documents(seed, len(gens))
    urls, payloads, expected = [], [], {}
    for doc_id, text, gen in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist(), gens):
        url = f"https://synth.test/office/{doc_id}.{ext}"
        urls.append(url)
        payloads.append(makers[gen](doc_id, text))
        expected[url] = Expected(gen, fmt, OK_STATUSES)
    table = pa.table({"url": pa.array(urls, pa.string()), "html": pa.array(payloads, pa.binary())})
    path = _write(table, os.path.join(out_dir, f"{name}.parquet"))
    return WorkloadInput(name, [path], expected, sum(len(p) for p in payloads))


def pdf_docs(seed: int, out_dir: str) -> WorkloadInput:
    """One-page PDFs cycling every PDF generator (each a different route)."""
    gens = [PDF_GENERATORS[i % len(PDF_GENERATORS)] for i in range(PDF_ROWS)]
    return _single_format("pdf_docs", seed, out_dir, gens, "pdf", "pdf", _pdf_generators())


def scan_pages(seed: int, out_dir: str) -> WorkloadInput:
    """Open-font page scans; every second page is a ruled 3x3 table."""
    from dedoc_ray.sources.openfont_writer import scan_openfont_pgm, scan_openfont_table_pgm

    gens = ["scan_openfont_table" if i % 2 else "scan_openfont" for i in range(SCAN_ROWS)]
    makers = {"scan_openfont": scan_openfont_pgm, "scan_openfont_table": scan_openfont_table_pgm}
    return _single_format("scan_pages", seed, out_dir, gens, "pgm", "pgm", makers)


WORKLOADS: Dict[str, Callable[[int, str], WorkloadInput]] = {
    "web_pages": web_pages,
    "pdf_docs": pdf_docs,
    "scan_pages": scan_pages,
}
