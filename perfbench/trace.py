"""Span recorder for the traced single-thread pass.

Spans are recorded from the benchmark's side: ``patched`` swaps each
layer's public functions for timing wrappers, where the caller looks them
up, and restores them on exit. A span is (name, start, end, parent, id);
every span recorded while a row is being extracted carries that row's url
as its id. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: a span name, or a function of the wrapped call's arguments giving one
SpanName = Union[str, Callable[..., str]]


class SpanRecorder:
    """Nested spans of one thread: name, start, end, parent index, row id."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ids: List[Optional[str]] = []
        self._stack: List[int] = []
        self._row: Optional[str] = None

    def wrap(self, fn: Callable, name: SpanName, row_arg: Optional[int] = None) -> Callable:
        """``fn`` recording one span per call. ``row_arg``: position of the
        argument that names the row (its url) for every span inside."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name if isinstance(name, str) else name(*args, **kwargs))
            self.parents.append(self._stack[-1] if self._stack else -1)
            outer_row = self._row
            if row_arg is not None:
                self._row = args[row_arg]
            self.ids.append(self._row)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
                self._row = outer_row

        return traced

    def __len__(self) -> int:
        return len(self.names)

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def self_times(self) -> List[float]:
        """Per span: its duration minus the part of it its children cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for i, p in enumerate(self.parents):
            if p >= 0:
                children.setdefault(p, []).append((self.starts[i], self.ends[i]))
        return [
            self_time(self.starts[i], self.ends[i], children.get(i, ()))
            for i in range(len(self.names))
        ]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for i in range(len(self.names)):
                f.write(json.dumps({
                    "name": self.names[i], "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "id": self.ids[i],
                }) + "\n")


def self_time(start: float, end: float, children: Sequence[Tuple[float, float]]) -> float:
    """``end - start`` minus the union of the child intervals, each clipped
    to [start, end]. Overlapping children are counted once."""
    covered, reach = 0.0, start
    for c0, c1 in sorted(children):
        c0, c1 = max(c0, reach), min(c1, end)
        if c1 > c0:
            covered += c1 - c0
            reach = c1
    return (end - start) - covered


def _read_span(self, fmt, data) -> str:
    return f"readers.read.{fmt}"


def _targets() -> List[Tuple[Any, str, SpanName, Optional[int]]]:
    """(owner, attribute, span name, row argument) for every traced layer.

    ``pipeline/kernel.py`` binds sniff_format, read_html and the structure
    functions at import, so they are patched on the kernel module; the
    PDF and OCR readers import lazily at call time, so those are patched
    on their source modules and classes. The orientation probe is
    ``RealScanOCR._orientation_k``: ``decode_page_full`` calls it directly,
    not through the public ``detect_orientation_k``."""
    from dedoc_ray.core import object_linker
    from dedoc_ray.pipeline import kernel
    from dedoc_ray.readers import (
        pdf, pdf_attachments, pdf_objects, pdf_tables, pdf_text, raster_tables, real_ocr, scan_ocr, txtlayer,
    )

    return [
        (kernel.ExtractKernel, "__call__", "pipeline.kernel.batch", None),
        (kernel.ExtractKernel, "extract_row", "pipeline.kernel.row", 1),
        (kernel.ExtractKernel, "read_document", _read_span, None),
        (kernel, "sniff_format", "readers.sniff", None),
        (kernel, "read_html", "readers.html.read_html", None),
        (kernel, "extract_structure", "structure.extract_structure", None),
        (kernel, "construct_tree", "structure.tree.construct", None),
        (kernel, "flatten_tree", "structure.tree.flatten", None),
        (object_linker, "link_line_objects", "core.object_linker", None),
        (pdf, "read_pdf_auto", "readers.pdf.read_pdf_auto", None),
        (pdf_objects.PdfDocument, "__init__", "readers.pdf_objects.parse", None),
        (pdf_text, "interpret_page", "readers.pdf_text.interpret_page", None),
        (pdf_text, "assemble_lines", "readers.pdf_text.assemble_lines", None),
        (pdf_tables, "read_pdf_tabby", "readers.pdf_tables.read_pdf_tabby", None),
        (txtlayer.TxtlayerClassifier, "is_correct", "readers.txtlayer", None),
        (pdf_attachments, "extract_pdf_attachments", "readers.pdf_attachments", None),
        (scan_ocr, "read_scan", "readers.scan_ocr.read_scan", None),
        (scan_ocr, "recognize_raster", "readers.scan_ocr.recognize_raster", None),
        (real_ocr.RealScanOCR, "__init__", "readers.real_ocr.init", None),
        (real_ocr.RealScanOCR, "_orientation_k", "readers.real_ocr.orientation", None),
        (real_ocr.RealScanOCR, "decode_page_full", "readers.real_ocr.decode", None),
        (real_ocr.RealScanOCR, "_match_batch", "readers.real_ocr.match_batch", None),
        (raster_tables, "detect_raster_tables", "readers.raster_tables", None),
    ]


@contextlib.contextmanager
def patched(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Every layer target wrapped by ``recorder`` for the duration of the block.

    Build the ``ExtractKernel`` inside the block: it binds its tree
    constructor at ``__init__``."""
    saved = []
    try:
        for owner, attr, name, row_arg in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name, row_arg))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


#: formats whose reader dispatch is reported on its own
READ_FORMATS = ("html", "txt", "json", "pdf", "pgm")


def layer_metrics(rec: SpanRecorder, generator_of: Dict[str, str], pdf_generators: Sequence[str]) -> Dict[str, float]:
    """Per-layer numbers of one traced pass.

    ``ms_per_doc`` divides by the documents the layer serves (all rows for
    the kernel and structure layers, PDF rows for the PDF layers);
    ``per_page`` divides by the raster pages recognized. Every generated
    PDF has one page, so PDF rows stand in for PDF pages."""
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    count: Dict[str, int] = {}
    parses: Dict[str, int] = {}
    rows_of: Dict[str, int] = {}
    self_t = rec.self_times()
    for i, name in enumerate(rec.names):
        total[name] = total.get(name, 0.0) + rec.duration(i)
        own[name] = own.get(name, 0.0) + self_t[i]
        count[name] = count.get(name, 0) + 1
        per_generator = {"readers.pdf_objects.parse": parses, "pipeline.kernel.row": rows_of}.get(name)
        if per_generator is not None:
            gen = generator_of.get(rec.ids[i], "")
            per_generator[gen] = per_generator.get(gen, 0) + 1

    def ms(name: str, n: int, table: Dict[str, float] = total) -> float:
        return 1e3 * table.get(name, 0.0) / n if n else 0.0

    def ratio(a: int, b: int) -> float:
        return a / b if b else 0.0

    docs = count.get("pipeline.kernel.row", 0)
    pdfs = count.get("readers.pdf.read_pdf_auto", 0)
    pages = count.get("readers.scan_ocr.recognize_raster", 0)
    m: Dict[str, float] = {
        "pipeline.kernel.ms_per_doc": ms("pipeline.kernel.batch", docs),
        "pipeline.kernel.self_ms_per_doc": (
            ms("pipeline.kernel.batch", docs, own) + ms("pipeline.kernel.row", docs, own)
        ),
        "readers.sniff.ms_per_doc": ms("readers.sniff", docs),
    }
    for fmt in READ_FORMATS:
        n = count.get(f"readers.read.{fmt}", 0)
        m[f"readers.read.{fmt}.ms_per_doc"] = ms(f"readers.read.{fmt}", n)
        m[f"readers.read.{fmt}.docs"] = float(n)
    m.update({
        "readers.pdf.read_pdf_auto.ms_per_doc": ms("readers.pdf.read_pdf_auto", pdfs),
        "readers.pdf.read_pdf_auto.self_ms_per_doc": ms("readers.pdf.read_pdf_auto", pdfs, own),
        "readers.pdf_objects.parses_per_doc": ratio(count.get("readers.pdf_objects.parse", 0), pdfs),
        "readers.pdf_objects.parse.ms_per_doc": ms("readers.pdf_objects.parse", pdfs),
        "readers.pdf_text.interpret_page.calls_per_page": ratio(count.get("readers.pdf_text.interpret_page", 0), pdfs),
        "readers.pdf_text.interpret_page.ms_per_doc": ms("readers.pdf_text.interpret_page", pdfs),
        "readers.pdf_text.assemble_lines.ms_per_doc": ms("readers.pdf_text.assemble_lines", pdfs),
        "readers.pdf_tables.read_pdf_tabby.ms_per_doc": ms("readers.pdf_tables.read_pdf_tabby", pdfs),
        "readers.txtlayer.ms_per_doc": ms("readers.txtlayer", pdfs),
        "readers.pdf_attachments.ms_per_doc": ms("readers.pdf_attachments", pdfs),
    })
    for gen in pdf_generators:
        m[f"readers.pdf_objects.parses_per_doc.{gen}"] = ratio(parses.get(gen, 0), rows_of.get(gen, 0))
    m.update({
        "readers.scan_ocr.read_scan.ms_per_page": ms("readers.scan_ocr.read_scan", pages),
        "readers.real_ocr.orientation.ms_per_page": ms("readers.real_ocr.orientation", pages),
        "readers.real_ocr.decode.ms_per_page": ms("readers.real_ocr.decode", pages),
        "readers.real_ocr.match_batch.ms_per_page": ms("readers.real_ocr.match_batch", pages),
        "readers.real_ocr.match_batch.calls_per_page": ratio(count.get("readers.real_ocr.match_batch", 0), pages),
        "readers.raster_tables.ms_per_page": ms("readers.raster_tables", pages),
        "structure.extract_structure.ms_per_doc": ms("structure.extract_structure", docs),
        "structure.tree.construct.ms_per_doc": ms("structure.tree.construct", docs),
        "structure.tree.flatten.ms_per_doc": ms("structure.tree.flatten", docs),
        "core.object_linker.ms_per_doc": ms("core.object_linker", docs),
    })
    return m
