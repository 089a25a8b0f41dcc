"""Recorded outcomes of ``load_document`` on fuzzed and gallery documents.

The inputs are the documents that the fuzz tests mutate (``test_documents``'
gallery and ``test_acceptance``'s criterion 8), the 120 mutations of
``test_documents``' fuzz test and the 500 of criterion 8, replayed from the
same seeds.  For each input the record keeps the SHA-256 of its text and
either the error's pointer and message, or the loaded kind, the warnings and
the SHA-256 of the reserialized document, so a loader change can be
compared exactly.

Regenerate the recorded file only from a commit whose loader is known to be
right:

    PYTHONPATH=src python tests/load_diagnostics.py tests/data/load_diagnostics.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_acceptance import criterion_8_documents  # noqa: E402
from test_documents import _gallery_documents, _mutate  # noqa: E402
from tropmap.documents import DocumentError, load_document, serialize_document  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fuzzed(seed: int, docs, count: int) -> list[str]:
    """The texts that a fuzz test with this seed and these documents loads."""
    rng = random.Random(seed)
    seeds = [json.loads(serialize_document(d)) for d in docs]
    return [_mutate(rng, rng.choice(seeds)) for _ in range(count)]


def inputs() -> dict[str, list[str]]:
    return {
        "gallery": [serialize_document(d) for d in _gallery_documents()],
        "criterion 8 documents": [serialize_document(d) for d in criterion_8_documents()],
        "test_documents fuzz": _fuzzed(2024, _gallery_documents(), 120),
        "criterion 8 fuzz": _fuzzed(800813, criterion_8_documents(), 500),
    }


def outcome(text: str) -> dict:
    record: dict = {"sha256": _sha(text)}
    try:
        loaded = load_document(text)
    except DocumentError as err:
        record["error"] = [err.pointer, err.message]
    else:
        record["kind"] = loaded.document.kind
        record["warnings"] = loaded.warnings
        record["document_sha256"] = _sha(serialize_document(loaded.document))
    return record


def compute() -> dict[str, list[dict]]:
    return {name: [outcome(text) for text in texts] for name, texts in inputs().items()}


if __name__ == "__main__":
    target = Path(sys.argv[1])
    target.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
