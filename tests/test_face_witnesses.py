"""The face relation's witnesses equal the recorded ones."""

import json
from pathlib import Path

import face_witnesses

DATA = Path(__file__).parent / "data" / "face_witnesses.json"


def test_face_witnesses_match_the_record():
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    assert len(recorded) >= 4 + 1 + 20
    assert face_witnesses.compute() == recorded
