"""k-copy scale graphs: the bundled fixture relabelled k times.

Copy 0 is the fixture itself; copy i (1 <= i < k) rewrites the example
base ``https://w3id.org/fair/openpredict/`` to ``.../openpredict/c<i>/``.
The fixture has no blank nodes, so the copies share only vocabulary terms
and the k-copy graph has exactly k times the fixture's triples.

Answers over the k-copy graph must relate to the 1x answers exactly:
unparameterised questions return every copy's rows, and a question asked
about copy i returns the 1x answer relabelled to copy i.
"""

from __future__ import annotations

import json

BASE = "https://w3id.org/fair/openpredict/"

# Row counts of the unparameterised questions on the 1x fixture.
UNPARAMETERISED_ROWS_1X = {"CQ2.3": 10, "CQ3.1": 2, "CQ3.5": 44}


def cq_params(cq_id: str, copy: int) -> dict[str, str]:
    """Parameters for a question about copy ``copy``: the v0.1 workflow
    (v0.2 for CQ1.3), or v0.1 -> v0.2 for the version-delta questions."""
    from plexflow.fixture import V01, V02

    v01, v02 = relabel(V01, copy), relabel(V02, copy)
    if cq_id in ("CQ3.2", "CQ3.3", "CQ3.4"):
        return {"from": v01, "to": v02}
    if cq_id in UNPARAMETERISED_ROWS_1X:
        return {}
    return {"workflow": v02 if cq_id == "CQ1.3" else v01}


def relabel(text: str, copy: int) -> str:
    """``text`` with the example base moved to copy ``copy``."""
    return text if copy == 0 else text.replace(BASE, f"{BASE}c{copy}/")


def k_copy_ntriples(ntriples: str, k: int) -> str:
    if k < 1:
        raise ValueError("k must be at least 1")
    return "".join(relabel(ntriples, i) for i in range(k))


def scaled_rows(table_json: str, k: int) -> list[list]:
    """Sorted rows of a 1x answer repeated for each of k copies."""
    rows = json.loads(table_json)["rows"]
    return sorted(json.loads(relabel(json.dumps(row), i))
                  for i in range(k) for row in rows)


def check_unparameterised(cq_id: str, table_json: str, ref_json: str,
                          k: int) -> str:
    """Empty when a k-copy answer is the union of the relabelled 1x rows."""
    rows = json.loads(table_json)["rows"]
    want = UNPARAMETERISED_ROWS_1X[cq_id] * k
    if len(rows) != want:
        return f"{cq_id}: {len(rows)} rows, expected {want}"
    if sorted(rows) != scaled_rows(ref_json, k):
        return f"{cq_id}: rows differ from the relabelled 1x rows"
    return ""


def check_parameterised(cq_id: str, table_json: str, ref_json: str,
                        copy: int) -> str:
    """Empty when an answer about copy ``copy`` is the relabelled 1x one."""
    if table_json != relabel(ref_json, copy):
        return f"{cq_id}: answer for copy {copy} differs from the relabelled 1x answer"
    return ""
