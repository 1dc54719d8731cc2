"""Golden digests: every benchmark request still gives the same bytes.

``golden.json`` holds, for each request of ``workloads.requests(w, 0)`` in
all four workloads of ``perfbench/``, an exit code and the first 16 hex
digits of the sha256 of its output:

- a CLI request: ``cli.main``'s exit code and the text it writes;
- a library request: 0 and ``cli.to_json`` of the report or curve it
  returns (1 and the exception, should it raise);
- a criterion: the exit code ``illposed check`` would give and the result
  lines, with every runtime masked.

A change that means to move bytes rewrites the file with
``PYTHONPATH=src python tests/test_golden.py``, which first prints the name,
old and new digest of every request whose digest moved.
"""

import hashlib
import json
import os
import re
import sys
import types

import pytest

from illposed import (acceptance, cli, core, counting, discretize,
                      distribution, estimate, gallery)

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
import workloads  # noqa: E402

HEADER = ("sha256 (first 16 hex digits) of the output of every request of "
          "workloads.requests(w, 0); the SVD-backed digests (sections, "
          "criterion 4 and 5, the riemann_liouville and hilbert models) hold "
          "for the BLAS of the host that wrote them; rewrite with "
          "PYTHONPATH=src python tests/test_golden.py")
ILL = types.SimpleNamespace(acceptance=acceptance, cli=cli, core=core,
                            counting=counting, discretize=discretize,
                            distribution=distribution, estimate=estimate,
                            gallery=gallery)
# "0.12 s" or "1.3 s (< 1 s)": the criteria's wall-clock figures
_RUNTIME = re.compile(r"\d+\.\d+ s\b")


def _text(value):
    """The bytes a library result is pinned by."""
    if isinstance(value, core.Report):
        return cli.to_json(cli._payload(value))
    if isinstance(value, core.DistributionFunction):
        return cli.to_json({"eps_grid": value.eps_grid,
                            "log_phi": value.log_phi,
                            "finiteness": value.finiteness,
                            "source": value.source,
                            "sup_bound": value.sup_bound})
    return "\n".join(_RUNTIME.sub("<runtime> s", res.line()) for res in value)


def digest(req, out_path):
    """(exit code, digest) of one request."""
    try:
        outcome = workloads.execute(ILL, req, out_path)
    except Exception as exc:  # a raised request is pinned by its message
        code, text = 1, f"{type(exc).__name__}: {exc}"
    else:
        if outcome.exit_code is not None:
            code = outcome.exit_code
            text = ""
            if os.path.exists(out_path):
                with open(out_path) as fh:
                    text = fh.read()
        else:
            text = _text(outcome.value)
            code = 0
            if req.kind == "criterion":
                code = int(not all(res.passed for res in outcome.value))
    return [code, hashlib.sha256(text.encode()).hexdigest()[:16]]


def _cases():
    return [(w, req) for w in workloads.WORKLOADS
            for req in workloads.requests(w, 0)]


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload,req", _cases(),
                         ids=[f"{w}/{req.name}" for w, req in _cases()])
def test_output_matches_its_digest(workload, req, tmp_path):
    want = _golden()[workload][req.name]
    got = digest(req, str(tmp_path / workloads.out_path("", 0, req)))
    assert got == want


def test_every_request_has_a_digest():
    golden = _golden()
    assert set(golden) == {"header", *workloads.WORKLOADS}
    for w in workloads.WORKLOADS:
        assert set(golden[w]) == {req.name for req in workloads.requests(w, 0)}


def moved(old, new):
    """``(workload/request, old, new)`` for every request of the digest
    table ``new`` whose [exit code, digest] differs in ``old`` (None where
    ``old`` has no such request), in the order of ``new``."""
    return [(f"{w}/{name}", old.get(w, {}).get(name), got)
            for w, rows in new.items() if w != "header"
            for name, got in rows.items()
            if old.get(w, {}).get(name) != got]


def test_moved_names_every_changed_digest():
    old = {"header": "h", "a": {"x": [0, "11"], "y": [0, "22"]},
           "b": {"z": [1, "33"]}}
    new = {"header": "h2", "a": {"x": [0, "11"], "y": [0, "2f"]},
           "b": {"z": [0, "33"], "w": [0, "44"]}}
    assert moved(old, new) == [("a/y", [0, "22"], [0, "2f"]),
                               ("b/z", [1, "33"], [0, "33"]),
                               ("b/w", None, [0, "44"])]
    assert moved(new, new) == []


def main(tmp_dir):
    """Print the requests whose digest moved, then rewrite golden.json from
    the program as it stands, one line per request, so that a diff names
    them too."""
    table = {"header": HEADER}
    for w in workloads.WORKLOADS:
        reqs = sorted(workloads.requests(w, 0), key=lambda r: r.name)
        table[w] = {req.name: digest(req, workloads.out_path(tmp_dir, i, req))
                    for i, req in enumerate(reqs)}
    old = _golden() if os.path.exists(GOLDEN) else {}
    for name, was, now in moved(old, table):
        print(f"{name}: {json.dumps(was)} -> {json.dumps(now)}")
    blocks = [f'  "header": {json.dumps(HEADER)}']
    for w in workloads.WORKLOADS:
        rows = ",\n".join(f"    {json.dumps(name)}: {json.dumps(got)}"
                          for name, got in table[w].items())
        blocks.append(f'  "{w}": {{\n{rows}\n  }}')
    with open(GOLDEN, "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        main(tmp)
