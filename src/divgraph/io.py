"""Graph document JSON format and divisor parsing.

A graph document is a JSON object:

    {
      "vertices": [{"id": "v1", "weight": 0}, ...],
      "edges": [["v1", "v2"], ...],
      "divisors": {"name": [1, -2, 0], ...}        # optional
    }

Ids are unique strings, weights nonnegative integers, loops are pairs of
equal ids, divisor arrays follow vertex order. Parsing then serialising
then parsing again is the identity on documents.

Divisors are accepted on the command line either inline as a
parenthesised integer tuple like "(-2,3,-1)" (an ASCII hyphen or a
Unicode minus both work) or as the name of an entry in the document's
divisors table.
"""

import json

from .divisors import Divisor
from .errors import DocumentError
from .graphs import Graph


def parse_document(doc) -> tuple:
    """Validate a parsed JSON object and build (Graph, named divisors)."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise DocumentError("document needs a nonempty 'vertices' array")
    vertices = []
    for entry in raw_vertices:
        if not isinstance(entry, dict) or "id" not in entry:
            raise DocumentError("each vertex needs an 'id'")
        vid = entry["id"]
        if not isinstance(vid, str):
            raise DocumentError(f"vertex id {vid!r} must be a string")
        weight = entry.get("weight", 0)
        if isinstance(weight, bool) or not isinstance(weight, int) or weight < 0:
            raise DocumentError(f"weight of {vid!r} must be a nonnegative integer")
        vertices.append((vid, weight))
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise DocumentError("'edges' must be an array of [id, id] pairs")
    edges = []
    for entry in raw_edges:
        if not isinstance(entry, list) or len(entry) != 2:
            raise DocumentError(f"edge {entry!r} must be an [id, id] pair")
        edges.append((entry[0], entry[1]))
    try:
        graph = Graph(vertices, edges)
    except DocumentError:
        raise
    except Exception as exc:  # graph validation errors carry the details
        raise DocumentError(str(exc)) from exc

    named = {}
    raw_divisors = doc.get("divisors", {})
    if not isinstance(raw_divisors, dict):
        raise DocumentError("'divisors' must be an object of named arrays")
    for name, coeffs in raw_divisors.items():
        if not isinstance(coeffs, list) or len(coeffs) != graph.vertex_count:
            raise DocumentError(
                f"divisor {name!r} must be an array of {graph.vertex_count} integers"
            )
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in coeffs):
            raise DocumentError(f"divisor {name!r} must contain integers only")
        named[name] = Divisor(graph, coeffs)
    return graph, named


def document_of(graph: Graph, divisors=None) -> dict:
    """Serialise a graph (and optional named divisors) to a document."""
    doc = {
        "vertices": [
            {"id": v, "weight": w} for v, w in zip(graph.vertex_ids, graph.weights)
        ],
        "edges": [[a, b] for a, b in graph.edges],
    }
    if divisors:
        doc["divisors"] = {name: list(d.coeffs) for name, d in divisors.items()}
    return doc


def load_document(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise DocumentError(f"{path} nests its JSON too deeply") from None
    return parse_document(doc)


def save_document(path, graph, divisors=None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document_of(graph, divisors), fh, indent=2)
        fh.write("\n")


def parse_divisor(spec: str, graph: Graph, named=None) -> Divisor:
    """Parse an inline tuple like "(-2,3,-1)" or look up a named divisor."""
    text = spec.strip().replace("−", "-")
    if text.startswith("(") and text.endswith(")"):
        body = text[1:-1].strip()
        try:
            coeffs = [int(p) for p in body.split(",")] if body else []
        except ValueError:
            raise DocumentError(f"cannot parse divisor {spec!r}") from None
        if len(coeffs) != graph.vertex_count:
            raise DocumentError(
                f"divisor {spec!r} has {len(coeffs)} entries, expected "
                f"{graph.vertex_count}"
            )
        return Divisor(graph, coeffs)
    if named and text in named:
        return named[text]
    raise DocumentError(f"unknown divisor {spec!r} (not inline, not a named divisor)")
