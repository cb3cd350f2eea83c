"""Fuzzing of the TSV, JSONL and dendrogram readers: every draw loads or is a
data error.

Each draw starts from a well-formed file and breaks it in one way: a field
replaced by arbitrary text or JSON value, a field dropped or added, blank lines,
or bytes that are not UTF-8.  The reader must load it or raise ``ValueError``
(the dendrogram reader also ``KeyError`` or ``TypeError``), the errors its CLI
command maps to exit 2, and the command itself must exit 0 or 2 with no
traceback.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from affgraph.cli import EXIT_DATA, EXIT_OK, main
from affgraph.clustering import load_dendrogram_json
from affgraph.embedding import load_embeddings
from affgraph.pipeline import load_clusters, load_graphlet_corpus

FORMS = [
    "V[entity|anchor;entity|partner]E[0-1]",
    "V[entity|anchor;entity|partner;spatial|DiSR:Sup]E[0-2;1-2]",
    "V[entity|anchor;entity|human;spatial|RCC2:C]E[0-2;1-2]",
]
TINY_TRAIN = {"train": {"embedding_dim": 4, "epochs": 2, "batch_size": 8,
                        "wl_depth": 1, "learning_rate": 0.1}}
# bytes that no UTF-8 decoder accepts: a lone continuation byte, an invalid
# lead byte, a truncated sequence and an encoded surrogate
NOT_UTF8 = [b"\x80", b"\xff", b"\xc3", b"\xed\xa0\x80"]

# any code point, lone surrogates included: written out, they are not UTF-8
_field_text = st.text(st.characters(exclude_categories=()), max_size=12)


@st.composite
def _broken(draw, lines):
    """``lines`` (lists of field strings) joined by ``join``, broken one way."""
    rows, join = lines
    rows = [list(r) for r in rows]
    kind = draw(st.sampled_from(["intact", "replace", "drop", "add", "blank", "bytes"]))
    r = draw(st.integers(0, len(rows) - 1))
    if kind == "replace":
        rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(_field_text)
    elif kind == "drop":
        del rows[r][draw(st.integers(0, len(rows[r]) - 1))]
    elif kind == "add":
        rows[r].insert(draw(st.integers(0, len(rows[r]))), draw(_field_text))
    text = [join(row) for row in rows]
    if kind == "blank":
        text.insert(r, draw(st.sampled_from(["", " ", "\t"])))
    data = b"".join(line.encode("utf-8", "surrogatepass") + b"\n" for line in text)
    if kind == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


def _tsv_rows(row):
    return st.lists(row, min_size=1, max_size=4).map(lambda rows: (rows, "\t".join))


_vector = st.lists(st.floats(-4, 4).map(repr), min_size=1, max_size=3)
embedding_files = _tsv_rows(
    _vector.map(lambda v: ["g", str(len(v)), " ".join(v)])).flatmap(_broken)
cluster_files = _tsv_rows(st.integers(0, 3).map(lambda c: ["g", str(c)])).flatmap(_broken)


def _record(form: str) -> list[str]:
    record = {"id": "g", "scene": "s", "anchor": "a", "partner": "b",
              "human_part": "h", "form": form, "episodes": [0, 1]}
    return [json.dumps(key) + ": " + json.dumps(value)
            for key, value in sorted(record.items())]


corpus_files = st.lists(st.sampled_from(FORMS).map(_record), min_size=1, max_size=4).map(
    lambda rows: (rows, lambda fields: "{" + ", ".join(fields) + "}")).flatmap(_broken)


def _numbered(data: bytes, tsv: bool) -> bytes:
    """Give each line a distinct graph id, where the id field survived intact."""
    out, n = [], 0
    for line in data.split(b"\n"):
        if tsv and line.startswith(b"g\t"):
            line, n = b"g%d" % n + line[1:], n + 1
        elif not tsv and b'"id": "g"' in line:
            line, n = line.replace(b'"id": "g"', b'"id": "g%d"' % n), n + 1
        out.append(line)
    return b"\n".join(out)


def _cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check(reader, data: bytes, argv, errors=ValueError) -> None:
    """The reader loads ``data`` or raises ``errors``; ``argv(path, dir)`` exits
    0, or 2 with one ``data error:`` line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            reader(path)
        except errors:
            pass
        code, err = _cli(argv(path, tmp))
    assert code in (EXIT_OK, EXIT_DATA), err
    if code == EXIT_DATA:
        assert err.startswith("data error: ") and err.count("\n") == 1, err


@settings(max_examples=150, deadline=None)
@given(embedding_files)
def test_embedding_table_reader_loads_or_is_a_data_error(data):
    _check(load_embeddings, _numbered(data, tsv=True), lambda path, tmp: [
        "cluster", path, "-o", os.path.join(tmp, "c.tsv"),
        "--dendrogram", os.path.join(tmp, "d.json"), "--cut-threshold", "auto"])


@settings(max_examples=150, deadline=None)
@given(cluster_files)
def test_cluster_table_reader_loads_or_is_a_data_error(data):
    def argv(path, tmp):
        truth = os.path.join(tmp, "truth.json")
        with open(truth, "w", encoding="utf-8") as fh:
            json.dump({f"g{i}": [f"c{i % 2}"] for i in range(4)}, fh)
        return ["evaluate", path, truth]

    _check(load_clusters, _numbered(data, tsv=True), argv)


@settings(max_examples=100, deadline=None)
@given(corpus_files)
def test_graphlet_corpus_reader_loads_or_is_a_data_error(data):
    def argv(path, tmp):
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(TINY_TRAIN, fh)
        return ["embed", path, "-o", os.path.join(tmp, "e.tsv"), "--config", cfg]

    _check(load_graphlet_corpus, _numbered(data, tsv=False), argv)


# JSON texts to put in a dendrogram field; the last three are beyond a double
JSON_VALUES = ["null", "true", "false", "0", "1", "-1", "2", "3", "0.5", "-0.0", "1e308",
               '""', '"g0"', "[]", "[0, 1]", "[0, 1, 0.5, 2]", "{}", '{"n_leaves": 2}',
               "1" + "0" * 399, "1e400", "-1e400"]
_PLACEHOLDER = "\u0000placeholder"


@st.composite
def dendrogram_files(draw):
    """A well-formed three-leaf dendrogram.json, broken one way."""
    merges = [[0, 1, 0.25, 2], [3, 2, 0.5, 3]]
    doc = {"n_leaves": 3, "leaf_ids": ["g0", "g1", "g2"], "merges": merges}
    kind = draw(st.sampled_from(["intact", "replace", "drop", "add", "bytes"]))
    box = draw(st.sampled_from([doc, doc["leaf_ids"], merges, *merges]))
    keys = list(box) if isinstance(box, dict) else list(range(len(box)))
    if kind == "replace":
        box[draw(st.sampled_from(keys))] = _PLACEHOLDER
    elif kind == "drop":
        del box[draw(st.sampled_from(keys))]
    elif kind == "add" and isinstance(box, dict):
        box["extra"] = _PLACEHOLDER
    elif kind == "add":
        box.insert(draw(st.integers(0, len(box))), _PLACEHOLDER)
    text = json.dumps(doc).replace(json.dumps(_PLACEHOLDER), draw(st.sampled_from(JSON_VALUES)))
    data = text.encode("utf-8")
    if kind == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


_BIG_HEIGHT = b'{"n_leaves": 2, "leaf_ids": ["g0", "g1"], "merges": [[0, 1, %s, 2]]}'


@settings(max_examples=150, deadline=None)
@given(dendrogram_files())
@example(_BIG_HEIGHT % (b"1" + b"0" * 399))
@example(_BIG_HEIGHT % b"1e400")
def test_dendrogram_reader_loads_or_is_a_data_error(data):
    _check(load_dendrogram_json, data,
           lambda path, tmp: ["export", path, "-o", os.path.join(tmp, "d.dot")],
           errors=(KeyError, TypeError, ValueError))
