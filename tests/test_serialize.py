"""``serialize.dumps_canonical`` against its one-call contract, and the
label-array writer and the certificate block reader against their references.

The writer must give exactly the text of ``json.dumps(value, sort_keys=True,
separators=(",", ":")) + "\n"`` on any value, and raise the same exception
type where that raises.  The label-array writer must return what
``core.label_list`` gives member by member, or raise what it raises.  Every
built document must keep the JSON value it had when documents were written
with a two-space indent (``oracles.dumps_canonical_reference``).  The reader
must return the masks ``oracles.block_lists_reference`` returns, or raise
ParameterError with the same message.
"""

import enum
import gc
import itertools
import json
import subprocess
import sys
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kneser_minors import (
    MinorCertificate,
    ParameterError,
    Params,
    PartitionPlan,
    almost_regular_partition,
    build_coloring,
    build_minor,
    params_grid,
    verify_coloring,
    verify_minor,
    verify_partition,
)
from kneser_minors.core import label_list
from kneser_minors.minors import CaseTag
from kneser_minors.serialize import (
    _block_lists,
    _label_lists,
    coloring_to_dict,
    dumps_canonical,
    minor_to_dict,
    partition_to_dict,
    report_to_dict,
)
from oracles import block_lists_reference, dumps_canonical_reference


class Row(list):
    pass


class Backwards(list):
    def __iter__(self):
        return reversed(self)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = -7


def outcome(write, value):
    try:
        return "text", write(value)
    except (TypeError, ValueError) as exc:
        return "raises", type(exc)


def stdlib_text(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


def assert_same(value):
    assert outcome(dumps_canonical, value) == outcome(stdlib_text, value)


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | st.text()
    | st.text(alphabet=st.characters(max_codepoint=0x1F) | st.sampled_from('"\\/é \U0001f600'))
    | st.sampled_from(list(Level) + list(CaseTag))
    | st.sampled_from(["], [", "a, b", "[]", "{}", "x]]"])
)
# Label arrays and blocks of them, the bulk of every certificate, with bools,
# empty rows and tuples mixed in now and then.
ROWS = st.lists(st.integers(-70, 70) | st.sampled_from([True, False]), max_size=6)
BLOCKS = st.lists(ROWS | ROWS.map(tuple), max_size=5)
KEYS = st.integers() | st.floats() | st.booleans() | st.none()
JSON_VALUES = st.recursive(
    SCALARS | ROWS | BLOCKS | st.lists(BLOCKS, max_size=3),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(inner, max_size=4).map(Row)
        | st.lists(inner, max_size=4).map(Backwards)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4).map(OrderedDict)
        | st.dictionaries(KEYS, inner, max_size=4)
        | st.dictionaries(st.text(max_size=2) | KEYS, inner, max_size=3)
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_any_value_matches_the_stdlib(value):
    assert_same(value)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.lists(st.integers(1, 64), min_size=1, max_size=8), min_size=1, max_size=4), max_size=6))
def test_uniform_label_nests_match_the_stdlib(blocks):
    assert_same(blocks)
    assert_same({"blocks": blocks, "nested": [blocks, [blocks]]})


MASK = st.integers(1, 2**64 - 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(MASK, min_size=1, max_size=3).map(tuple), min_size=1, max_size=8))
def test_random_n64_minors_match_the_stdlib(blocks):
    cert = MinorCertificate(n=64, k=3, blocks=tuple(blocks), trace=(), claimed_order=len(blocks))
    assert_same(minor_to_dict(cert))


@pytest.fixture(scope="module")
def built_documents():
    documents = []
    for p in params_grid((3, 4), 2000):
        cert = build_minor(p)
        documents += [minor_to_dict(cert), report_to_dict(verify_minor(cert))]
    for p in (Params(7, 3), Params(10, 3), Params(11, 4), Params(12, 4)):
        cert = build_coloring(p)
        documents += [coloring_to_dict(cert), report_to_dict(verify_coloring(cert))]
    for plan in (
        PartitionPlan((1, 9), 3, (10, 20, 30, 24)),
        PartitionPlan((60, 64), 2, (1,) * 10),
        PartitionPlan((3, 8), 6, (1,)),
    ):
        part = almost_regular_partition(plan)
        documents += [partition_to_dict(part), report_to_dict(verify_partition(part))]
    return documents


def test_built_certificates_match_the_stdlib(built_documents):
    for document in built_documents:
        assert_same(document)


def test_built_documents_keep_their_indented_json_value(built_documents):
    for document in built_documents:
        assert json.loads(dumps_canonical(document)) == json.loads(dumps_canonical_reference(document))


def test_array_edge_cases_match_the_stdlib():
    for value in (
        Backwards([1, 2]),
        [[1, 2], Backwards([3, 4])],
        [Row([1, 2]), (3, 4)],
        [[], [1]],
        [[1], [[2]]],
        [[1, [2]]],
        [1, True, None, 2.5, float("nan")],
        [[{}], [{}]],
        [["], [", "a, b"]],
        [-(10**30), 0],
    ):
        assert_same(value)


def test_deep_nests_match_the_stdlib():
    # 500 levels, well under the default recursion limit of 1000.
    for leaf in ("x", 1):
        nest, keyed = leaf, leaf
        for _ in range(500):
            nest, keyed = [nest, leaf], {"k": keyed}
        assert_same(nest)
        assert_same(keyed)


def test_unserializable_and_circular_values_raise_like_the_stdlib():
    loop = [1]
    loop.append(loop)
    alone = []
    alone.append(alone)
    pair = [[], []]
    pair[0].append(pair)
    keyed = {}
    keyed[1] = [keyed]
    named = {}
    named["self"] = named
    for value in (loop, alone, pair, keyed, named):
        assert_same(value)
        assert outcome(dumps_canonical, value) == ("raises", ValueError)
    for value in ({1, 2}, b"12", [[1], {3}], {"a": 1, 2: "b"}, {(1, 2): 3}, [{"a": {None: 1, "b": 2}}]):
        assert_same(value)
        assert outcome(dumps_canonical, value) == ("raises", TypeError)


# The block reader: label arrays that take the inline loop, and one of each
# kind it hands to _mask_from_labels (bool, float, int subclass, 0, 65, a
# repeat, a descent, an empty list, a non-list, a list subclass).
ODD_LABELS = [0, 65, -1, 2**70, True, False, 3.0, 1.5, Level.LOW, Level.HIGH, "3", None]
LABEL_ARRAYS = st.lists(st.integers(1, 64), min_size=1, max_size=6, unique=True).map(sorted)


def with_odd_label(array, label, at):
    array[at % len(array)] = label
    return array


MEMBERS = st.one_of(
    LABEL_ARRAYS,
    st.builds(with_odd_label, LABEL_ARRAYS, st.sampled_from(ODD_LABELS), st.integers(0, 5)),
    st.sampled_from(ODD_LABELS).map(lambda label: [label]),
    LABEL_ARRAYS.map(lambda a: a + a[-1:]),
    LABEL_ARRAYS.filter(lambda a: len(a) > 1).map(lambda a: a[::-1]),
    st.lists(st.integers(1, 64) | st.sampled_from(ODD_LABELS), max_size=6),
    LABEL_ARRAYS.map(Row),
    LABEL_ARRAYS.map(Backwards),
    LABEL_ARRAYS.map(tuple),
    st.sampled_from([None, 3, "1,2", {}]),
)
READER_BLOCKS = st.one_of(
    st.lists(MEMBERS, max_size=4),
    st.lists(LABEL_ARRAYS, min_size=1, max_size=4),
    st.lists(MEMBERS, max_size=4).map(Row),
    st.lists(MEMBERS, max_size=4).map(Backwards),
    MEMBERS,
)


def read(reader, blocks):
    try:
        return "blocks", reader(blocks, "blocks")
    except ParameterError as exc:
        return "error", str(exc)


@settings(max_examples=500, deadline=None)
@given(st.lists(READER_BLOCKS, max_size=4))
def test_block_reader_matches_the_reference(blocks):
    assert read(_block_lists, blocks) == read(block_lists_reference, blocks)


@pytest.mark.parametrize(
    "writer,cert",
    [
        ("minor_to_dict", "MinorCertificate(n=7, k=3, blocks=((7, -7),), trace=(), claimed_order=1)"),
        ("coloring_to_dict", "ColoringCertificate(n=7, k=3, classes=((7,), (-7,)))"),
        (
            "partition_to_dict",
            "AlmostRegularPartition(plan=PartitionPlan((1, 7), 3, (34, 1)), classes=((7,), (-7,)))",
        ),
    ],
)
def test_writers_refuse_a_negative_mask(writer, cert):
    # The low-bit walk never ends on a negative int, so a regression hangs:
    # run it in a child with a timeout.
    code = (
        "from kneser_minors import AlmostRegularPartition, ColoringCertificate, MinorCertificate, ParameterError,"
        " PartitionPlan\n"
        f"from kneser_minors.serialize import {writer}\n"
        f"try:\n    {writer}({cert})\nexcept ParameterError as exc:\n    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (0, "negative mask -7\n")


# The label-array writer: k-sets of [1, n], with now and then a member off
# the tables (a label above n, over k labels, a negative or huge int, a bool,
# a non-int), under any (n, k), cut into rows.
def label_lists_reference(rows, n, k):
    return [[label_list(m) for m in row] for row in rows]


def written(write, rows, n, k):
    try:
        return "lists", write(rows, n, k)
    except (ParameterError, TypeError) as exc:
        return "raises", type(exc), str(exc)


def mask_of(labels):
    return sum(1 << (x - 1) for x in labels)


ODD_MASKS = (
    st.sets(st.integers(1, 66), min_size=1, max_size=8).map(mask_of)
    | st.integers()
    | st.integers(2**64, 2**70)
    | st.integers(-(2**70), 0)
    | st.sampled_from([0, -7, True, False, 1.5, "3", None])
)


@st.composite
def label_rows(draw):
    n = draw(st.integers(1, 8) | st.integers(-3, 70))
    k = draw(st.integers(1, 3) | st.integers(-2, 12))
    kset = st.sets(st.integers(1, min(max(n, 1), 64)), min_size=1, max_size=max(k, 1)).map(mask_of)
    size = draw(st.integers(0, 40))  # as many members as the tables hold entries, often
    members = draw(st.lists(kset, min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 2))):
        members.insert(draw(st.integers(0, len(members))), draw(ODD_MASKS))
    cuts = sorted({0, len(members), *draw(st.lists(st.integers(0, len(members)), max_size=4))})
    return [tuple(members[a:b]) for a, b in zip(cuts, cuts[1:])], n, k


@settings(max_examples=200, deadline=None)
@given(label_rows())
@example(([(0b111,)], -1, 3))  # n < 1 and k <= n < 1 build no tables
@example(([(0b111,)], -2, -2))
def test_label_lists_match_the_reference(case):
    assert written(_label_lists, *case) == written(label_lists_reference, *case)


def test_built_certificates_take_the_tables(monkeypatch):
    # Every member of these certificates is two table lookups: the reference
    # is never called.
    cert_minor, cert_coloring = build_minor(Params(50, 3)), build_coloring(Params(12, 4))
    part = almost_regular_partition(PartitionPlan((1, 9), 3, (10, 20, 30, 24)))
    want = [minor_to_dict(cert_minor), coloring_to_dict(cert_coloring), partition_to_dict(part)]

    def refuse(mask):
        raise AssertionError(f"label_list({mask}) called")

    monkeypatch.setattr("kneser_minors.serialize.label_list", refuse)
    assert [minor_to_dict(cert_minor), coloring_to_dict(cert_coloring), partition_to_dict(part)] == want
    assert want[0]["blocks"] == label_lists_reference(cert_minor.blocks, 50, 3)


def test_table_label_arrays_are_fresh_lists(monkeypatch):
    # n = 8 splits at h = 4.  Rows hold one mask twice, masks with an empty
    # high half ([1,2,3], [2,4]) and with an empty low half ([5,6,8], [7]),
    # among all 3-sets of [8] so that the tables serve every member.
    rows = [(mask_of([1, 2, 3]), mask_of([1, 2, 3])), (mask_of([5, 6, 8]), mask_of([2, 4]), mask_of([7])),
            tuple(mask_of(c) for c in itertools.combinations(range(1, 9), 3))]
    monkeypatch.setattr("kneser_minors.serialize.label_list", lambda mask: pytest.fail(f"label_list({mask}) called"))
    out = _label_lists(rows, 8, 3)
    arrays = [labels for row in out for labels in row]
    assert all(type(labels) is list for labels in arrays)
    assert len(set(map(id, arrays))) == len(arrays)  # each its own object while all are alive
    before = [list(labels) for labels in arrays]
    for i, labels in enumerate(arrays):
        labels.append(0)
        assert arrays[:i] + arrays[i + 1:] == before[:i] + before[i + 1:]
        labels.pop()
    assert out == label_lists_reference(rows, 8, 3)


@pytest.mark.parametrize("n,k", [(100000, 99999), (10, 10**9)])
def test_a_coloring_file_past_the_label_cap_writes_back_at_once(n, k):
    # The table test sums over range(k + 1); k <= n <= 64 bounds that loop, so a
    # coloring file read and written back takes no time, whatever its n and k.
    code = (
        "from kneser_minors.serialize import coloring_from_dict, coloring_to_dict\n"
        f"doc = {{'version': 1, 'kind': 'coloring', 'n': {n}, 'k': {k}, 'classes': [[[1, 2, 3]]]}}\n"
        "print(coloring_to_dict(coloring_from_dict(doc))['classes'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[[[1, 2, 3]]]\n", "")


def test_a_wide_certificate_builds_no_tables():
    # n = 64, k = 32: the two tables would hold about 2^33 entries, far more
    # than the block's 33 members, so each member takes label_list.  The child
    # runs under a 1 GiB address-space limit: a regression fails, it does not
    # fill the host's memory.
    code = (
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from kneser_minors import MinorCertificate\n"
        "from kneser_minors.core import label_list\n"
        "from kneser_minors.serialize import dumps_canonical, minor_to_dict\n"
        "block = tuple(((1 << 32) - 1) << i for i in range(33))\n"
        "cert = MinorCertificate(n=64, k=32, blocks=(block,), trace=(), claimed_order=1)\n"
        "start = time.perf_counter()\n"
        "document = minor_to_dict(cert)\n"
        "dumps_canonical(document)\n"
        "elapsed = time.perf_counter() - start\n"
        "print(document['blocks'] == [[label_list(m) for m in block]], elapsed < 1)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True True\n", "")


# The four writers pause the cyclic collector and then leave it as they found
# it: on stays on, off stays off, also when the writer raises.
@pytest.fixture
def collector_state():
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "writer,value",
    [
        (minor_to_dict, build_minor(Params(8, 3))),
        (coloring_to_dict, build_coloring(Params(8, 3))),
        (partition_to_dict, almost_regular_partition(PartitionPlan((1, 7), 3, (12, 12, 11)))),
        (dumps_canonical, {"blocks": [[[1, 2, 3]]]}),
    ],
    ids=["minor", "coloring", "partition", "dumps"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_writers_leave_the_collector_as_they_found_it(collector_state, writer, value, enabled):
    (gc.enable if enabled else gc.disable)()
    writer(value)
    assert gc.isenabled() is enabled
    with pytest.raises((AttributeError, TypeError)):  # no certificate, no JSON value
        writer(object())
    assert gc.isenabled() is enabled


@pytest.mark.parametrize(
    "writer,build",
    [
        (minor_to_dict, lambda: build_minor(Params(18, 6))),  # 17,639 label lists
        (coloring_to_dict, lambda: build_coloring(Params(16, 5))),  # 4,368
        (partition_to_dict, lambda: almost_regular_partition(PartitionPlan((1, 16), 4, (455,) * 4))),  # 1,820
    ],
    ids=["minor", "coloring", "partition"],
)
def test_a_document_written_and_dropped_runs_no_collection(collector_state, writer, build):
    # Unpaused, the label lists would run young collections while they are
    # made and encoded; paused, the document is freed by reference counting
    # when it is dropped, before any collection looks at it.
    value, starts = build(), []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        text = dumps_canonical(writer(value))
    finally:
        gc.callbacks.remove(count)
    assert starts == []
    assert text.startswith('{"')
