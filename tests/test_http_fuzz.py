"""Fuzz the read tier's wire: request lines, header lines, query strings.

Each generated frame goes through :func:`repro.service.http.read_request`
on an in-process :class:`asyncio.StreamReader` that ends in
``feed_eof`` (no socket), and every request it yields through
:meth:`ServiceNode.handle` over a real data node serving a small
campaign. The contract: a frame parses or raises
:class:`~repro.errors.ServiceError` (the connection loop answers that
400 and closes), and no request is answered 5xx. Anything else — a
``ValueError`` out of the parser, a 500 out of a handler — is a bug.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CanopusEncoder, LevelScheme
from repro.errors import ServiceError
from repro.io import BPDataset
from repro.service import CanopusService
from repro.service.http import read_request
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

_SETTINGS = dict(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_PARAMS = (
    "campaign", "var", "level", "tolerance", "step", "region",
    "min_significance", "threshold", "shape", "start", "length", "limit",
)
_NUMBERS = (
    "0", "1", "2", "3", "-1", "99", "1e999", "-1e999", "nan", "inf",
    "-0", "1e-300", "0x10", "1_0", "", " 1", "%D9%A1",
    "99999999999999999999999",
)
_PATHS = (
    "/healthz", "/v1/metrics", "/v1/traces", "/v1/trace/abc",
    "/v1/query/stats", "/v1/query/blobs", "/v1/campaigns/camp",
    "/v1/campaigns/camp/open", "/v1/campaigns/camp/vars/dpot/restore",
    "/v1/campaigns/camp/vars/dpot/stats", "/v1/campaigns/camp/vars/dpot/plan",
    "/v1/campaigns/camp/raw/", "/v1/campaigns/nope/vars/x/restore",
    "/v1/campaigns/camp/vars/nope/plan", "//[", "/v1//campaigns",
    "/v1/campaigns/%2e%2e/raw/%2e%2e%2f", "http://[::1", "*", "",
)
_HEADERS = (
    "content-length", "connection", "traceparent", "authorization",
    "if-none-match", "host", "x-canopus-cursor",
)
# Header/target text: latin-1, the parser's decoding, minus CR and LF
# (those end a line and are generated as structure below).
_LATIN1 = st.characters(min_codepoint=0, max_codepoint=255, exclude_characters="\r\n")
_text = st.text(_LATIN1, max_size=24)


_DIM = st.sampled_from(_NUMBERS + ("8", "32", "100000"))
_VALUE = st.one_of(
    st.sampled_from(_NUMBERS),
    st.lists(st.sampled_from(_NUMBERS), min_size=4, max_size=4).map(
        lambda v: f"{v[0]},{v[1]}:{v[2]},{v[3]}"  # region
    ),
    st.tuples(_DIM, _DIM).map(",".join),  # shape
    st.sampled_from(("camp", "dpot", "apar", "nope", "camp/../x")),
    _text,
)


@st.composite
def _query(draw):
    pairs = draw(st.lists(
        st.tuples(st.one_of(st.sampled_from(_PARAMS), _text), _VALUE),
        max_size=6,
    ))
    sep = draw(st.sampled_from(("&", ";", "&&")))
    return sep.join(f"{k}={v}" for k, v in pairs)


@st.composite
def _request_line(draw):
    method = draw(st.one_of(
        st.sampled_from(("GET", "POST", "get", "PUT", "HEAD", "")), _text
    ))
    target = draw(st.one_of(st.sampled_from(_PATHS), _text))
    query = draw(_query())
    if query:
        target = f"{target}?{query}"
    version = draw(st.one_of(
        st.sampled_from(("HTTP/1.1", "HTTP/1.0", "HTTP/2", "http/1.1", "")),
        _text,
    ))
    return f"{method} {target} {version}"


@st.composite
def _header_lines(draw):
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        name = draw(st.one_of(st.sampled_from(_HEADERS), _text))
        value = draw(st.one_of(st.sampled_from(_NUMBERS), _text))
        sep = draw(st.sampled_from((": ", ":", " ", "")))
        lines.append(f"{name}{sep}{value}")
    return lines


@st.composite
def _frame(draw):
    """One request frame: line, headers, blank line and maybe a body
    (of any length, so a content-length can promise more than arrives)."""
    lines = [draw(_request_line()), *draw(_header_lines())]
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    body = draw(st.binary(max_size=16))
    return head + body


@pytest.fixture(scope="module")
def node(tmp_path_factory):
    """A :class:`ServiceNode` over a small two-variable campaign, and the
    one event loop every example runs on."""
    src = make_xgc1(scale=0.1)
    root = tmp_path_factory.mktemp("fuzz")
    h = two_tier_titan(root, fast_capacity=64 << 20, slow_capacity=1 << 36)
    enc = CanopusEncoder(
        h, codec="zfp", codec_params={"tolerance": 1e-4, "mode": "relative"},
        chunks=4,
    )
    ds = BPDataset.create("camp", h)
    for var, f in {"dpot": src.field, "apar": np.cos(src.field)}.items():
        enc.encode("camp", var, src.mesh, f, LevelScheme(3),
                   dataset=ds, close=False)
    ds.close()
    svc = CanopusService(h, executor_workers=2)
    loop = asyncio.new_event_loop()
    yield svc.node, loop
    loop.run_until_complete(svc.stop())
    loop.close()


async def _answer(service_node, frame: bytes) -> list[int]:
    """Statuses the frame's requests are answered with, in order, as the
    connection loop would: it stops at end of stream or at a frame the
    parser refuses (answered 400, then closed)."""
    reader = asyncio.StreamReader()
    reader.feed_data(frame)
    reader.feed_eof()
    statuses = []
    while True:
        try:
            request = await read_request(reader)
        except ServiceError:
            return statuses + [400]
        if request is None:
            return statuses
        statuses.append((await service_node.handle(request)).status)


def _check(node, frame: bytes) -> None:
    service_node, loop = node
    statuses = loop.run_until_complete(_answer(service_node, frame))
    assert all(s < 500 for s in statuses), (frame, statuses)


class TestWireFuzz:
    @settings(**_SETTINGS)
    @given(frame=_frame())
    def test_structured_frames_never_5xx(self, node, frame):
        _check(node, frame)

    @settings(**_SETTINGS)
    @given(frame=st.binary(max_size=200))
    def test_raw_bytes_never_5xx(self, node, frame):
        _check(node, frame)

    @settings(**_SETTINGS)
    @given(
        frames=st.lists(_frame(), min_size=2, max_size=4),
        cut=st.integers(0, 400),
    )
    def test_pipelined_and_truncated_frames_never_5xx(self, node, frames, cut):
        wire = b"".join(frames)
        _check(node, wire[: len(wire) - cut] if cut < len(wire) else wire)

    @pytest.mark.parametrize("frame", [
        b"GET //[ HTTP/1.1\r\n\r\n",
        b"GET http://[::1/healthz HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\ncontent-length: 5\r\n\r\nab",
    ])
    def test_found_frames_are_refused_400(self, node, frame):
        service_node, loop = node
        assert loop.run_until_complete(_answer(service_node, frame)) == [400]

    def test_every_route_with_each_sampled_number(self, node):
        # Every route with every parameter set to every sampled number:
        # the deterministic core of what the strategies draw from.
        for path in _PATHS:
            for name in _PARAMS:
                for value in _NUMBERS:
                    query = f"campaign=camp&var=dpot&threshold=0&{name}={value}"
                    frame = f"GET {path}?{query} HTTP/1.1\r\n\r\n"
                    _check(node, frame.encode("latin-1"))
