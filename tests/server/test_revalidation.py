"""Conditional ``/query``: a cached reply carries ``ETag``, the digest of
its answer bytes, and a request that sends that digest back as
``"etag"`` is answered ``{"not_modified": true, "version": N}``.

Hostile and wrong validators: a malformed ``"etag"`` is a typed 400,
never a 5xx; a stale one gets the full reply; with the cache off it is
ignored. The client returns a set only once the server named the very
bytes it was decoded from.
"""

from __future__ import annotations

import hashlib
import json
from http.client import HTTPConnection

import pytest

from repro.errors import WireError
from repro.graph.generators import social_network
from repro.server import HttpServiceClient, ServerReply, serve_background, wire
from repro.server.client import HELD_SETS
from repro.service import GraphService

QUERY = "TRAIL (x:Person) -[:knows]-> (y:Person)"


def _graph():
    return social_network(num_people=12, friend_degree=2, seed=11)


@pytest.fixture
def served():
    service = GraphService(_graph())
    with serve_background(service) as handle:
        with HttpServiceClient(*handle.address) as client:
            yield handle, client, service


def _post(address, body: dict, headers: dict | None = None):
    """One raw ``POST /query``: ``(status, headers, body bytes)``."""
    connection = HTTPConnection(*address, timeout=30.0)
    try:
        connection.request(
            "POST",
            "/query",
            body=json.dumps(body),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def _parent_bytes(service, text: str) -> bytes:
    """The reply body a server without validators sends."""
    payload = wire.encode_answers(service.evaluate(text))
    payload["version"] = service.version
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _digest(service, text: str) -> str:
    fragment = wire.render_answers(service.evaluate(text))
    return hashlib.sha256(fragment).hexdigest()[:32]


def _find(tree: dict, name: str) -> dict:
    if tree["name"] == name:
        return tree
    for child in tree.get("children", []):
        found = _find(child, name)
        if found:
            return found
    return {}


class TestServer:
    def test_a_cached_reply_is_the_parents_bytes_plus_their_digest(self, served):
        handle, _, service = served
        for _ in range(2):  # the miss, then the hit
            status, headers, body = _post(handle.address, {"query": QUERY})
            assert status == 200
            assert body == _parent_bytes(service, QUERY)
            assert headers["ETag"] == f'"{_digest(service, QUERY)}"'
        assert handle.server.stats.bodies_not_modified == 0

    def test_the_digest_sent_back_is_answered_not_modified(self, served):
        handle, client, service = served
        _, headers, _ = _post(handle.address, {"query": QUERY})
        etag = headers["ETag"].strip('"')
        status, again, body = _post(
            handle.address, {"query": QUERY, "etag": etag}, {"X-Trace-Id": "e7a9e7a9e7a9e7a9"}
        )
        assert status == 200
        assert body == b'{"not_modified": true, "version": %d}' % service.version
        assert again["ETag"] == headers["ETag"]
        stats = client.stats()
        assert (stats["bodies_encoded"], stats["bodies_reused"]) == (1, 1)
        assert stats["bodies_not_modified"] == 1
        assert "repro_server_bodies_not_modified 1" in client.metrics().splitlines()
        encode = _find(client.trace("e7a9e7a9e7a9e7a9")["trace"], "server.encode")
        assert encode["attributes"]["not_modified"] is True

    def test_a_restamp_keeps_the_digest(self, served):
        handle, client, service = served
        _, headers, _ = _post(handle.address, {"query": QUERY})
        city = sorted(service.graph.nodes_with_label("City"))[0]
        client.mutate([{"op": "set_property", "element": wire.encode_id(city),
                        "key": "mayor", "value": "nobody"}])
        etag = headers["ETag"].strip('"')
        _, again, body = _post(handle.address, {"query": QUERY, "etag": etag})
        assert service.stats.result_cache.restamps == 1
        assert json.loads(body) == {"not_modified": True, "version": service.version}
        assert again["ETag"] == headers["ETag"]

    def test_a_stale_etag_gets_the_full_reply(self, served):
        handle, client, service = served
        _, headers, _ = _post(handle.address, {"query": QUERY})
        people = sorted(service.graph.nodes_with_label("Person"))
        client.mutate([{"op": "add_edge", "key": "fresh", "source": people[1].key,
                        "target": people[0].key, "labels": ["knows"]}])
        for stale in (headers["ETag"].strip('"'), "0" * 32, "abc"):
            _, again, body = _post(handle.address, {"query": QUERY, "etag": stale})
            assert body == _parent_bytes(service, QUERY)
            assert again["ETag"] == f'"{_digest(service, QUERY)}"' != headers["ETag"]
        assert handle.server.stats.bodies_not_modified == 0

    def test_with_the_cache_off_an_etag_is_ignored(self, served):
        handle, _, service = served
        _, headers, cached = _post(handle.address, {"query": QUERY})
        etag = headers["ETag"].strip('"')
        for body in ({"query": QUERY, "use_cache": False},
                     {"query": QUERY, "use_cache": False, "etag": etag}):
            status, bypass, reply = _post(handle.address, body)
            assert status == 200 and reply == cached
            assert "ETag" not in bypass
        assert handle.server.stats.bodies_not_modified == 0

    def test_batch_replies_carry_no_etag(self, served):
        handle, client, _ = served
        client.query(QUERY)
        reply = client.request("POST", "/batch", {"queries": [QUERY]})
        assert reply.status == 200 and "ETag" not in reply.headers

    @pytest.mark.parametrize(
        "hostile",
        [7, True, 1.5, ["ab"], {"etag": "ab"}, "", "AB", "0x1f", "g" * 32,
         '"' + "a" * 32 + '"', " " + "a" * 32, "a" * 32 + "\n", "a" * 65,
         "a" * 100_000, "é" * 8],
    )
    def test_a_malformed_etag_is_400_and_the_connection_lives(self, served, hostile):
        handle, client, _ = served
        reply = client.request("POST", "/query", {"query": QUERY, "etag": hostile})
        assert reply.status == 400, reply.payload
        assert '"etag"' in reply.payload["error"]
        assert client.request("GET", "/healthz").status == 200
        assert client.query(QUERY)
        stats = client.stats()
        assert stats["server_errors"] == 0 and stats["client_errors"] == 1
        assert handle.server.stats.connections == 1

    def test_sixty_four_hex_digits_are_a_validator(self, served):
        handle, _, service = served
        status, headers, body = _post(handle.address, {"query": QUERY, "etag": "f" * 64})
        assert status == 200 and body == _parent_bytes(service, QUERY)
        assert "ETag" in headers


class TestClient:
    def test_a_revalidated_read_returns_the_held_set(self, served):
        handle, client, service = served
        first = client.query(QUERY)
        assert client.query(QUERY) is first
        assert client.query(QUERY) is first
        assert handle.server.stats.bodies_not_modified == 2
        people = sorted(service.graph.nodes_with_label("Person"))
        client.mutate([{"op": "add_edge", "key": "fresh", "source": people[1].key,
                        "target": people[0].key, "labels": ["knows"]}])
        after = client.query(QUERY)
        assert after is not first and after == service.evaluate(QUERY)
        assert len(after) == len(first) + 1
        assert client.query(QUERY) is after
        assert handle.server.stats.bodies_not_modified == 3

    def test_cache_off_reads_never_revalidate(self, served):
        handle, client, service = served
        held = client.query(QUERY)
        for _ in range(2):
            bypass = client.query(QUERY, use_cache=False)
            assert bypass == held and bypass is not held
        assert client.query(QUERY) is held
        assert handle.server.stats.bodies_not_modified == 1


class _Scripted(HttpServiceClient):
    """A client whose round trips are scripted replies; records the
    bodies it sent."""

    def __init__(self):
        super().__init__("127.0.0.1", 9)  # never connected
        self.sent: list[dict] = []
        self.replies: list[ServerReply] = []

    def request(self, method, path, body=None, headers=None):
        self.sent.append(body)
        return self.replies.pop(0)


ANSWERS = GraphService(_graph()).evaluate(QUERY)
NOT_MODIFIED = {"not_modified": True, "version": 3}


def _full(etag: str | None) -> ServerReply:
    headers = {"ETag": f'"{etag}"'} if etag else {}
    return ServerReply(200, {**wire.encode_answers(ANSWERS), "version": 3}, headers)


class TestClientRefusesWhatItDidNotValidate:
    def test_a_not_modified_under_another_etag_is_a_wire_error(self):
        client = _Scripted()
        client.replies = [_full("a" * 32), ServerReply(200, NOT_MODIFIED, {"ETag": f'"{"b" * 32}"'})]
        held = client.query(QUERY)
        with pytest.raises(WireError, match="not_modified"):
            client.query(QUERY)
        assert client.sent[1]["etag"] == "a" * 32
        # Nor does a not_modified without an ETag validate anything.
        client.replies = [ServerReply(200, NOT_MODIFIED, {})]
        with pytest.raises(WireError):
            client.query(QUERY)
        client.replies = [ServerReply(200, NOT_MODIFIED, {"ETag": f'"{"a" * 32}"'})]
        assert client.query(QUERY) is held

    def test_a_not_modified_for_a_text_not_held_is_a_wire_error(self):
        client = _Scripted()
        client.replies = [ServerReply(200, NOT_MODIFIED, {"ETag": f'"{"a" * 32}"'})]
        with pytest.raises(WireError, match="not_modified"):
            client.query(QUERY)
        assert "etag" not in client.sent[0]
        # A full reply without an ETag is decoded and holds nothing.
        client.replies = [_full(None), ServerReply(200, NOT_MODIFIED, {"ETag": '"a"'})]
        assert client.query(QUERY) == ANSWERS
        with pytest.raises(WireError):
            client.query(QUERY)
        assert "etag" not in client.sent[-1]

    def test_a_full_reply_replaces_what_is_held(self):
        client = _Scripted()
        client.replies = [_full("a" * 32), _full("b" * 32), _full(None), _full("c" * 32)]
        for _ in range(4):
            client.query(QUERY)
        assert [body.get("etag") for body in client.sent] == [None, "a" * 32, "b" * 32, None]

    def test_at_most_held_sets_texts_are_held(self):
        client = _Scripted()
        texts = [f"{QUERY} /* {i} */" for i in range(HELD_SETS + 1)]
        client.replies = [_full(f"{i:032x}") for i in range(len(texts) + 2)]
        for text in texts:
            client.query(text)
        client.query(texts[-1])  # held: revalidated
        client.query(texts[0])  # the least recently used: gone
        assert client.sent[-2]["etag"] == f"{HELD_SETS:032x}"
        assert "etag" not in client.sent[-1]

    def test_with_the_cache_off_nothing_is_sent_or_held(self):
        client = _Scripted()
        client.replies = [_full("a" * 32), _full("b" * 32), _full("c" * 32)]
        client.query(QUERY)
        client.query(QUERY, use_cache=False)
        client.query(QUERY)
        assert [body.get("etag") for body in client.sent] == [None, None, "a" * 32]
