import contextlib
import json
import re
import subprocess
import sys
import threading
import time

import pytest

from ctxsens import scorer
from ctxsens.models import PredictionError, TrainConfig, train
from ctxsens.scorer import (
    ExternalScorerClient,
    ScorerEndpoint,
    ScorerError,
    ScorerTimeout,
)

from helpers import toy_scorer_command

pytestmark = pytest.mark.usefixtures("scorer_processes")


def endpoint(*extra: str, timeout: float = 10.0, max_in_flight: int = 8) -> ScorerEndpoint:
    return ScorerEndpoint(command=toy_scorer_command(*extra), timeout=timeout, max_in_flight=max_in_flight)


@contextlib.contextmanager
def toy_endpoint(transport: str, *extra: str, max_in_flight: int = 8):
    """An endpoint of the toy scorer over stdio, or over TCP to a toy scorer
    started here and stopped on exit."""
    if transport == "stdio":
        yield endpoint(*extra, max_in_flight=max_in_flight)
        return
    process = subprocess.Popen([*toy_scorer_command(*extra, "--tcp", "0")], stdout=subprocess.PIPE, text=True)
    try:
        port = int(re.search(r"listening (\d+)", process.stdout.readline()).group(1))
        yield ScorerEndpoint(address=("127.0.0.1", port), timeout=10.0, max_in_flight=max_in_flight)
    finally:
        process.terminate()
        process.wait(timeout=5)
        process.stdout.close()


def test_endpoint_requires_exactly_one_transport():
    with pytest.raises(ValueError):
        ScorerEndpoint()
    with pytest.raises(ValueError):
        ScorerEndpoint(command=("x",), address=("localhost", 1))


def test_score_round_trip_is_deterministic():
    with ExternalScorerClient(endpoint()) as client:
        first = client.score("r1", "hello world")
        second = client.score("r2", "hello world")
        different = client.score("r3", "hello world", parent="context")
    assert first == second
    assert first != different
    assert 0.0 <= first < 1.0


def test_float_mode_echoes_text_value():
    with ExternalScorerClient(endpoint("--mode", "float")) as client:
        assert client.score("a", "0.125") == 0.125


def test_out_of_order_responses_match_by_id():
    # the scorer buffers 4 requests and answers them in reverse order
    with ExternalScorerClient(endpoint("--mode", "float", "--batch", "4", max_in_flight=4)) as client:
        scores, errors = client.score_many([(f"id{i}", f"0.{i}", None) for i in range(4)])
    assert errors == {}
    assert scores == {f"id{i}": float(f"0.{i}") for i in range(4)}


def test_score_many_with_in_flight_cap(monkeypatch):
    # the scorer answers each 3 requests it holds in reverse, so full windows complete out of order;
    # the number outstanding is checked at every send
    cap, items = 3, [(f"id{i}", f"0.{i}", None) for i in range(48)]
    with ExternalScorerClient(endpoint("--mode", "float", "--batch", "3", max_in_flight=cap)) as client:
        sent, answered, outstanding_at_send = [], set(), []
        send, next_response = client._send, client._next_response

        def counting_next_response(deadline):
            obj = next_response(deadline)
            if obj is not None and obj.get("id") in sent:
                answered.add(obj["id"])
            return obj

        def counting_send(obj):
            sent.append(obj["id"])
            outstanding_at_send.append(len(sent) - len(answered))
            send(obj)

        monkeypatch.setattr(client, "_send", counting_send)
        monkeypatch.setattr(client, "_next_response", counting_next_response)
        scores, errors = client.score_many(items)
    assert errors == {} and len(scores) == len(items)
    assert max(outstanding_at_send) == cap


def test_one_dropped_item_fails_alone_within_its_deadlines():
    items = [(f"id{i}", f"0.{i}", None) for i in range(200)] + [("gone", "poison", None)]
    timeout = 0.5
    with ExternalScorerClient(endpoint("--mode", "float", "--drop-substring", "poison", timeout=timeout)) as client:
        started = time.monotonic()
        scores, errors = client.score_many(items)
        elapsed = time.monotonic() - started
    assert set(errors) == {"gone"} and "within" in errors["gone"]
    assert len(scores) == 200
    assert elapsed < (scorer._RETRIES + 1) * timeout + 1.5


def test_score_many_starts_no_thread(monkeypatch):
    # the whole session, from opening the scorer through a fit and a batch to close
    started, start = [], threading.Thread.start
    threads = threading.active_count()
    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", lambda thread: (started.append(thread), start(thread))[1])
        with ExternalScorerClient(endpoint("--mode", "float")) as client:
            assert client.fit([{"text": "a", "parent": None, "target": 0.1}]) is False
            scores, errors = client.score_many([(f"id{i}", f"0.{i}", None) for i in range(100)])
            assert threading.active_count() == threads
    assert errors == {} and len(scores) == 100
    assert started == []
    assert threading.active_count() == threads


@pytest.mark.parametrize("transport", ["stdio", "tcp"])
def test_a_full_window_of_large_requests_does_not_deadlock(transport):
    # 5 MB of requests in one burst: the scorer's unread replies fill its
    # output (64 KB for a pipe) long before it has read every request, so a
    # client blocked on its write would never read them and never finish
    items = [(f"id{i}", f"{i % 10}." + "7" * 1022, None) for i in range(5000)]
    result = []
    with toy_endpoint(transport, "--mode", "float", max_in_flight=len(items)) as scorer_endpoint:

        def session():
            with ExternalScorerClient(scorer_endpoint) as client:
                result.append(client.score_many(items))

        worker = threading.Thread(target=session, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "the session did not finish within 30 s"
    scores, errors = result[0]
    assert errors == {}
    assert scores == {request_id: float(text) for request_id, text, _ in items}


@pytest.mark.parametrize("chunk", [5, 100])
@pytest.mark.parametrize("transport", ["stdio", "tcp"])
def test_replies_split_across_reads_or_sharing_one_all_match(transport, chunk):
    # a 5-byte chunk splits every reply across reads; 100 bytes hold several
    # replies and a cut one; the last reply ends the stream without a newline
    items = [(f"id{i}", f"0.{i}", None) for i in range(12)]
    extra = ("--mode", "float", "--batch", "12", "--chunk", str(chunk))
    with toy_endpoint(transport, *extra, max_in_flight=12) as scorer_endpoint:
        with ExternalScorerClient(scorer_endpoint) as client:
            scores, errors = client.score_many(items)
    assert errors == {}
    assert scores == {request_id: float(text) for request_id, text, _ in items}


def test_timeout_surfaces_as_scorer_timeout():
    with ExternalScorerClient(endpoint("--drop-substring", "poison", timeout=0.4)) as client:
        with pytest.raises(ScorerTimeout):
            client.score("gone", "poison pill")
        # the stream still works for later requests
        assert isinstance(client.score("ok", "fine"), float)


def test_score_many_reports_per_item_errors_after_retries():
    items = [("good", "0.5", None), ("bad", "poison", None)]
    with ExternalScorerClient(endpoint("--mode", "float", "--drop-substring", "poison", timeout=0.4)) as client:
        scores, errors = client.score_many(items)
    assert scores == {"good": 0.5}
    assert set(errors) == {"bad"}


@pytest.mark.parametrize("mode", ["nan", "inf"])
def test_non_finite_scores_are_protocol_errors_after_retries(mode):
    items = [(f"p{i}", "text", None) for i in range(8)]  # inf mode answers each of its four spellings twice
    with ExternalScorerClient(endpoint("--mode", mode)) as client:
        scores, errors = client.score_many(items)
    assert scores == {}
    assert set(errors) == {item[0] for item in items}
    assert all("has no finite numeric score" in message for message in errors.values())


def test_score_many_rejects_duplicate_ids_before_sending(monkeypatch):
    items = [("a", "0.1", None), ("b", "0.2", None), ("a", "0.3", None)]
    with ExternalScorerClient(endpoint("--mode", "float")) as client:
        sent = []
        send = client._send
        monkeypatch.setattr(client, "_send", lambda obj: (sent.append(obj), send(obj)))
        with pytest.raises(ValueError, match="duplicate request id 'a'"):
            client.score_many(items)
        assert sent == []
        assert client.score_many(items[:2]) == ({"a": 0.1, "b": 0.2}, {})
    assert [obj["id"] for obj in sent] in (["a", "b"], ["b", "a"])


def test_fit_handshake_accept_and_reject():
    with ExternalScorerClient(endpoint("--fit", "accept")) as client:
        assert client.fit([{"text": "a", "parent": None, "target": 0.1}]) is True
    with ExternalScorerClient(endpoint("--fit", "reject")) as client:
        assert client.fit([{"text": "a", "parent": None, "target": 0.1}]) is False


def test_fit_handshake_ignored_means_inference_only():
    with ExternalScorerClient(endpoint("--fit", "ignore", timeout=0.4)) as client:
        assert client.fit([{"text": "a", "parent": None, "target": 0.1}]) is False


def test_unreachable_command_raises():
    with pytest.raises(ScorerError, match="unreachable"):
        ExternalScorerClient(ScorerEndpoint(command=("/nonexistent/scorer-binary",)))


def test_a_scorer_command_needs_posix(monkeypatch):
    # simulated: os.name as a non-POSIX system reports it
    monkeypatch.setattr(scorer.os, "name", "nt")
    with pytest.raises(ScorerError, match="needs a POSIX system"):
        ExternalScorerClient(endpoint())


def test_unreachable_tcp_raises():
    with pytest.raises(ScorerError, match="unreachable"):
        ExternalScorerClient(ScorerEndpoint(address=("127.0.0.1", 1), timeout=1.0))


def test_tcp_transport_round_trip():
    with toy_endpoint("tcp", "--mode", "float") as tcp:
        with ExternalScorerClient(tcp) as client:
            assert client.score("x", "0.75") == 0.75


def test_closed_stream_fails_pending_requests():
    bad = ScorerEndpoint(command=(sys.executable, "-c", "pass"), timeout=5.0)
    client = ExternalScorerClient(bad)
    time.sleep(0.2)  # let the child exit
    with pytest.raises(ScorerError):
        client.score("r", "text")
    client.close()


def test_external_family_train_and_fit_flags():
    for answer, accepted in (("accept", True), ("reject", False)):
        model = train("external", ["some text"], [0.2], config=TrainConfig(external=endpoint("--fit", answer)))
        model.close()
        assert model.fit_accepted is accepted


def test_external_family_scores_batches():
    config = TrainConfig(external=endpoint("--mode", "float"))
    model = train("external", ["0.3"], [0.3], config=config)
    preds = model.predict_batch(["0.1", "0.9", "-0.5"])
    model.close()
    assert preds.tolist() == [0.1, 0.9, -0.5]


def test_external_scores_clamped():
    config = TrainConfig(external=endpoint("--mode", "float"))
    model = train("external", ["0.3"], [0.3], config=config)
    assert model.predict_batch(["7.5"]).tolist() == [1.0]
    model.close()


def test_external_model_predicts_with_its_fit_through_one_process(scorer_processes):
    fitted = endpoint("--mode", "fitted", "--fit", "accept")
    model = train("external", ["a", "b"], [0.1, 0.5], config=TrainConfig(external=fitted))
    assert model.fit_accepted is True
    assert model.predict_batch(["x", "y"]).tolist() == pytest.approx([0.3, 0.3])
    assert model.predict_batch(["z"]).tolist() == pytest.approx([0.3])
    model.close()
    assert len(scorer_processes) == 1
    # a scorer that declined the fit has nothing to predict with
    unfitted = train("external", ["a"], [0.1], config=TrainConfig(external=endpoint("--mode", "fitted")))
    with pytest.raises(PredictionError, match="not fitted"):
        unfitted.predict_batch(["x"])
    unfitted.close()
