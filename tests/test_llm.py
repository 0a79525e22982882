from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from types import SimpleNamespace

import pytest
import requests

from tcmrag.llm import (CannedChatProvider, CleaningError, FnChatProvider, GenerationParams,
                        HttpChatProvider, canonical_messages, complete, extract_fields,
                        generate_answer, messages_digest, split_cases)
from tcmrag.prompt import AnswerParseError, PromptBundle, parse_answer
from tcmrag.transport import PermanentError, TransientError


@dataclass
class ScriptedProvider:
    """Yields scripted (text, finish_reason) results or raises scripted exceptions."""
    script: list
    calls: list = field(default_factory=list)

    def send(self, messages, params):
        self.calls.append(list(messages))
        step = self.script[len(self.calls) - 1]
        if isinstance(step, Exception):
            raise step
        return step


# ---------------------------------------------------------------------------
# Message canonicalization and the canned provider
# ---------------------------------------------------------------------------

def test_canonical_messages_is_stable_json():
    msgs = [("system", "s"), ("user", "你好")]
    text = canonical_messages(msgs)
    assert json.loads(text) == [{"role": "system", "content": "s"},
                                {"role": "user", "content": "你好"}]
    assert "你好" in text  # not ASCII-escaped
    assert messages_digest(msgs) == messages_digest(list(msgs))
    assert messages_digest(msgs) != messages_digest([("system", "s"), ("user", "x")])


def test_canned_provider_roundtrip(tmp_path):
    msgs = [("system", "s"), ("user", "u")]
    canned = {messages_digest(msgs): "scripted reply"}
    path = tmp_path / "canned.json"
    path.write_text(json.dumps(canned), encoding="utf-8")
    provider = CannedChatProvider.from_file(path)
    assert provider.send(msgs, GenerationParams()) == ("scripted reply", "stop")
    with pytest.raises(PermanentError, match="no canned response"):
        provider.send([("user", "other")], GenerationParams())


def test_canned_file_with_a_lone_surrogate_is_refused_naming_the_file(tmp_path):
    """json.dumps escapes "\\ud800", and loading the file decodes the escape to the lone
    surrogate itself, which no report or printed answer can encode."""
    path = tmp_path / "canned.json"
    path.write_text(json.dumps({"d1": "ok", "d2": "回答\ud800"}), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: a canned response holds "
                                         r"a lone surrogate$"):
        CannedChatProvider.from_file(path)


def test_generation_params_validation():
    assert GenerationParams().temperature == 0.0
    with pytest.raises(ValueError):
        GenerationParams(temperature=-0.1)


# ---------------------------------------------------------------------------
# complete(): retry policy
# ---------------------------------------------------------------------------

MSGS = [("system", "s"), ("user", "u")]


def test_complete_returns_text_and_counts_one_request(slept):
    warnings: list[str] = []
    provider = ScriptedProvider([("hi", "stop")])
    assert complete(provider, MSGS, warnings) == "hi"
    assert len(provider.calls) == 1 and slept == [] and warnings == []


def test_complete_retries_transient_then_succeeds(slept):
    provider = ScriptedProvider([TransientError("503"), TransientError("down"),
                                 ("ok", "stop")])
    assert complete(provider, MSGS, []) == "ok"
    assert len(provider.calls) == 3
    assert slept == [1.0, 2.0]


def test_complete_exhausts_retries(slept):
    provider = ScriptedProvider([TransientError("x")] * 4)
    with pytest.raises(TransientError, match="after 3 retries"):
        complete(provider, MSGS, [])
    assert len(provider.calls) == 4
    assert slept == [1.0, 2.0, 4.0]


def test_complete_permanent_error_never_retries(slept):
    provider = ScriptedProvider([PermanentError("HTTP 401")])
    with pytest.raises(PermanentError, match="401"):
        complete(provider, MSGS, [])
    assert len(provider.calls) == 1 and slept == []


def test_complete_flags_truncated_finish_reason():
    warnings = ["earlier"]
    provider = ScriptedProvider([("partial", "length"), ("whole", ""), ("whole", "stop")])
    assert complete(provider, MSGS, warnings) == "partial"
    assert warnings == ["earlier", "completion flagged finish_reason='length'"]
    for _ in range(2):  # finish reasons "" and "stop" are not flagged
        assert complete(provider, MSGS, warnings) == "whole"
    assert len(warnings) == 2


def test_complete_rejects_bad_message_lists():
    provider = ScriptedProvider([("x", "stop")])
    with pytest.raises(ValueError):
        complete(provider, [], [])
    with pytest.raises(ValueError):
        complete(provider, [("assistant", "x")], [])


def test_http_provider_error_mapping(monkeypatch):
    class Resp:
        def __init__(self, status_code, payload=None):
            self.status_code = status_code
            self._payload = payload

        def json(self):
            if self._payload is None:
                raise ValueError("no body")
            return self._payload

    provider = HttpChatProvider(url="http://x", model="m")

    monkeypatch.setattr(requests, "post", lambda *a, **k: Resp(429))
    with pytest.raises(PermanentError, match="http://x: HTTP 429"):
        provider.send(MSGS, GenerationParams())

    monkeypatch.setattr(requests, "post", lambda *a, **k: Resp(500))
    with pytest.raises(TransientError, match="http://x: server failure: HTTP 500"):
        provider.send(MSGS, GenerationParams())

    malformed = [{"unexpected": 1}] + [{"choices": [{"message": {"content": content}}]}
                                       for content in (None, 7, ["x"])]
    for payload in malformed:
        monkeypatch.setattr(requests, "post", lambda *a, **k: Resp(200, payload))
        with pytest.raises(TransientError, match="malformed"):
            provider.send(MSGS, GenerationParams())

    payload = {"choices": [{"message": {"content": "回答"}, "finish_reason": "stop"}]}
    monkeypatch.setattr(requests, "post", lambda *a, **k: Resp(200, payload))
    assert provider.send(MSGS, GenerationParams()) == ("回答", "stop")


def test_http_reply_holding_a_lone_surrogate_is_a_malformed_body(monkeypatch):
    """The body's JSON escape "\\ud800" decodes to the lone surrogate itself."""
    payload = {"choices": [{"message": {"content": "回答\ud800"}, "finish_reason": "stop"}]}
    monkeypatch.setattr(requests, "post", lambda *a, **k: SimpleNamespace(
        status_code=200, json=lambda: payload))
    with pytest.raises(TransientError, match="http://x: malformed response body: .*message "
                                             "content holds a lone surrogate"):
        HttpChatProvider(url="http://x", model="m").send(MSGS, GenerationParams())


# ---------------------------------------------------------------------------
# split_cases(): format repair and coverage guard
# ---------------------------------------------------------------------------

BLOB = "某男，胃痛三年。处以柴胡疏肝散。又某女，头晕一月。处以天麻钩藤饮。"


def test_split_cases_happy_path():
    pieces = ["某男，胃痛三年。处以柴胡疏肝散。", "又某女，头晕一月。处以天麻钩藤饮。"]
    provider = ScriptedProvider([(json.dumps(pieces, ensure_ascii=False), "stop")])
    assert split_cases(provider, BLOB, []) == pieces


def test_split_cases_repairs_malformed_output_once():
    pieces = ["某男，胃痛三年。处以柴胡疏肝散。", "又某女，头晕一月。处以天麻钩藤饮。"]
    provider = ScriptedProvider([("抱歉，这里没有数组。", "stop"),
                                 (json.dumps(pieces, ensure_ascii=False), "stop")])
    assert split_cases(provider, BLOB, []) == pieces
    assert len(provider.calls) == 2
    # the repair turn carries the previous bad output back to the model
    assert provider.calls[1][2] == ("assistant", "抱歉，这里没有数组。")


def test_split_cases_second_malformed_output_fails():
    provider = ScriptedProvider([("没有", "stop"), ("还是没有", "stop")])
    with pytest.raises(CleaningError, match="no JSON array"):
        split_cases(provider, BLOB, [])


def test_split_cases_coverage_guard_rejects_rewrites():
    # a 40%-coverage paraphrase must be refused even though it is a valid array
    rewritten = ["男性患者胃部不适。", "女性患者眩晕。"]
    provider = ScriptedProvider([(json.dumps(rewritten, ensure_ascii=False), "stop")])
    with pytest.raises(CleaningError, match="coverage guard"):
        split_cases(provider, BLOB, [])


def test_split_cases_coverage_ignores_whitespace():
    pieces = ["某男，胃痛三年。 处以柴胡疏肝散。", "又某女，头晕一月。处以天麻钩藤饮。\n"]
    provider = ScriptedProvider([(json.dumps(pieces, ensure_ascii=False), "stop")])
    got = split_cases(provider, BLOB, [])
    assert got[1] == "又某女，头晕一月。处以天麻钩藤饮。"


def test_split_cases_rejects_empty_strings():
    provider = ScriptedProvider([(json.dumps(["ok", " "]), "stop")])
    with pytest.raises(CleaningError, match="non-empty"):
        split_cases(provider, BLOB, [])


# ---------------------------------------------------------------------------
# extract_fields()
# ---------------------------------------------------------------------------

RAW_CASE = "某男，45岁。症见胃脘胀痛，嗳气吞酸。病机为肝气犯胃。证属肝胃不和。"


def extraction(**overrides):
    obj = {
        "patient_background": "某男，45岁。",
        "clinical_info": "症见胃脘胀痛，嗳气吞酸。",
        "pathogenesis": "肝气犯胃",
        "syndromes": ["肝胃不和"],
        "doctor_notes": "",
    }
    obj.update(overrides)
    return json.dumps(obj, ensure_ascii=False)


def test_extract_fields_happy_path():
    provider = ScriptedProvider([(extraction(), "stop")])
    case = extract_fields(provider, RAW_CASE, [])
    assert case.case_id == ""
    assert case.raw_text == RAW_CASE
    assert case.clinical_info == "症见胃脘胀痛，嗳气吞酸。"
    assert case.syndromes == ["肝胃不和"]


def test_extract_fields_optional_fields_default_empty():
    provider = ScriptedProvider([(extraction(patient_background=None, pathogenesis=None,
                                             syndromes=None, doctor_notes=None), "stop")])
    case = extract_fields(provider, RAW_CASE, [])
    assert case.patient_background == ""
    assert case.pathogenesis == ""
    assert case.syndromes == []


def test_extract_fields_requires_clinical_info():
    provider = ScriptedProvider([(extraction(clinical_info="  "), "stop")])
    with pytest.raises(CleaningError, match="clinical_info"):
        extract_fields(provider, RAW_CASE, [])


def test_extract_fields_repairs_once():
    provider = ScriptedProvider([("无结构输出", "stop"), (extraction(), "stop")])
    case = extract_fields(provider, RAW_CASE, [])
    assert case.clinical_info
    assert len(provider.calls) == 2


def test_extract_fields_bad_syndromes_type():
    provider = ScriptedProvider([(extraction(syndromes="肝胃不和"), "stop")])
    with pytest.raises(CleaningError, match="syndromes"):
        extract_fields(provider, RAW_CASE, [])


# ---------------------------------------------------------------------------
# generate_answer(): one repair retry
# ---------------------------------------------------------------------------

@dataclass
class Item:
    case_text: str = "病案。"
    pathogenesis_options: list = field(default_factory=lambda: ["肝气犯胃"])
    syndrome_options: list = field(default_factory=lambda: ["肝胃不和证"])


def bundle() -> PromptBundle:
    return PromptBundle(system_text="系统", user_text="用户")


GOOD = json.dumps({"clinical_features": [], "pathogenesis": ["肝气犯胃"],
                   "syndromes": ["肝胃不和证"], "reasoning": "r"}, ensure_ascii=False)


def test_generate_answer_no_repair_when_parse_succeeds():
    provider = ScriptedProvider([(GOOD, "stop")])
    warnings: list[str] = []
    answer = generate_answer(provider, bundle(), Item(), warnings)
    assert answer == parse_answer(GOOD, Item())[0] and warnings == []
    assert len(provider.calls) == 1


def test_generate_answer_repairs_once_and_appends_error():
    provider = ScriptedProvider([("不是JSON", "stop"), (GOOD, "stop")])
    answer = generate_answer(provider, bundle(), Item(), [])
    assert answer.syndromes == ["肝胃不和证"]
    assert len(provider.calls) == 2
    repair_msgs = provider.calls[1]
    assert repair_msgs[2] == ("assistant", "不是JSON")
    assert repair_msgs[3][0] == "user" and "无法解析" in repair_msgs[3][1]


def test_generate_answer_raises_second_parse_error():
    provider = ScriptedProvider([("坏1", "stop"), ("坏2", "stop")])
    with pytest.raises(AnswerParseError, match="no JSON object"):
        generate_answer(provider, bundle(), Item(), [])
    assert len(provider.calls) == 2


FLAGGED = "completion flagged finish_reason='length'"


def test_a_truncated_reply_is_flagged_before_its_parse_warnings():
    # an option the item does not offer is dropped with a parse warning
    reply = GOOD.replace("肝胃不和证", "未列证型")
    warnings: list[str] = []
    answer = generate_answer(ScriptedProvider([(reply, "length")]), bundle(), Item(), warnings)
    assert answer.syndromes == []
    assert warnings[0] == FLAGGED and len(warnings) == 2


@pytest.mark.parametrize("second", [("坏2", "length"), PermanentError("HTTP 401")],
                         ids=["unparseable", "provider error"])
def test_a_truncated_reply_is_flagged_before_a_later_error_is_raised(second):
    warnings: list[str] = []
    provider = ScriptedProvider([("坏1", "length"), second])
    with pytest.raises((AnswerParseError, PermanentError)):
        generate_answer(provider, bundle(), Item(), warnings)
    assert warnings == [FLAGGED] * (1 + isinstance(second, tuple))


def test_cleaning_steps_flag_truncated_replies():
    pieces = ["某男，胃痛三年。处以柴胡疏肝散。", "又某女，头晕一月。处以天麻钩藤饮。"]
    provider = ScriptedProvider([(json.dumps(pieces, ensure_ascii=False), "length"),
                                 ("无结构输出", "length"), (extraction(), "stop")])
    warnings: list[str] = []
    assert split_cases(provider, BLOB, warnings) == pieces
    assert extract_fields(provider, pieces[0], warnings).clinical_info
    assert warnings == [FLAGGED, FLAGGED]


def test_fn_provider_is_deterministic():
    provider = FnChatProvider(fn=lambda msgs: msgs[-1][1].upper())
    assert provider.send([("user", "abc")], GenerationParams()) == ("ABC", "stop")
