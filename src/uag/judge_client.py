"""Client for scoring corpora against an OpenAI-compatible judge endpoint.

The rubrics ask the judge for a JSON verdict; parsing is deliberately
tolerant of surrounding prose but strict about the score range.  Sample
texts only ever appear in the user message, numbered and delimited, so
they cannot alter the system rubric.  A failed request and an unusable
verdict both raise JudgeError.
"""

from __future__ import annotations

import http.client
import json
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

API_KEY_ENV = "UAG_JUDGE_API_KEY"
# The transport policy: each request times out after TIMEOUT_SECONDS, and
# a transport failure is retried MAX_RETRIES times, retry k after a sleep
# of BACKOFF_SECONDS * 2 ** (k - 1).
TIMEOUT_SECONDS = 30.0
MAX_RETRIES = 2
BACKOFF_SECONDS = 0.5

JUDGE_KINDS = ("diversity", "degeneration")

DIVERSITY_RUBRIC = """You are a text diversity evaluator.

Below are {count} numbered text samples. Your task is to assess how diverse they are in terms of perspective, style, plot structure, and language variation.

Your output must be a JSON object with:
- "diversity_score": a float between 0.0 and 1.0 (where 0 = all samples are nearly identical, and 1 = samples are maximally diverse)
- "justification": a one-sentence explanation of your reasoning

Scoring guidance:
- 0.0: All samples are structurally and semantically almost identical.
- 0.1-0.3: Slight variation in phrasing or detail, but mostly follow the same template.
- 0.4-0.6: Notable variation in perspective, tone, setting, or content development.
- 0.7-0.9: Substantial differences in narrative framing, imaginative detail, or genre shifts.
- 1.0: Samples are maximally different in form, function, and voice.

Return only a valid JSON object and nothing else."""

DEGENERATION_RUBRIC = """You are a strict judge of text degeneration.

Degeneration includes garbled tokens, random symbols, language mixing, nonsense, broken Unicode, repetitive babble, or clear loss of coherence.
Don't judge the repetitiveness across answers, assess the individual quality and average them.
Rate on 0.0~1.0: 0.0 clean/coherent, 1.0 severely degenerated.
Consider ALL provided answers jointly and set the score to reflect the average observed degeneration.
Return pure JSON: {score: <float>, reason: <short>}"""

_SCORE_KEYS = ("diversity_score", "score")


class JudgeError(Exception):
    """A judge request failed, or its reply holds no usable verdict."""


@dataclass(frozen=True)
class JudgeConfig:
    """Endpoint settings; the API key comes from the environment only."""

    base_url: str
    model_name: str
    api_key: str = field(default_factory=lambda: os.environ.get(API_KEY_ENV, ""))


def build_rubric_prompt(kind: str, samples) -> list[dict]:
    """System + user messages for one judging request.

    The rubric goes in the system message; numbered, delimited samples
    go in the user message only.
    """
    if kind not in JUDGE_KINDS:
        raise ValueError(f"unknown judge kind {kind!r}")
    if not samples:
        raise ValueError("samples must be nonempty")
    if kind == "diversity":
        system = DIVERSITY_RUBRIC.format(count=len(samples))
    else:
        system = DEGENERATION_RUBRIC
    blocks = []
    for i, text in enumerate(samples, start=1):
        blocks.append(f"--- Sample {i} ---\n{text}")
    return [
        {"role": "system", "content": system},
        {"role": "user", "content": "\n\n".join(blocks)},
    ]


def _first_json_object(text: str):
    """Decode the earliest well-formed JSON object found in the text."""
    decoder = json.JSONDecoder()
    for i, ch in enumerate(text):
        if ch != "{":
            continue
        try:
            parsed, _ = decoder.raw_decode(text, i)
        except (ValueError, RecursionError):  # ValueError: also an int too long to read
            continue
        if isinstance(parsed, dict):
            return parsed
    return None


def parse_judge_response(text: str) -> float:
    """The score of the first JSON verdict object in a judge reply.

    Accepts "diversity_score" or "score" for the value; anything outside
    [0, 1] is an error, not clamped.  The verdict's reason is not read.
    """
    obj = _first_json_object(text)
    if obj is None:
        raise JudgeError("no JSON object in judge response")
    score = next((obj[key] for key in _SCORE_KEYS if key in obj), None)
    if isinstance(score, bool) or not isinstance(score, (int, float)):
        raise JudgeError("judge response lacks a numeric score key")
    if not 0 <= score <= 1:  # before float(), which overflows on a huge int
        raise JudgeError(f"score {score} outside [0, 1]")
    return float(score)


def judge_corpus(cfg: JudgeConfig, kind: str, samples) -> float:
    """POST the rubric payload and return the verdict's score.

    Transport failures (connection errors, timeouts, HTTP 429/5xx) are
    retried with exponential backoff up to MAX_RETRIES times; any other
    failure raises at once.
    """
    url = cfg.base_url.rstrip("/") + "/chat/completions"
    body = {
        "model": cfg.model_name,
        "messages": build_rubric_prompt(kind, samples),
        "temperature": 0,
    }
    data = json.dumps(body).encode("utf-8")
    headers = {
        "Authorization": f"Bearer {cfg.api_key}",
        "Content-Type": "application/json",
    }
    last_error = None
    for attempt in range(MAX_RETRIES + 1):
        if attempt > 0:
            time.sleep(BACKOFF_SECONDS * 2 ** (attempt - 1))
        request = urllib.request.Request(url, data=data, headers=headers,
                                         method="POST")
        try:
            with urllib.request.urlopen(request, timeout=TIMEOUT_SECONDS) as resp:
                status, payload = resp.status, resp.read()
        except urllib.error.HTTPError as exc:  # any non-2xx status
            with exc:
                status, payload = exc.code, exc.read()
        except (OSError, http.client.HTTPException) as exc:
            # connection errors and timeouts (URLError is an OSError)
            last_error = exc
            continue
        if status == 429 or status >= 500:
            last_error = f"judge endpoint returned {status}"
            continue
        if status != 200:
            text = payload.decode("utf-8", errors="replace")
            raise JudgeError(f"judge endpoint returned {status}: {text[:200]}")
        try:
            content = json.loads(payload)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise JudgeError(f"malformed completion envelope: {exc}") from exc
        if not isinstance(content, str):
            raise JudgeError(f"malformed completion envelope: content {content!r}")
        return parse_judge_response(content)
    raise JudgeError(
        f"judge request failed after {MAX_RETRIES + 1} attempts: {last_error}")
