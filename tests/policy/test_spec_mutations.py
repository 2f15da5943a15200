"""Malformed spec texts fail with a ``ReproError``, never a traceback.

A fixed-seed run of line mutations over the Figure-9 spec texts: insert
a token, delete a few characters, duplicate a line, shuffle a line's
words.  Half the mutations land on a constraint line (``assume``,
``requires``), the densest grammar in a spec.  Every failure of
``parse_spec`` must be a :class:`~repro.errors.ReproError`.
"""

import random

from repro import parse_spec
from repro.errors import ReproError

SEED = 0
MUTANTS = 3_000

#: Keywords and punctuation of the spec language, drawn for half the
#: token insertions (the other half reuse a word of the spec texts).
GRAMMAR_TOKENS = [
    "mod", "and", "or", "(", ")", ">=", "==", "=", "<", "-", "+", "*",
    "0", "1", "4", "-1", "null", ":", "{", "}", "[", "]", ",", "ptr",
    "int", "struct", "perms", "region", "summary", "loc", "rule",
    "invoke", "assume", "function", "param", "requires", "returns",
    "clobbers", "type",
]


def _spec_texts():
    from repro.programs import all_programs
    return sorted({p.spec_text for p in all_programs()})


def _mutate(rng, text, words):
    lines = text.split("\n")
    constraints = [i for i, line in enumerate(lines)
                   if line.split()[:1] in (["assume"], ["requires"])]
    if constraints and rng.random() < 0.5:
        i = rng.choice(constraints)
    else:
        i = rng.randrange(len(lines))
    line = lines[i]
    kind = rng.randrange(4)
    if kind == 0:
        parts = line.split(" ")
        token = rng.choice(GRAMMAR_TOKENS if rng.random() < 0.5
                           else words)
        parts.insert(rng.randrange(len(parts) + 1), token)
        lines[i] = " ".join(parts)
    elif kind == 1 and line:
        start = rng.randrange(len(line))
        lines[i] = line[:start] + line[start + rng.randint(1, 4):]
    elif kind == 2:
        lines.insert(i, line)
    else:
        parts = line.split()
        rng.shuffle(parts)
        lines[i] = " ".join(parts)
    return "\n".join(lines)


def test_mutated_specs_fail_only_with_repro_errors():
    texts = _spec_texts()
    words = sorted({word for text in texts for word in text.split()})
    rng = random.Random(SEED)
    crashes = []
    rejected = 0
    for __ in range(MUTANTS):
        text = rng.choice(texts)
        for __ in range(rng.randint(1, 3)):
            text = _mutate(rng, text, words)
        try:
            parse_spec(text)
        except ReproError:
            rejected += 1
        except Exception as exc:  # noqa: BLE001 - the defect under test
            crashes.append("%s: %s\n%s" % (type(exc).__name__, exc, text))
    assert not crashes, crashes[0]
    # The mutations exercise the error paths, not only harmless edits.
    assert rejected > MUTANTS // 10
