"""Suppression-comment handling (``# repro-lint: disable=RULE``).

Three directive forms, parsed from comment tokens (so strings that
merely *contain* the directive text never suppress anything):

* ``# repro-lint: disable=R001`` — suppress the listed rules on the
  physical line carrying the comment (put it on the line the diagnostic
  points at: the ``for``/``raise``/``except`` line);
* ``# repro-lint: disable-next=R010`` — suppress on the following line;
* ``# repro-lint: disable-file=R004`` — on a line of its own, suppress
  the listed rules for the whole file.

The file-wide form is honored *only* when the comment starts its line
(nothing but whitespace before the ``#``): a ``disable-file`` trailing
some statement — e.g. a typo for ``disable`` — degrades to a same-line
``disable``, so it can never silently blank the rule for the whole file.

Rule lists are comma-separated; ``all`` matches every rule.  Unknown
rule ids are tolerated (they simply never match), so a suppression for
a rule that is later retired does not break the build.
"""

from __future__ import annotations

import io
import re
import tokenize

__all__ = ["SuppressionIndex"]

_DIRECTIVE = re.compile(
    r"repro-lint:\s*(?P<kind>disable(?:-next|-file)?)\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+)"
)


def _parse_rules(raw: str) -> frozenset[str]:
    return frozenset(part.strip() for part in raw.split(",") if part.strip())


class SuppressionIndex:
    """Per-file map from physical line to the rule ids suppressed there."""

    __slots__ = ("_by_line", "_file_wide")

    def __init__(
        self, by_line: dict[int, frozenset[str]], file_wide: frozenset[str]
    ) -> None:
        self._by_line = by_line
        self._file_wide = file_wide

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        by_line: dict[int, frozenset[str]] = {}
        file_wide: frozenset[str] = frozenset()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, SyntaxError, ValueError):
            # An untokenizable file will fail ast.parse too; the engine
            # reports that as its own diagnostic.
            return cls({}, frozenset())
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _DIRECTIVE.search(tok.string)
            if match is None:
                continue
            rules = _parse_rules(match.group("rules"))
            kind = match.group("kind")
            if kind == "disable-file":
                own_line = tok.line[: tok.start[1]].strip() == ""
                if own_line:
                    file_wide = file_wide | rules
                    continue
                kind = "disable"  # trailing form: same-line scope only
            line = tok.start[0] + (1 if kind == "disable-next" else 0)
            by_line[line] = by_line.get(line, frozenset()) | rules
        return cls(by_line, file_wide)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        active = self._file_wide | self._by_line.get(line, frozenset())
        return rule_id in active or "all" in active
