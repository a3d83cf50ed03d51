"""tt_lint: the taxitrace repo-idiom and determinism-contract linter.

A small C++-aware static analyzer. A shared tokenizer
(comment/string/raw-string aware, with brace and angle-bracket
tracking) feeds multi-pass rule classes:

  pass 1  repo-wide fact collection (Status-returning functions,
          unordered-container declarations) over every file,
  pass 2  file-scope rules over each file's token stream,
  pass 3  repo-scope rules (test/example registration),
  pass 4  suppression + baseline resolution.

Entry points: `python3 scripts/tt_lint.py` (shim kept for CI/ctest) or
`python3 -m tt_lint` with scripts/ on sys.path. See
docs/ARCHITECTURE.md "Static analysis" for the rule catalogue, the
suppression policy, and how to add a rule.
"""

__version__ = "2.0"
