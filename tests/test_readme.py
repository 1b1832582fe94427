"""README's library example runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments():
    # the first python block under "## Library": each print's output is
    # the comment on its line, or the comment line that follows it
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    lines = code.splitlines()
    expected = []
    for line, after in zip(lines, lines[1:] + [""]):
        if line.startswith("print("):
            _, sep, comment = line.partition("#")
            if not sep:
                assert after.startswith("# "), line
                comment = after[1:]
            expected.append(comment.strip())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert len(expected) == 5
    assert out.getvalue().splitlines() == expected
