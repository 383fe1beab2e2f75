"""README's Python examples run as written and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_print_their_commented_values():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 3
    code = "\n".join(blocks)  # one namespace: later examples reuse earlier names
    want = re.findall(r"^print\(.*\)\s+# ([^\s:]+)", code, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "<README.md examples>", "exec"), {})
    assert out.getvalue().split() == want == ["0.0", "0.793", "1.0"]
