"""README is the one statement of fracsolve's public names.

No module declares ``__all__``: the layout table and "Library use" say what is
public. This test keeps that statement true. The first ``python`` block under
"## Library use" must run, and every ``fracsolve.<module>.<name>`` that README
names must resolve.
"""

import importlib
import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_library_use_runs_and_its_dotted_names_resolve(capsys):
    library_use = README.split("\n## Library use\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library_use, re.DOTALL).group(1)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("Converged ")

    dotted = sorted(set(re.findall(r"\bfracsolve\.(\w+)\.(\w+)", README)))
    assert len(dotted) >= 6
    missing = [f"fracsolve.{module}.{name}" for module, name in dotted
               if not hasattr(importlib.import_module(f"fracsolve.{module}"), name)]
    assert missing == []
