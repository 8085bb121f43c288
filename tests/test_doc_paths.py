"""Every repository path the docs and CI name exists in the checkout.

Deleting or moving a script must fail here until README.md, DESIGN.md,
EXPERIMENTS.md, ``benchmarks/README.md`` and the workflows stop naming
it — references cannot dangle.
"""

import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "benchmarks/README.md"]
PATH = re.compile(r"\b(?:src|tests|benchmarks|examples)/[\w./-]*\.(?:py|json|md|yml)\b")
#: Written by a run, not checked in.
GENERATED = ("benchmarks/results/", "benchmarks/suite/results/")


def test_documented_paths_exist():
    sources = DOCS + [
        os.path.relpath(path, ROOT)
        for path in glob.glob(os.path.join(ROOT, ".github", "workflows", "*.yml"))
    ]
    referenced, dangling = 0, []
    for source in sources:
        with open(os.path.join(ROOT, source)) as handle:
            for path in sorted(set(PATH.findall(handle.read()))):
                if path.startswith(GENERATED):
                    continue
                referenced += 1
                if not os.path.exists(os.path.join(ROOT, path)):
                    dangling.append("%s names %s" % (source, path))
    assert referenced > 20, "the pattern stopped matching anything"
    assert not dangling, "\n".join(dangling)
