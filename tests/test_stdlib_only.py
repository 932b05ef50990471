import subprocess
import sys
import textwrap

from conftest import SRC


def test_library_imports_only_the_standard_library():
    # -S skips site-packages, so an import of anything installed fails too
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {SRC!r})
        import divgraph, divgraph.cli, divgraph.verify, divgraph.oracles, divgraph.corpus
        top = {{name.partition(".")[0] for name in sys.modules}} - {{"__main__"}}
        print(sorted(top - set(sys.stdlib_module_names) - {{"divgraph"}}))
    """)
    child = subprocess.run([sys.executable, "-S", "-c", script],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"
