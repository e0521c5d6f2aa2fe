"""The README's documented library usage and command lines run as written."""

import json
import math
import re
import shlex
from pathlib import Path

import qsink
from qsink.cli import EXIT_OK, SUBCOMMANDS, main

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", section("Library"), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 6 and all(math.isfinite(float(x)) for x in printed)


def test_readme_cli_examples_run(capsys, tmp_path):
    # the last sh block of the section holds the examples; the first is the synopsis
    block = re.findall(r"```sh\n(.*?)```", section("Command line"), flags=re.DOTALL)[-1]
    commands = [
        shlex.split(line)[1:]
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("qsink ")
    ]
    assert [argv[0] for argv in commands] == ["lifetime", "evolve", "optimal-state", "sinkhorn"]
    for argv in commands:
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        assert main(argv) == EXIT_OK, argv
        capsys.readouterr()
    assert (tmp_path / "trace.csv").exists()


def test_readme_config_file_runs_through_evolve(capsys, tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", section("Command line"), flags=re.DOTALL)
    assert len(blocks) == 1
    path = tmp_path / "job.json"
    path.write_text(blocks[0])
    assert main(["evolve", "--config", str(path)]) == EXIT_OK
    rows = capsys.readouterr().out.strip().split("\n")
    assert len(rows) == 1 + json.loads(blocks[0])["steps"]


def test_readme_modules_are_the_package_modules():
    # one bullet per module of src/qsink, so a deleted module leaves no entry behind
    library = section("Library")
    bullets = library.split("Modules:\n", 1)[1]
    named = re.findall(r"^\* `qsink\.(\w+)` —", bullets, flags=re.MULTILINE)
    modules = sorted(
        path.stem for path in Path(qsink.__file__).parent.glob("*.py") if path.stem != "__init__"
    )
    assert sorted(named) == modules
    assert len(named) == len(set(named))


def documented_keys(marker: str) -> list[str]:
    """The keys in the first column of the first table after marker, each written `key`."""
    after = section("Command line").split(marker, 1)[1]
    table = after.split("\n\n| key |", 1)[1].split("\n\n", 1)[0]
    rows = table.splitlines()[2:]  # past the header's rest and the rule
    return [key for row in rows for key in re.findall(r"`([\w.]+)`", row.split("|")[1])]


def printed_keys(record: dict, prefix: str = "") -> list[str]:
    """The keys of a JSON record, a nested object's keys as `outer.inner`."""
    keys = []
    for key, value in record.items():
        if isinstance(value, dict):
            keys += printed_keys(value, f"{prefix}{key}.")
        else:
            keys.append(prefix + key)
    return keys


def test_readme_lists_the_json_keys_the_commands_print(capsys):
    # a dropped or renamed key must not linger in the docs, nor a new one go unlisted
    for marker, argv in (
        ("`lifetime --format json` prints", ["lifetime", "--g1", "1", "--g2", "1",
                                             "--format", "json"]),
        ("`sinkhorn` prints", ["sinkhorn", "--gh1", "1", "--gv1", "5", "--g1", "1", "--t", "0.3"]),
    ):
        assert main(argv) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert documented_keys(marker) == printed_keys(record), argv


def test_readme_lists_the_config_keys_each_subcommand_reads():
    # the table of the config file's section, one row per subcommand or pair of them
    table = section("Command line").split("| subcommand | config keys |\n", 1)[1]
    documented = {}
    for row in table.split("\n\n", 1)[0].splitlines()[1:]:  # past the rule
        names, keys = row.split("|")[1:3]
        for name in re.findall(r"`([\w-]+)`", names):
            documented[name] = re.findall(r"`(\w+)`", keys)
    # validate reads no key, and so has no row
    assert documented == {name: list(keys) for name, (_, keys) in SUBCOMMANDS.items() if keys}
