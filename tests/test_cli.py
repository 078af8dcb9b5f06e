import copy
import json
import math
import operator
import re
import tempfile
from functools import cache, reduce
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_corpus
from fake_llm import FakeLlm, question_text

from cama.cli import main
from cama.client import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_TEMPERATURE,
    ChatRequest,
    HttpChatClient,
    RecordingClient,
)
from cama.config import (
    _ALIGN_KEYS,
    _SCALAR_KEYS,
    Config,
    build_client,
    load_config,
    parse_config_text,
)
from cama.discovery import DEFAULT_ALPHA, DEFAULT_MAX_COND_SIZE
from cama.errors import ConfigError
from cama.graph import Mcg, load_graph, save_graph
from cama.learning import AlignmentConfig, extract_all
from cama.matrix import load_incidence_csv
from cama.model import KnowledgePoint, QaRecord, save_qa_records
from cama.reasoning import answer_question, evaluate


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in ("CAMA_API_BASE", "CAMA_API_KEY", "CAMA_MODEL"):
        monkeypatch.delenv(var, raising=False)


def test_no_network_refuses_a_default_http_client(no_network):
    client = HttpChatClient(api_base="http://localhost:9", model="m")
    with pytest.raises(AssertionError, match="network access attempted"):
        client.complete(ChatRequest(prompt="hi", tag="p_t"))


FLIP = 0.02
FORK_SCENARIO = {
    "nodes": ["area", "cylinder", "cone"],
    "parents": {"area": [], "cylinder": ["area"], "cone": ["area"]},
    "cpt": {
        "area": [[0.5, 0.5]],
        "cylinder": [[1 - FLIP, FLIP], [FLIP, 1 - FLIP]],
        "cone": [[1 - FLIP, FLIP], [FLIP, 1 - FLIP]],
    },
}


class ConfigBuilt(Exception):
    """Stops a command once it has built its Config."""


# the positional arguments of each command that reads a config, and the
# settings flags it takes
COMMAND_SETTINGS = {
    "build-dataset": (["in"], ("config", "run_dir", "mode", "transcript")),
    "learn": (["in"], ("config", "run_dir", "lambda", "alpha", "seed", "mode", "transcript")),
    "discover": (["in"], ("config", "run_dir", "alpha")),
    "answer": (["in", "q?"], ("config", "run_dir", "mode", "transcript")),
    "evaluate": (["in", "in"], ("config", "run_dir", "repetitions", "mode", "transcript")),
}
# each settings flag: its arguments, what the Config reads of it, the value
SETTING_CASES = {
    "config": (["--config", "cama.conf"], lambda cfg: cfg.max_cond_size, 2),
    "run_dir": (["--run-dir", "out"], lambda cfg: cfg.run_dir, Path("out")),
    "lambda": (["--lambda", "3"], lambda cfg: cfg.granularity, 3),
    "alpha": (["--alpha", "0.01"], lambda cfg: cfg.alpha, 0.01),
    "seed": (["--seed", "7"], lambda cfg: cfg.alignment.seed, 7),
    "repetitions": (["--repetitions", "2"], lambda cfg: cfg.repetitions, 2),
    "mode": (["--mode", "replay"], lambda cfg: cfg.transcript_mode, "replay"),
    "transcript": (["--transcript", "t.jsonl"], lambda cfg: cfg.transcript_path, Path("t.jsonl")),
}
UNREAD_FLAGS = [
    (command, key)
    for command, (_, keys) in COMMAND_SETTINGS.items()
    for key in SETTING_CASES
    if key not in keys
]


class TestConfig:
    def test_parse_file_and_env_override(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "cama.conf"
        cfg_file.write_text(
            "# comment\n"
            'api_base = "http://file.example/v1"\n'
            "lambda = 4\n"
            "alpha = 0.01\n"
            "alignment.s_b = 2\n"
            "alignment.c_stop = 5\n"
        )
        monkeypatch.setenv("CAMA_API_BASE", "http://env.example/v1")
        cfg = load_config(cfg_file)
        assert cfg.api_base == "http://env.example/v1"  # env beats file
        assert cfg.granularity == 4
        assert cfg.alpha == 0.01
        assert cfg.alignment.s_b == 2
        assert cfg.alignment.c_stop == 5

    def test_hash_inside_quotes_is_kept(self, tmp_path):
        cfg_file = tmp_path / "cama.conf"
        cfg_file.write_text(
            'api_base = "http://h/v1#x"  # the gateway\n'
            "model = m#1 # an unquoted hash starts a comment\n"
        )
        cfg = load_config(cfg_file)
        assert cfg.api_base == "http://h/v1#x"
        assert cfg.model == "m"
        cfg_file.write_text('api_base = "http://h/v1 # unclosed\n')
        with pytest.raises(ConfigError, match="line 1 has an unclosed quote"):
            load_config(cfg_file)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.conf"
        cfg_file.write_text("mystery_knob = 1\n")
        with pytest.raises(ConfigError):
            load_config(cfg_file)

    def test_seed_propagates_to_alignment(self):
        cfg = load_config(None, seed=99)
        assert cfg.alignment.seed == 99

    def test_seed_flag_beats_file(self, tmp_path):
        cfg_file = tmp_path / "cama.conf"
        cfg_file.write_text("seed = 3\n")
        assert load_config(cfg_file).alignment.seed == 3
        assert load_config(cfg_file, seed=5).alignment.seed == 5

    def test_alignment_seed_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cama.conf"
        cfg_file.write_text("alignment.seed = 3\n")
        with pytest.raises(ConfigError, match="unknown config key 'alignment.seed'"):
            load_config(cfg_file, seed=5)

    def test_missing_credential_names_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAMA_API_BASE", "http://api.example")
        monkeypatch.setenv("CAMA_MODEL", "m1")
        cfg = load_config(None, mode="live")
        with pytest.raises(ConfigError) as err:
            build_client(cfg)
        assert "CAMA_API_KEY" in str(err.value)

    def test_replay_requires_transcript(self, tmp_path):
        cfg = load_config(None, mode="replay", run_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            build_client(cfg)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, mode="offline")

    def test_defaults_come_from_config(self):
        assert load_config(None) == Config()
        assert (Config().alpha, Config().max_cond_size) == (DEFAULT_ALPHA, DEFAULT_MAX_COND_SIZE)
        assert Config().temperature == DEFAULT_TEMPERATURE

    def test_readme_table_defaults_match_the_code(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        rows = dict(re.findall(r"^\| `([\w.]+)` \| `(-?[\d.]+)` \|", readme, re.M))
        assert set(rows) == {
            "lambda", "alpha", "max_cond_size", "temperature", "in_flight_limit", "repetitions",
            "seed", "alignment.s_b", "alignment.n_e", "alignment.r", "alignment.c_stop",
        }
        cfg, align = Config(), AlignmentConfig()

        def default(key):
            # `seed` is the alignment seed's default; Config has no field of its own
            if key.startswith("alignment.") or key == "seed":
                return getattr(align, key.removeprefix("alignment."))
            return getattr(cfg, {"lambda": "granularity"}.get(key, key))

        assert {key: float(cell) for key, cell in rows.items()} == {key: default(key) for key in rows}

    def test_readme_table_keys_are_the_parsers_keys(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("| Key | Default | Flag | Meaning |")[1].split("\n\n")[0]
        keys = re.findall(r"^\| `([\w.]+)` \|", table, re.M)
        accepted = set(_SCALAR_KEYS) | {f"alignment.{key}" for key in _ALIGN_KEYS}
        assert sorted(keys) == sorted(accepted)
        for key in keys:
            parse_config_text(f"{key} = 1\n")

    def test_renamed_keys_map_to_fields(self, tmp_path):
        cfg_file = tmp_path / "cama.conf"
        cfg_file.write_text(
            "lambda = 5\nmode = replay\ntranscript = t.jsonl\nrun_dir = out\n"
            "temperature = 0.2\nin_flight_limit = 2\nmax_cond_size = 0\n"
        )
        cfg = load_config(cfg_file)
        assert (cfg.granularity, cfg.transcript_mode) == (5, "replay")
        assert (cfg.transcript_path, cfg.run_dir) == (Path("t.jsonl"), Path("out"))
        assert (cfg.temperature, cfg.in_flight_limit, cfg.max_cond_size) == (0.2, 2, 0)

    def test_negative_max_cond_size_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="max_cond_size"):
            Config(max_cond_size=-1)
        cfg_file = tmp_path / "cama.conf"
        cfg_file.write_text("max_cond_size = -1\n")
        with pytest.raises(ConfigError, match="max_cond_size"):
            load_config(cfg_file)

    def test_max_cond_size_over_thirty_rejected(self, tmp_path):
        # the G-squared test takes at most 30 conditioning columns
        assert Config(max_cond_size=30).max_cond_size == 30
        with pytest.raises(ConfigError, match=r"max_cond_size must lie in \[0, 30\]"):
            Config(max_cond_size=31)
        cfg_file = tmp_path / "cama.conf"
        cfg_file.write_text("max_cond_size = 31\n")
        with pytest.raises(ConfigError, match="max_cond_size"):
            load_config(cfg_file)

    @pytest.mark.parametrize("raw", ["nan", "inf", "1e999", "-inf"])
    def test_non_finite_temperature_rejected(self, tmp_path, raw):
        with pytest.raises(ConfigError, match="temperature must be finite"):
            Config(temperature=float(raw))
        cfg_file = tmp_path / "cama.conf"
        cfg_file.write_text(f"temperature = {raw}\n")
        with pytest.raises(ConfigError, match="temperature must be finite"):
            load_config(cfg_file)

    def test_gateway_gets_temperature_and_in_flight_limit(self, monkeypatch):
        monkeypatch.setenv("CAMA_API_KEY", "secret")
        cfg = load_config(
            None, api_base="http://api.example", model="m1", temperature=0.1, in_flight_limit=2
        )
        client = build_client(cfg)
        assert isinstance(client, HttpChatClient)
        assert (client.temperature, client.in_flight_limit) == (0.1, 2)
        assert client.max_retries == DEFAULT_MAX_RETRIES

    @pytest.mark.parametrize("command", COMMAND_SETTINGS)
    def test_every_settings_flag_reaches_the_config(self, runner, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        Path("in").write_text("")
        Path("cama.conf").write_text("max_cond_size = 2\n")
        built = []

        def spy(*args, **overrides):
            built.append(load_config(*args, **overrides))
            raise ConfigBuilt

        monkeypatch.setattr("cama.cli.load_config", spy)
        arguments, keys = COMMAND_SETTINGS[command]
        flags = [part for key in keys for part in SETTING_CASES[key][0]]
        result = runner.invoke(main, [command, *arguments, *flags])
        assert isinstance(result.exception, ConfigBuilt), result.output
        [cfg] = built
        assert {key: SETTING_CASES[key][1](cfg) for key in keys} == {
            key: SETTING_CASES[key][2] for key in keys
        }

    @pytest.mark.parametrize("command, key", UNREAD_FLAGS)
    def test_flag_a_command_does_not_read_is_a_usage_error(
        self, runner, tmp_path, monkeypatch, command, key
    ):
        monkeypatch.chdir(tmp_path)
        Path("in").write_text("")
        arguments, _ = COMMAND_SETTINGS[command]
        flag = SETTING_CASES[key][0]
        result = runner.invoke(main, [command, *arguments, *flag])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert f"No such option '{flag[0]}'" in result.output
        assert "Traceback" not in result.output

    def test_readme_flags_are_the_commands_flags(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

        def flags(command):
            return {opt for param in command.params for opt in param.opts if opt.startswith("--")}

        commands = readme.split("| Command | Flags |")[1].split("\n\n")[0]
        rows = dict(re.findall(r"^\| `([\w-]+)` \| (.*) \|$", commands, re.M))
        assert rows.keys() == main.commands.keys()
        for name, cell in rows.items():
            assert set(re.findall(r"`(--[\w-]+)`", cell)) == flags(main.commands[name]), name
        # a config key's flag is taken by exactly the commands that read a config
        table = readme.split("| Key | Default | Flag | Meaning |")[1].split("\n\n")[0]
        cells = dict(re.findall(r"^\| `[\w.]+` \| [^|]* \| `(--[\w-]+)` \(([^)]*)\) \|", table, re.M))
        assert cells.keys() == {args[0] for args, _, _ in SETTING_CASES.values()} - {"--config"}
        for flag, cell in cells.items():
            taking = {name for name, c in main.commands.items() if {"--config", flag} <= flags(c)}
            assert set(re.findall(r"`([\w-]+)`", cell)) == taking, flag

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match="config key 'alpha' repeated \\(line 2\\)"):
            parse_config_text("alpha = 0.01\nalpha = 0.01\n")
        with pytest.raises(ConfigError, match="config key 'alignment.r' repeated"):
            parse_config_text("alignment.r = 2\nalignment.s_b = 2\nalignment.r = 3\n")

    @pytest.mark.parametrize("line", ["run_dir = a\0b", "transcript = \"t\0.jsonl\"", "\0lambda = 3"])
    def test_nul_character_rejected(self, tmp_path, line):
        cfg_file = tmp_path / "cama.conf"
        cfg_file.write_text(f"alpha = 0.01\n{line}\n")
        with pytest.raises(ConfigError, match="config line 2 holds a NUL character"):
            load_config(cfg_file)


class TestDiscoverCommand:
    def test_fork_matrix_recovers_area_edges(self, runner, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(FORK_SCENARIO))
        result = runner.invoke(
            main, ["synth", str(scenario), "--rows", "5000", "--seed", "3",
                   "--out-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output

        out_graph = tmp_path / "graph.json"
        result = runner.invoke(
            main,
            ["discover", str(tmp_path / "incidence.csv"), "--alpha", "0.05",
             "--out", str(out_graph), "--run-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        g = load_graph(out_graph)
        keys = {p.key: i for i, p in enumerate(g.nodes)}
        area, cylinder, cone = keys["area"], keys["cylinder"], keys["cone"]
        pairs = {frozenset(e) for e in g.directed | g.undirected}
        assert frozenset((area, cylinder)) in pairs
        assert frozenset((area, cone)) in pairs
        assert frozenset((cylinder, cone)) not in pairs

    def test_synth_true_cpdag_artifact(self, runner, tmp_path):
        from cama.graph import graphs_equal

        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(FORK_SCENARIO))
        result = runner.invoke(
            main, ["synth", str(scenario), "--rows", "50", "--out-dir", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        stored = load_graph(tmp_path / "true_cpdag.json")
        # the fork's CPDAG, built here so the check does not go through
        # load_scenario: both edges at the root stay undirected
        fork_cpdag = Mcg(
            nodes=tuple(KnowledgePoint(key=n) for n in FORK_SCENARIO["nodes"]),
            undirected=frozenset({(0, 1), (0, 2)}),
        )
        assert [p.key for p in stored.nodes] == FORK_SCENARIO["nodes"]
        assert graphs_equal(stored, fork_cpdag)

    def test_non_numeric_cpt_machine_readable_error(self, runner, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            '{"nodes": ["a"], "parents": {"a": []}, "cpt": {"a": [["x", 1]]}}'
        )
        result = runner.invoke(main, ["synth", str(scenario), "--out-dir", str(tmp_path)])
        assert result.exit_code == 1
        error = json.loads(result.output.strip().splitlines()[-1])
        assert error["error"] == "ParseError"

    def test_negative_rows_is_a_usage_error(self, runner, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(FORK_SCENARIO))
        result = runner.invoke(
            main, ["synth", str(scenario), "--rows", "-5", "--out-dir", str(tmp_path)]
        )
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "Invalid value for '--rows'" in result.output

    @pytest.mark.parametrize(
        "scenario_doc",
        [
            '{"nodes": ["a"], "parents": {"a": []}, "cpt": {"a": [[NaN, NaN]]}}',
            '{"nodes": ["a", "a"], "parents": {"a": []}, "cpt": {"a": [[0.5, 0.5]]}}',
            '{"nodes": "ab", "parents": {"a": [], "b": []},'
            ' "cpt": {"a": [[0.5, 0.5]], "b": [[0.5, 0.5]]}}',
            '{"nodes": ["a", "b"], "parents": {"a": [], "b": "a"},'
            ' "cpt": {"a": [[0.5, 0.5]], "b": [[0.5, 0.5], [0.5, 0.5]]}}',
            '{"nodes": [null], "parents": {"None": []}, "cpt": {"None": [[0.5, 0.5]]}}',
            '{"nodes": ["a"], "parents": {"a": []}, "cpt": {"a": [[true, false]]}}',
            '{"nodes": ["a"], "parents": {"a": []}, "cpt": {"a": [["0.5", "0.5"]]}}',
            '{"nodes": ["a"], "parents": {"a": []}, "cpt": {"a": [[1' + "0" * 400 + ', 0]]}}',
            '{"nodes": ["a", "b"], "parents": {"a": [], "b": []},'
            ' "cpt": {"a": [[0.5, 0.5]], "b": [[0.5, 0.5]]}, "nodes": ["a"]}',
        ],
        ids=[
            "nan-cpt", "repeated-name", "string-nodes", "string-parents", "null-name",
            "boolean-cpt", "string-cpt", "huge-integer-cpt", "repeated-key",
        ],
    )
    def test_invalid_scenario_machine_readable_error(self, runner, tmp_path, scenario_doc):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(scenario_doc)
        result = runner.invoke(main, ["synth", str(scenario), "--out-dir", str(tmp_path)])
        assert result.exit_code == 1
        error = json.loads(result.output.strip().splitlines()[-1])
        assert error["error"] == "ParseError"

    def test_malformed_csv_machine_readable_error(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,a\nr1,2\n")
        result = runner.invoke(main, ["discover", str(bad), "--run-dir", str(tmp_path)])
        assert result.exit_code == 1
        error = json.loads(result.output.strip().splitlines()[-1])
        assert error["error"] == "ParseError"

    # keys are normalized (lower case, single spaces) into node keys, which
    # must stay non-empty and pairwise distinct: (keys, the key the error names)
    NOT_NODE_KEYS = [
        (["A", "a"], "'a'"), (["a", ""], "''"), (["a", " "], "' '"), (["x  y", "X Y"], "'x y'")
    ]

    @pytest.mark.parametrize("keys, named", NOT_NODE_KEYS)
    def test_discover_refuses_columns_that_are_not_node_keys(self, runner, tmp_path, keys, named):
        csv_file = tmp_path / "incidence.csv"
        csv_file.write_text(f"id,{','.join(keys)}\nr1,1,0\nr2,0,1\n")
        out = tmp_path / "graph.json"
        result = runner.invoke(
            main, ["discover", str(csv_file), "--out", str(out), "--run-dir", str(tmp_path)]
        )
        assert result.exit_code == 1
        (line,) = result.output.strip().splitlines()
        error = json.loads(line)
        assert error["error"] == "ParseError" and named in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("names, named", NOT_NODE_KEYS)
    def test_synth_refuses_names_that_are_not_node_keys(self, runner, tmp_path, names, named):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "nodes": names,
            "parents": {n: [] for n in names},
            "cpt": {n: [[0.5, 0.5]] for n in names},
        }))
        out = tmp_path / "out"
        result = runner.invoke(main, ["synth", str(scenario), "--out-dir", str(out)])
        assert result.exit_code == 1
        (line,) = result.output.strip().splitlines()
        error = json.loads(line)
        assert error["error"] == "ParseError" and named in error["message"]
        assert not (out / "incidence.csv").exists()


VALID_SCENARIO = {
    "nodes": ["a", "b", "c"],
    "parents": {"a": [], "b": ["a"], "c": ["a"]},
    "cpt": {"a": [[0.5, 0.5]], "b": [[0.8, 0.2], [0.3, 0.7]], "c": [[0.9, 0.1], [0.4, 0.6]]},
}


def value_paths(doc, prefix=()):
    """Every path from the root of a JSON document to one of its values."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from value_paths(value, (*prefix, key))


def value_at(doc, path):
    return reduce(operator.getitem, path, doc)


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    value_at(doc, path[:-1])[path[-1]] = value
    return doc


# a list swap holds no string, so it cannot name an existing node
type_swaps = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet="abc", min_size=1, max_size=3),
    st.lists(
        st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False)), min_size=1, max_size=2
    ),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


def both_strings(old, new) -> bool:
    return isinstance(old, str) and isinstance(new, str)


def swapped(doc, paths=None, render=json.dumps, same_kind=both_strings):
    """Text of ``doc`` with the value at one path replaced by a type swap,
    never by one of ``same_kind`` as the value it replaces. By default a
    string never replaces a string: that renames a node instead of breaking
    the document."""
    if paths is None:
        paths = st.sampled_from(list(value_paths(doc)))

    def swaps_at(path):
        old = value_at(doc, path)
        swaps = type_swaps.filter(lambda value: not same_kind(old, value))
        return swaps.map(lambda value: replaced(doc, path, value))

    return paths.flatmap(swaps_at).map(render)


def with_repeated_key(doc, key, value):
    """JSON text of ``doc`` with its top-level ``key`` written a second
    time, holding ``value``."""
    return json.dumps(doc)[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}"


def repeated_keys(doc, repeat=with_repeated_key):
    """A top-level key repeated with a type swap or another of the
    document's own values; ``repeat(doc, key, value)`` writes the text."""
    own_values = st.sampled_from([value_at(doc, path) for path in value_paths(doc)])
    return st.builds(repeat, st.just(doc), st.sampled_from(list(doc)), type_swaps | own_values)


def truncated(doc, render=json.dumps):
    text = render(doc)
    return st.integers(0, len(text) - 1).map(lambda cut: text[:cut])


def run_on_document(text: str, args, outputs):
    """(result, bytes of each output file or None) of a cama command run
    in-process in a fresh working directory; ``args(document, out_dir)``
    gives its arguments."""
    with CliRunner().isolated_filesystem() as tmp:
        document = Path(tmp) / "document"
        document.write_text(text, encoding="utf-8")
        result = CliRunner().invoke(main, args(str(document), tmp))
        files = None
        if result.exit_code == 0:
            files = [(Path(tmp) / name).read_bytes() for name in outputs]
        return result, files


def assert_loads_as_valid_or_fails_cleanly(
    result, files, valid_files, text, errors=("ParseError",)
):
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        assert files == valid_files, text
    else:
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), text
        error = json.loads(result.output.strip().splitlines()[-1])
        assert error["error"] in errors, text


def synth(text: str):
    """``cama synth`` on a scenario document: its incidence.csv and
    true_cpdag.json."""
    return run_on_document(
        text,
        lambda document, out: ["synth", document, "--rows", "20", "--out-dir", out],
        ["incidence.csv", "true_cpdag.json"],
    )


@cache
def valid_synth_files():
    result, files = synth(json.dumps(VALID_SCENARIO))
    assert result.exit_code == 0, result.output
    return files


# half the swaps land on a list of names, where a string could pass for a list
name_lists = [("nodes",), *(("parents", name) for name in VALID_SCENARIO["nodes"])]
duplicated = st.builds(
    lambda i, j: replaced(VALID_SCENARIO, ("nodes", i), VALID_SCENARIO["nodes"][j]),
    st.integers(0, 2),
    st.integers(0, 2),
) | st.sampled_from(
    [replaced(VALID_SCENARIO, ("nodes",), [*VALID_SCENARIO["nodes"], name]) for name in "abc"]
)
mutated_scenario = st.one_of(
    swapped(
        VALID_SCENARIO,
        st.sampled_from(name_lists) | st.sampled_from(list(value_paths(VALID_SCENARIO))),
    ),
    duplicated.map(json.dumps),
    repeated_keys(VALID_SCENARIO),
    truncated(VALID_SCENARIO),
)


class TestScenarioDocument:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(mutated_scenario)
    # a string where a list of names belongs, which iterates as the names
    @example(json.dumps(replaced(VALID_SCENARIO, ("nodes",), "ab")))
    @example(json.dumps(replaced(VALID_SCENARIO, ("parents", "b"), "c")))
    # booleans that NumPy reads as a valid, different CPT row
    @example(json.dumps(replaced(VALID_SCENARIO, ("cpt", "a", 0), [True, False])))
    def test_mutated_scenario_loads_as_valid_or_fails_cleanly(self, text):
        result, files = synth(text)
        assert_loads_as_valid_or_fails_cleanly(result, files, valid_synth_files(), text)


VALID_GRAPH = {
    "version": 1,
    "nodes": [
        {"key": "a", "description": "first"},
        {"key": "b", "description": ""},
        {"key": "c", "description": "third"},
    ],
    "directed": [[0, 1]],
    "undirected": [[1, 2]],
}


def export_dot(text: str):
    """``cama export-dot`` on a graph document: its DOT file."""
    return run_on_document(
        text,
        lambda document, out: ["export-dot", document, "--out", str(Path(out) / "graph.dot")],
        ["graph.dot"],
    )


@cache
def valid_dot_file():
    result, files = export_dot(json.dumps(VALID_GRAPH))
    assert result.exit_code == 0, result.output
    return files


mutated_graph = st.one_of(
    swapped(VALID_GRAPH), repeated_keys(VALID_GRAPH), truncated(VALID_GRAPH)
)


class TestGraphDocument:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(mutated_graph)
    # a repeated key whose second value is a valid, different edge list
    @example(with_repeated_key(VALID_GRAPH, "directed", []))
    def test_mutated_graph_loads_as_valid_or_fails_cleanly(self, text):
        result, files = export_dot(text)
        assert_loads_as_valid_or_fails_cleanly(result, files, valid_dot_file(), text)


ANSWER_GRAPH = Mcg(
    nodes=(KnowledgePoint("alpha", "a"), KnowledgePoint("beta", "b")), directed={(0, 1)}
)
ANSWER_QUESTION = question_text("demo", 2, 3, ["alpha", "beta"])


@cache
def valid_transcript() -> tuple[dict, ...]:
    """The p_t, p_m and p_a lines that ``cama answer`` replays for ANSWER_QUESTION."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "transcript.jsonl"
        record = QaRecord(id="cli-question", question=ANSWER_QUESTION)
        answer_question(ANSWER_GRAPH, record, RecordingClient(FakeLlm(), path))
        return tuple(json.loads(line) for line in path.read_text(encoding="utf-8").splitlines())


def transcript_with(index: int, line: str) -> str:
    """The valid transcript with its line ``index`` replaced by ``line``."""
    lines = [json.dumps(doc) for doc in valid_transcript()]
    lines[index] = line
    return "\n".join(lines) + "\n"


def answer_replay(text: str):
    """``cama answer --mode replay`` on a transcript: its answer_audit.json."""

    def args(document, out):
        save_graph(ANSWER_GRAPH, Path(out) / "graph.json")
        return ["answer", str(Path(out) / "graph.json"), ANSWER_QUESTION, "--mode", "replay",
                "--transcript", document, "--run-dir", out]

    return run_on_document(text, args, ["answer_audit.json"])


@cache
def valid_answer_audit():
    result, files = answer_replay(transcript_with(0, json.dumps(valid_transcript()[0])))
    assert result.exit_code == 0, result.output
    return files


def mutated_line(index: int):
    # a line cut to nothing is skipped, which drops its entry rather than breaking it
    doc = valid_transcript()[index]
    line = st.one_of(swapped(doc), repeated_keys(doc), truncated(doc).filter(bool))
    return line.map(lambda text: transcript_with(index, text))


mutated_transcript = st.deferred(
    lambda: st.integers(0, len(valid_transcript()) - 1).flatmap(mutated_line)
)


class TestTranscriptDocument:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(mutated_transcript)
    # a repeated response whose second value is a valid, different answer
    @example(transcript_with(2, with_repeated_key(valid_transcript()[2], "response",
                                                  "<answer>6</answer>")))
    def test_mutated_transcript_replays_as_valid_or_fails_cleanly(self, text):
        result, files = answer_replay(text)
        assert_loads_as_valid_or_fails_cleanly(result, files, valid_answer_audit(), text)


# every key the parser accepts, each at a value that no cut of the text can
# turn into another valid value that discover reads: alpha and
# max_cond_size are the defaults a dropped line falls back to
VALID_CONFIG = {
    "api_base": "http://api.example/v1",
    "model": "m1",
    "api_key_env": "CAMA_API_KEY",
    "lambda": 3,
    "alpha": DEFAULT_ALPHA,
    "max_cond_size": DEFAULT_MAX_COND_SIZE,
    "temperature": 0.6,
    "in_flight_limit": 16,
    "repetitions": 2,
    "seed": 7,
    "run_dir": "run",
    "mode": "replay",
    "transcript": "t.jsonl",
    "alignment.m": 10,
    "alignment.s_b": 5,
    "alignment.n_e": 10,
    "alignment.r": 7,
    "alignment.c_stop": 3,
}
# a and b are dependent at alpha 0.5 and independent at the default 0.05
CONFIG_CSV = "id,a,b,c\n" + "".join(
    f"r{i},{a},{b},{c}\n"
    for i, (a, b, c) in enumerate(
        [(1, 1, 1), (1, 1, 1), (1, 1, 1), (0, 0, 1), (0, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1)]
    )
)


def config_value(value) -> str:
    # a string is written raw between quotes, so a NUL in it stays a NUL
    return f'"{value}"' if isinstance(value, str) else json.dumps(value)


def config_text(doc) -> str:
    return "".join(f"{key} = {config_value(value)}\n" for key, value in doc.items())


def config_with_repeated_key(doc, key, value) -> str:
    return config_text(doc) + f"{key} = {config_value(value)}\n"


def reads_as_same_kind(old, new) -> bool:
    """Whether the config line reads ``new`` as a finite value of ``old``'s
    type: a valid, different document rather than a broken one."""
    try:
        value = type(old)(config_value(new).strip('"'))
    except ValueError:
        return False
    return not isinstance(value, float) or math.isfinite(value)


def inserted(text: str, pieces):
    return st.builds(
        lambda cut, piece: text[:cut] + piece + text[cut:], st.integers(0, len(text)), pieces
    )


def nul_in_value(key):
    # a NUL gets past the parser only inside a string value
    return inserted(VALID_CONFIG[key], st.just("\0")).map(
        lambda value: config_text(replaced(VALID_CONFIG, (key,), value))
    )


def discover_config(text: str):
    """``cama discover --config`` on a config document: its graph.json."""

    def args(document, out):
        (Path(out) / "z.csv").write_text(CONFIG_CSV)
        return ["discover", "z.csv", "--config", document, "--out", "graph.json"]

    return run_on_document(text, args, ["graph.json"])


@cache
def valid_config_graph():
    result, files = discover_config(config_text(VALID_CONFIG))
    assert result.exit_code == 0, result.output
    return files


string_keys = [key for key, value in VALID_CONFIG.items() if isinstance(value, str)]
mutated_config = st.one_of(
    swapped(
        VALID_CONFIG,
        st.sampled_from([(key,) for key in VALID_CONFIG if key not in string_keys]),
        render=config_text,
        same_kind=reads_as_same_kind,
    ),
    st.sampled_from(string_keys).flatmap(nul_in_value),
    repeated_keys(VALID_CONFIG, config_with_repeated_key),
    truncated(VALID_CONFIG, render=config_text),
    inserted(
        config_text(VALID_CONFIG),
        st.sampled_from(['"', "\0"])
        | st.text(alphabet="xyz_.", min_size=1, max_size=6).map(lambda key: f"\n{key} = 1\n"),
    ),
)


class TestConfigDocument:
    @settings(derandomize=True, max_examples=120, deadline=None, database=None)
    @given(mutated_config)
    # a NUL in the path of the directory discover makes
    @example(config_text(replaced(VALID_CONFIG, ("run_dir",), "a\0b")))
    # a repeated key whose second value is a valid, different significance level
    @example(config_with_repeated_key(VALID_CONFIG, "alpha", 0.5))
    @example(config_text(replaced(VALID_CONFIG, ("alpha",), math.nan)))
    def test_mutated_config_loads_as_valid_or_fails_cleanly(self, text):
        result, files = discover_config(text)
        assert_loads_as_valid_or_fails_cleanly(
            result, files, valid_config_graph(), text, errors=("ConfigError", "ParseError")
        )


# the incidence CSV as rows of fields; a cut inside the last row either
# leaves the row whole or breaks it, and the keys and ids hold no quote
CSV_ROWS = [line.split(",") for line in CONFIG_CSV.splitlines()]
CSV_CELLS = [(i, j) for i in range(1, len(CSV_ROWS)) for j in range(1, len(CSV_ROWS[0]))]
CSV_FIELDS = [(i, j) for i in range(len(CSV_ROWS)) for j in range(len(CSV_ROWS[0]))]
# cells int() rejects or reads as neither 0 nor 1, type swaps among them
BAD_CELLS = ["", "2", "-1", "x", "nan", "inf", "-inf", "1.0", "true", "null", '"0,1"', "1_0"]


def csv_text(rows, newline="\n") -> str:
    return "".join(",".join(row) + newline for row in rows)


def csv_with(edit):
    """The CSV text after ``edit(rows)`` changed a copy of its rows."""
    rows = copy.deepcopy(CSV_ROWS)
    edit(rows)
    return csv_text(rows)


def with_field(i, j, value):
    return csv_with(lambda rows: rows[i].__setitem__(j, value))


def odd_cell(at):
    """A cell written another way int() reads as the same value, or a bad cell."""
    i, j = at
    v = CSV_ROWS[i][j]
    same = [f"0{v}", f" {v}", f"{v} ", f"+{v}", f"{v}\t", "١" if v == "1" else "-0", f'"{v}"']
    return st.sampled_from(same + BAD_CELLS).map(lambda token: with_field(i, j, token))


def ragged(at):
    i, j = at
    return st.sampled_from([
        csv_with(lambda rows: rows[i].pop(j)),
        csv_with(lambda rows: rows[i].insert(j, "0")),
    ])


def quoted(at):
    """A field quoted whole, which reads as itself, or opened by a quote
    that never closes."""
    i, j = at
    return st.sampled_from([f'"{CSV_ROWS[i][j]}"', f'"{CSV_ROWS[i][j]}']).map(
        lambda value: with_field(i, j, value)
    )


def truncated_last_row():
    text = csv_text(CSV_ROWS)
    start = len(text) - len(",".join(CSV_ROWS[-1])) - 1
    return st.integers(start + 1, len(text) - 1).map(lambda cut: text[:cut])


def discover_csv(text: str):
    """``cama discover`` on an incidence CSV: its graph.json, and the matrix
    it loaded as ``to_csv`` writes it, so a cell read as another value shows."""

    def load_and_save(path):
        z = load_incidence_csv(path)
        z.save_csv("loaded.csv")
        return z

    with mock.patch("cama.matrix.load_incidence_csv", load_and_save):
        return run_on_document(
            text, lambda document, out: ["discover", document, "--out", "graph.json"],
            ["graph.json", "loaded.csv"],
        )


@cache
def valid_csv_files():
    result, files = discover_csv(CONFIG_CSV)
    assert result.exit_code == 0, result.output
    return files


repeated_key = st.builds(
    lambda j, other: with_field(0, j, CSV_ROWS[0][other]),
    st.integers(1, len(CSV_ROWS[0]) - 1),
    st.integers(1, len(CSV_ROWS[0]) - 1),
).filter(lambda text: text != CONFIG_CSV)
mutated_csv = st.one_of(
    st.sampled_from(CSV_CELLS).flatmap(odd_cell),
    st.sampled_from(CSV_FIELDS).flatmap(ragged),
    repeated_key,
    truncated_last_row(),
    st.just("\ufeff" + CONFIG_CSV),
    st.sampled_from(["\r\n", "\r"]).map(lambda newline: csv_text(CSV_ROWS, newline)),
    st.sampled_from(CSV_FIELDS).flatmap(quoted),
)


class TestIncidenceDocument:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(mutated_csv)
    # a quote opening a key that never closes swallows the rest of the file
    @example(with_field(0, 2, '"b'))
    def test_mutated_csv_loads_as_valid_or_fails_cleanly(self, text):
        result, files = discover_csv(text)
        assert_loads_as_valid_or_fails_cleanly(result, files, valid_csv_files(), text)


class TestExportDotCommand:
    def test_writes_dot(self, runner, tmp_path):
        g = Mcg(
            nodes=(KnowledgePoint("area"), KnowledgePoint("cylinder")),
            directed={(0, 1)},
        )
        graph_path = tmp_path / "g.json"
        save_graph(g, graph_path)
        out = tmp_path / "g.dot"
        result = runner.invoke(main, ["export-dot", str(graph_path), "--out", str(out)])
        assert result.exit_code == 0
        assert '"area" -> "cylinder";' in out.read_text()


class TestReplayFlows:
    def make_graph(self, tmp_path):
        g = Mcg(
            nodes=(KnowledgePoint("alpha", "a"), KnowledgePoint("beta", "b")),
            directed={(0, 1)},
        )
        path = tmp_path / "graph.json"
        save_graph(g, path)
        return g, path

    def record_eval_transcript(self, g, corpus, path):
        recorder = RecordingClient(FakeLlm(), path)
        evaluate(g, corpus, recorder, repetitions=1)

    def test_evaluate_replay_deterministic_and_offline(
        self, runner, tmp_path, no_network
    ):
        g, graph_path = self.make_graph(tmp_path)
        corpus = make_corpus(
            [("q01", 5, 6, ["alpha"]), ("q02", 7, 8, ["beta", "alpha"])]
        )
        test_file = tmp_path / "test.json"
        save_qa_records(corpus, test_file)
        transcript = tmp_path / "transcript.jsonl"
        self.record_eval_transcript(g, corpus, transcript)

        args = [
            "evaluate", str(graph_path), str(test_file),
            "--mode", "replay", "--transcript", str(transcript),
            "--run-dir", str(tmp_path / "run"),
        ]
        first = runner.invoke(main, args)
        assert first.exit_code == 0, first.output
        report_bytes_1 = (tmp_path / "run" / "eval_report.json").read_bytes()
        report = json.loads(report_bytes_1)
        assert report["pass_at_1"] == 1.0
        assert "pass@1 = 2/2" in first.output

        second = runner.invoke(main, args)
        assert second.exit_code == 0
        assert (tmp_path / "run" / "eval_report.json").read_bytes() == report_bytes_1

    def test_answer_replay(self, runner, tmp_path, no_network):
        g, graph_path = self.make_graph(tmp_path)
        question = question_text("demo", 2, 3, ["alpha"])
        transcript = tmp_path / "transcript.jsonl"
        recorder = RecordingClient(FakeLlm(), transcript)
        answer_question(g, QaRecord(id="cli-question", question=question), recorder)

        result = runner.invoke(
            main,
            ["answer", str(graph_path), question,
             "--mode", "replay", "--transcript", str(transcript),
             "--run-dir", str(tmp_path / "run")],
        )
        assert result.exit_code == 0, result.output
        assert result.output.strip().endswith("5")
        audit = json.loads((tmp_path / "run" / "answer_audit.json").read_text())
        assert audit["parsed_answer"] == "5"
        assert audit["chosen"] == [0]

    @pytest.mark.parametrize("question", ["", "   ", "\n\t"])
    def test_blank_question_is_a_parse_error(self, runner, tmp_path, no_network, question):
        _, graph_path = self.make_graph(tmp_path)
        result = runner.invoke(
            main, ["answer", str(graph_path), question, "--run-dir", str(tmp_path / "run")]
        )
        assert error_line(result) == {"error": "ParseError", "message": "question is blank"}
        assert not (tmp_path / "run").exists()

    def test_build_dataset_replay(self, runner, tmp_path, no_network):
        from cama.learning import build_dataset

        bare = [
            QaRecord(id=r.id, question=r.question, answer=r.answer)
            for r in make_corpus(
                [("q01", 1, 2, ["alpha"]), ("q02", 3, 4, ["beta"]), ("q03", 5, 6, ["alpha"])]
            )
        ]
        qa_file = tmp_path / "qa.json"
        save_qa_records(bare, qa_file)
        transcript = tmp_path / "transcript.jsonl"
        build_dataset(bare, RecordingClient(FakeLlm(wrong_ids={"q02"}), transcript))

        result = runner.invoke(
            main,
            ["build-dataset", str(qa_file), "--mode", "replay",
             "--transcript", str(transcript), "--run-dir", str(tmp_path / "run")],
        )
        assert result.exit_code == 0, result.output
        assert "retained 2/3" in result.output
        from cama.model import load_qa_records

        dataset = load_qa_records(tmp_path / "run" / "dataset.json")
        assert [r.id for r in dataset] == ["q01", "q03"]
        assert all(r.solution for r in dataset)

    def test_missing_input_file_fails_cleanly(self, runner, tmp_path):
        result = runner.invoke(main, ["evaluate", "missing.json", "also-missing.json"])
        assert result.exit_code != 0


def discover_args(tmp_path, csv=b"id,a,b\nr1,0,1\nr2,1,0\n", config=None):
    (tmp_path / "z.csv").write_bytes(csv)
    args = ["discover", str(tmp_path / "z.csv"), "--run-dir", str(tmp_path)]
    if config is not None:
        (tmp_path / "cama.conf").write_bytes(config)
        args += ["--config", str(tmp_path / "cama.conf")]
    return args


def evaluate_replay_args(tmp_path, transcript):
    save_graph(Mcg(nodes=(KnowledgePoint("alpha", "a"),)), tmp_path / "graph.json")
    save_qa_records(make_corpus([("q01", 1, 2, ["alpha"])]), tmp_path / "test.json")
    (tmp_path / "t.jsonl").write_bytes(transcript)
    return ["evaluate", str(tmp_path / "graph.json"), str(tmp_path / "test.json"),
            "--mode", "replay", "--transcript", str(tmp_path / "t.jsonl"),
            "--run-dir", str(tmp_path / "run")]


def error_line(result) -> dict:
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.exception
    return json.loads(result.output.strip().splitlines()[-1])


class TestLoaderErrors:
    """A loader turns a bad input file into the JSON error line and exit 1,
    never a traceback."""

    @pytest.mark.parametrize(
        "args_of",
        [
            pytest.param(
                lambda p: discover_args(p, csv=b"id,a,b\nr1,0,1\nr\xff,1,0\n"),
                id="incidence-csv",
            ),
            pytest.param(
                lambda p: discover_args(p, config=b"alpha = 0.01  # \xff\n"), id="config"
            ),
            pytest.param(
                lambda p: evaluate_replay_args(
                    p, b'{"prompt_sha256": "0", "response": "\xff", "tag": "p_t"}\n'
                ),
                id="transcript",
            ),
        ],
    )
    def test_non_utf8_byte_is_a_parse_error(self, runner, tmp_path, args_of):
        error = error_line(runner.invoke(main, args_of(tmp_path)))
        assert error["error"] == "ParseError"
        assert "not UTF-8 text" in error["message"]

    def test_lone_surrogate_in_a_question_is_a_parse_error(self, runner, tmp_path):
        args = evaluate_replay_args(tmp_path, b"")
        (tmp_path / "test.json").write_text(
            '[{"id": "q01", "question": "x \\ud800", "answer": "1"}]', encoding="utf-8"
        )
        result = runner.invoke(main, args)
        assert error_line(result) == {
            "error": "ParseError",
            "message": f"invalid QA file {tmp_path / 'test.json'}: "
            "an escape decodes to the lone surrogate U+D800",
        }
        assert len(result.output.strip().splitlines()) == 1

    def test_non_string_transcript_response_is_a_parse_error(
        self, runner, tmp_path, no_network
    ):
        dataset = make_corpus([("q01", 1, 2, ["alpha"]), ("q02", 3, 4, ["beta"])])
        save_qa_records(dataset, tmp_path / "dataset.json")
        transcript = tmp_path / "t.jsonl"
        extract_all(dataset, 3, RecordingClient(FakeLlm(), transcript))
        first, second = transcript.read_text(encoding="utf-8").splitlines()
        transcript.write_text(
            json.dumps({**json.loads(first), "response": 5}) + "\n" + second + "\n"
        )
        result = runner.invoke(
            main,
            ["learn", str(tmp_path / "dataset.json"), "--mode", "replay",
             "--transcript", str(transcript), "--run-dir", str(tmp_path / "run")],
        )
        assert error_line(result) == {
            "error": "ParseError",
            "message": "bad transcript line 1: tag, prompt_sha256 and response must be strings",
        }


class TestCommandErrors:
    """A command given inputs it cannot use prints the JSON error line and
    exits 1, never a traceback."""

    def test_build_dataset_on_solved_records_is_a_parse_error(self, runner, tmp_path):
        qa_file = tmp_path / "qa.json"
        qa_file.write_text('[{"id": "a", "question": "q?", "answer": "1", "solution": "s"}]')
        (tmp_path / "t.jsonl").write_text("")
        result = runner.invoke(
            main,
            ["build-dataset", str(qa_file), "--mode", "replay",
             "--transcript", str(tmp_path / "t.jsonl"), "--run-dir", str(tmp_path / "run")],
        )
        assert error_line(result) == {
            "error": "ParseError", "message": "record 'a' already has a solution"
        }

    def test_oversized_alignment_subset_fails_before_any_model_call(
        self, runner, tmp_path, monkeypatch
    ):
        save_qa_records(make_corpus([("q01", 1, 2, ["alpha"])]), tmp_path / "dataset.json")
        (tmp_path / "cama.conf").write_text("alignment.m = 50\n")
        llm = FakeLlm()
        monkeypatch.setattr("cama.cli.build_client", lambda cfg: llm)
        result = runner.invoke(
            main,
            ["learn", str(tmp_path / "dataset.json"), "--config", str(tmp_path / "cama.conf"),
             "--run-dir", str(tmp_path / "run")],
        )
        assert error_line(result) == {
            "error": "ConfigError", "message": "alignment.m = 50 exceeds dataset size 1"
        }
        assert llm.calls == []
        assert not (tmp_path / "run").exists()
