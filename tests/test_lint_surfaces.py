"""Cross-surface contract tests for the lint engine.

The headline property mirrors ``tests/test_serve.py``: the findings the
lint stage produces are **byte-identical** on every surface — the single
file ``vhdl-ifa lint --json`` document, each batch job's ``"lint"``
section, and the ``POST /lint`` serve response — asserted over every paper
workload with only the run-dependent ``timings`` / ``cached_stages``
fields normalised.  The rest covers the ``[lint]`` policy table round
trip, the shared ``--fail-on`` exit-code contract and the
``scripts/check_invariants.py`` repo gate (which must fail on a seeded
violation).
"""

import json
import http.client
import subprocess
import sys
from pathlib import Path

import pytest

from repro import workloads
from repro.cli import main
from repro.pipeline import (
    AnalysisServer,
    ArtifactCache,
    ServerThread,
    TieredArtifactCache,
    json_text,
)
from repro.security.policy_file import load_policy_file, policy_to_dict
from repro.workspace import Workspace

VOLATILE_FIELDS = ("timings", "cached_stages")

REPO_ROOT = Path(__file__).resolve().parent.parent

LINT_POLICY_TOML = """\
[lint]
disable = ["IFA108"]

[lint.severity]
IFA102 = "error"
"""


def _request(port, method, path, payload=None, timeout=60):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    body = None if payload is None else json.dumps(payload)
    connection.request(method, path, body=body)
    response = connection.getresponse()
    return response.status, response.read().decode("utf-8")


def _normalised(document_text):
    document = json.loads(document_text)
    for field in VOLATILE_FIELDS:
        document.pop(field, None)
    return json_text(document) + "\n"


def _lint_body(document_text):
    """The surface-independent lint payload of any lint-bearing document."""
    document = json.loads(document_text)
    return json_text(
        {key: document[key] for key in ("clean", "findings", "summary")}
    )


@pytest.fixture(scope="module")
def server():
    with ServerThread(
        AnalysisServer(port=0, cache=TieredArtifactCache(ArtifactCache()))
    ) as running:
        yield running


@pytest.fixture
def workload_files(tmp_path):
    paths = []
    for name, source in workloads.batch_workload_sources():
        path = tmp_path / f"{name}.vhd"
        path.write_text(source, encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.fixture
def lint_policy(tmp_path):
    path = tmp_path / "lint_policy.toml"
    path.write_text(LINT_POLICY_TOML, encoding="utf-8")
    return str(path)


@pytest.fixture
def noisy_file(tmp_path):
    # challenge_f carries the paper's overwritten-variable IFA108 finding.
    path = tmp_path / "noisy.vhd"
    path.write_text(workloads.challenge_f_program(), encoding="utf-8")
    return str(path)


class TestByteIdentityAcrossSurfaces:
    def test_serve_matches_cli_on_every_paper_workload(
        self, server, workload_files, capsys
    ):
        assert len(workload_files) >= 8
        for path in workload_files:
            status, served = _request(server.port, "POST", "/lint", {"file": path})
            assert status == 200
            assert main(["lint", path, "--json", "--fail-on", "never"]) == 0
            printed = capsys.readouterr().out
            assert _normalised(served) == _normalised(printed)

    def test_batch_sections_match_cli_on_every_paper_workload(
        self, workload_files, capsys
    ):
        assert (
            main(["batch", *workload_files, "--lint", "--json", "--sequential"])
            == 0
        )
        batch_document = json.loads(capsys.readouterr().out)
        jobs = {job["file"]: job for job in batch_document["jobs"]}
        assert set(jobs) == set(workload_files)
        for path in workload_files:
            assert main(["lint", path, "--json", "--fail-on", "never"]) == 0
            single = capsys.readouterr().out
            assert json_text(jobs[path]["lint"]) == _lint_body(single)

    def test_policy_configured_lint_is_identical_on_all_surfaces(
        self, server, noisy_file, lint_policy, capsys
    ):
        # CLI with --policy …
        assert main(["lint", noisy_file, "--json", "--policy", lint_policy]) == 0
        single = capsys.readouterr().out
        # … the batch section driven by the same policy file …
        assert (
            main(
                ["batch", noisy_file, "--lint", "--json", "--sequential",
                 "--policy", lint_policy]
            )
            == 0
        )
        batch_document = json.loads(capsys.readouterr().out)
        (job,) = batch_document["jobs"]
        assert json_text(job["lint"]) == _lint_body(single)
        # … and the serve response with the policy inline.
        policy_document = policy_to_dict(load_policy_file(lint_policy))
        status, served = _request(
            server.port,
            "POST",
            "/lint",
            {"file": noisy_file, "policy": policy_document},
        )
        assert status == 200
        assert _normalised(served) == _normalised(single)
        # The [lint] table really did apply: IFA108 is disabled.
        assert json.loads(single)["clean"] is True


class TestLintPolicyRoundTrip:
    def test_lint_table_survives_to_dict(self, lint_policy):
        policy = load_policy_file(lint_policy)
        document = policy_to_dict(policy)
        assert document["lint"] == {
            "disable": ["IFA108"],
            "severity": {"IFA102": "error"},
        }
        assert policy.lint is not None
        assert not policy.lint.allows("IFA108")

    def test_lint_only_document_is_a_valid_policy(self):
        workspace = Workspace()
        policy = workspace.policy({"lint": {"disable": ["IFA108"]}})
        linted = workspace.lint(
            workloads.challenge_f_program(), policy=policy
        )
        assert linted.clean

    def test_explicit_config_wins_over_policy(self, lint_policy):
        from repro.analysis.lint import LintConfig

        workspace = Workspace()
        policy = workspace.load_policy(lint_policy)
        linted = workspace.lint(
            workloads.challenge_f_program(), policy=policy, config=LintConfig()
        )
        assert [finding.code for finding in linted.findings] == ["IFA108"]


MULTI_DRIVER = """
entity md is
  port( a : in std_logic; o : out std_logic );
end md;
architecture rtl of md is
  signal s : std_logic;
begin
  p1 : process begin s <= a; wait on a; end process p1;
  p2 : process begin s <= a; wait on a; end process p2;
  p3 : process begin o <= s; wait on s; end process p3;
end rtl;
"""

DEAD_SIGNAL = """
entity ds is
  port( a : in std_logic; o : out std_logic );
end ds;
architecture rtl of ds is
  signal dead : std_logic;
begin
  p1 : process begin dead <= a; o <= a; wait on a; end process p1;
end rtl;
"""


class TestFailOn:
    @pytest.fixture
    def error_file(self, tmp_path):
        path = tmp_path / "md.vhd"
        path.write_text(MULTI_DRIVER, encoding="utf-8")
        return str(path)

    @pytest.fixture
    def warning_file(self, tmp_path):
        path = tmp_path / "ds.vhd"
        path.write_text(DEAD_SIGNAL, encoding="utf-8")
        return str(path)

    def test_lint_error_finding_exits_3_by_default(self, error_file, capsys):
        assert main(["lint", error_file]) == 3
        assert "IFA101" in capsys.readouterr().out

    def test_lint_fail_on_never_reports_without_failing(self, error_file, capsys):
        assert main(["lint", error_file, "--fail-on", "never"]) == 0
        assert "IFA101" in capsys.readouterr().out

    def test_lint_warning_needs_fail_on_warning(self, warning_file, capsys):
        assert main(["lint", warning_file]) == 0
        assert main(["lint", warning_file, "--fail-on", "warning"]) == 3
        capsys.readouterr()

    def test_check_fail_on_never_reports_violations_without_failing(
        self, noisy_file, capsys
    ):
        assert main(["check", noisy_file, "--secret", "key"]) == 3
        assert (
            main(["check", noisy_file, "--secret", "key", "--fail-on", "never"])
            == 0
        )
        assert "IFA001" in capsys.readouterr().out

    def test_batch_lint_aggregates_fail_on(
        self, error_file, warning_file, capsys
    ):
        argv = ["batch", error_file, warning_file, "--lint", "--sequential"]
        assert main(argv) == 3  # the IFA101 error trips the default
        capsys.readouterr()
        assert main([*argv, "--fail-on", "never"]) == 0
        capsys.readouterr()

    def test_batch_warning_thresholds(self, warning_file, capsys):
        argv = ["batch", warning_file, "--lint", "--sequential"]
        assert main(argv) == 0  # warnings don't trip the default
        capsys.readouterr()
        assert main([*argv, "--fail-on", "warning"]) == 3
        capsys.readouterr()


SEEDED_VIOLATIONS = '''
from repro.dataflow.facts import FactUniverse
from repro.pipeline.stages import Stage
from repro.pipeline.render import json_text

GLOBAL = FactUniverse()
CODE_A = "IFA101"
CODE_B = "IFA101"


def f(u=FactUniverse()):
    return u


BAD_STAGE = Stage("mystery", "attr", f)


def g(doc):
    return json_text({"raw": doc})
'''


class TestInvariantGate:
    def run_gate(self, *paths):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_invariants.py"),
             *paths],
            capture_output=True,
            text=True,
        )

    def test_repo_tree_is_clean(self):
        result = self.run_gate()
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout

    def test_seeded_violations_all_fire(self, tmp_path):
        seeded = tmp_path / "seeded.py"
        seeded.write_text(SEEDED_VIOLATIONS, encoding="utf-8")
        result = self.run_gate(str(seeded))
        assert result.returncode == 1
        for fragment in (
            "module scope",                 # global FactUniverse()
            "default argument",             # FactUniverse() default
            "Stage('mystery'",              # missing option_fields
            "not a stamped document",       # raw json_text payload
            "assigned 2 times",             # duplicate diagnostic code
        ):
            assert fragment in result.stderr, fragment

    def test_third_party_imports_fire(self, tmp_path):
        seeded = tmp_path / "imports.py"
        seeded.write_text(
            "import json, numpy.linalg\n"
            "from collections import deque\n"
            "from repro.errors import ReproError\n"
            "from . import sibling\n"
            "try:\n"
            "    from yaml import safe_load\n"
            "except ImportError:\n"
            "    safe_load = None\n",
            encoding="utf-8",
        )
        result = self.run_gate(str(seeded))
        assert result.returncode == 1
        assert "imports 'numpy.linalg'" in result.stderr
        assert "imports 'yaml'" in result.stderr
        assert "2 violation(s)" in result.stderr

    def test_docs_gate_requires_catalog_entries(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_docs.py")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "lint catalog matches rules.py" in result.stdout
