"""CLI behavior: exit codes, output formats, config discovery."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import ssdb
from ssdb import protocol
from ssdb.cli import ENV_CLUSTER, main
from ssdb.hub import ClusterConfig, ServerInfo
from ssdb.field import MERSENNE_61
from ssdb.testnet import TestCluster


@pytest.fixture(scope="module")
def net(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    with TestCluster.start(3, 2, seed=23) as cluster:
        cluster.load_fixture_patients()
        cfg = root / "cluster.json"
        cluster.config.save(cfg)
        yield SimpleNamespace(
            cluster=cluster, cfg=str(cfg), hub=cluster.hub.addr_str, root=root
        )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenCluster:
    def test_writes_loadable_config(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code, stdout, _ = run(capsys, "gen-cluster", "4", "3", "--out", str(out),
                              "--base-port", "9310")
        assert code == 0
        assert "4 servers, threshold 3" in stdout
        config = ClusterConfig.load(out)
        assert (config.n, config.t, config.p) == (4, 3, MERSENNE_61)
        assert [s.address for s in config.servers] == [
            f"127.0.0.1:{9310 + k}" for k in range(4)
        ]

    def test_threshold_above_n_rejected(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "gen-cluster", "2", "3",
                              "--out", str(tmp_path / "c.json"))
        assert code == 1 and "1 <= t <= n" in stderr

    def test_too_many_servers_rejected(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen-cluster", "17", "2",
                         "--out", str(tmp_path / "c.json"))
        assert code == 1

    def test_port_past_65535_rejected_and_no_file_written(self, tmp_path, capsys):
        # a server on 65536 could not bind
        out = tmp_path / "c.json"
        code, _, stderr = run(capsys, "gen-cluster", "3", "2", "--out", str(out),
                              "--base-port", "65535")
        assert code == 1 and "server s2" in stderr and "65536" in stderr
        assert not out.exists()


class TestArgumentErrors:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "insert", "t", "1")[0] == 1  # no --hub
        # create-table writes to the servers directly and takes no --hub
        assert run(capsys, "create-table", "--hub", "127.0.0.1:1", "schema.json")[0] == 1
        # servers announce themselves to nobody; the hub reads the cluster file
        assert run(capsys, "server", "--id", "s1", "--data-dir", "d", "--hub", "127.0.0.1:1")[0] == 1
        # a query reads from the servers over its own connections; nothing listens
        assert run(capsys, "query", "--hub", "127.0.0.1:1", "--listen", "127.0.0.1:0",
                   "SELECT a FROM t")[0] == 1

    def test_server_id_not_in_the_cluster_file(self, tmp_path, capsys):
        cfg = str(tmp_path / "c.json")
        assert run(capsys, "gen-cluster", "3", "2", "--out", cfg)[0] == 0
        code, _, stderr = run(capsys, "server", "--cluster", cfg, "--id", "s9",
                              "--data-dir", str(tmp_path / "d"))
        assert code == 1 and "server id 's9' is not in the cluster file" in stderr

    def test_no_cluster_file_anywhere(self, capsys, monkeypatch, net):
        monkeypatch.delenv(ENV_CLUSTER, raising=False)
        code, _, stderr = run(capsys, "query", "--hub", net.hub,
                              "SELECT Patientid FROM patient_details")
        assert code == 1 and "no cluster file" in stderr

    def test_env_var_supplies_cluster_file(self, capsys, monkeypatch, net):
        monkeypatch.setenv(ENV_CLUSTER, net.cfg)
        code, stdout, _ = run(capsys, "query", "--hub", net.hub, "--format", "json",
                              "SELECT Patientid FROM patient_details WHERE Patientid = 101")
        assert code == 0
        assert json.loads(stdout) == [{"Patientid": 101}]


class TestTableCommands:
    def test_create_insert_query_cycle(self, capsys, net):
        schema_file = net.root / "cli_rows.json"
        schema_file.write_text(json.dumps({
            "table": "cli_rows",
            "attributes": [{"name": "k", "type": "INTEGER"},
                           {"name": "v", "type": "TEXT"}],
        }))
        code, stdout, _ = run(capsys, "create-table", "--cluster", net.cfg, str(schema_file))
        assert code == 0 and "created table cli_rows" in stdout

        code, stdout, _ = run(capsys, "insert", "--cluster", net.cfg,
                              "--hub", net.hub, "cli_rows", "7", "seven")
        assert code == 0 and "inserted row 1" in stdout

        # wrong arity: rejected locally, nothing stored
        code, _, stderr = run(capsys, "insert", "--cluster", net.cfg,
                              "--hub", net.hub, "cli_rows", "8")
        assert code == 1 and "2 attributes" in stderr

        # non-integer where an integer is needed
        code, _, stderr = run(capsys, "insert", "--cluster", net.cfg,
                              "--hub", net.hub, "cli_rows", "x", "y")
        assert code == 1 and "needs an integer" in stderr

        code, stdout, _ = run(capsys, "query", "--cluster", net.cfg,
                              "--hub", net.hub, "--format", "json",
                              "SELECT * FROM cli_rows")
        assert code == 0
        assert json.loads(stdout) == [{"k": 7, "v": "seven"}]

    @pytest.mark.parametrize("token", ["\u0661\u0660\u0661", "1_01", " 51 ", "+51", "-5", ""])
    def test_integer_must_be_ascii_digits(self, capsys, net, token):
        # a query's literal is ASCII digits, so a value written any other
        # way could be stored but never named; nothing is stored
        before = net.cluster.query("SELECT Patientid FROM patient_details").indices
        code, _, stderr = run(capsys, "insert", "--cluster", net.cfg, "--hub", net.hub,
                              "patient_details", token, "Eve", "33", "Flu")
        assert code == 1
        assert f"attribute 'Patientid' needs an integer, got {token!r}" in stderr
        assert net.cluster.query("SELECT Patientid FROM patient_details").indices == before

    def test_create_table_bad_json(self, capsys, net):
        bad = net.root / "bad.json"
        bad.write_text("{not json")
        code, _, stderr = run(capsys, "create-table", "--cluster", net.cfg, str(bad))
        assert code == 1 and "not valid JSON" in stderr

    def test_create_table_missing_file(self, capsys, net):
        code, _, _ = run(capsys, "create-table", "--cluster", net.cfg,
                         str(net.root / "nope.json"))
        assert code == 1


class TestLoadCsv:
    def make_table(self, capsys, net, name):
        schema_file = net.root / f"{name}.json"
        schema_file.write_text(json.dumps({
            "table": name,
            "attributes": [{"name": "k", "type": "INTEGER"},
                           {"name": "v", "type": "TEXT"}],
        }))
        assert run(capsys, "create-table", "--cluster", net.cfg, str(schema_file))[0] == 0

    def test_load_and_query(self, capsys, net):
        self.make_table(capsys, net, "cli_csv")
        data = net.root / "rows.csv"
        data.write_text('k,v\n1,plain\n2,"has, comma"\n3,émigré\n', encoding="utf-8")
        code, stdout, _ = run(capsys, "load-csv", "--cluster", net.cfg,
                              "--hub", net.hub, "cli_csv", str(data))
        assert code == 0 and "loaded 3 rows" in stdout
        code, stdout, _ = run(capsys, "query", "--cluster", net.cfg,
                              "--hub", net.hub, "--format", "json",
                              "SELECT v FROM cli_csv WHERE k >= 2")
        assert json.loads(stdout) == [{"v": "has, comma"}, {"v": "émigré"}]

    def test_header_must_match_schema(self, capsys, net):
        self.make_table(capsys, net, "cli_csv2")
        data = net.root / "bad_header.csv"
        data.write_text("k,wrong\n1,x\n")
        code, _, stderr = run(capsys, "load-csv", "--cluster", net.cfg,
                              "--hub", net.hub, "cli_csv2", str(data))
        assert code == 1 and "does not match schema" in stderr
        # nothing was stored
        code, stdout, _ = run(capsys, "query", "--cluster", net.cfg,
                              "--hub", net.hub, "--format", "json",
                              "SELECT * FROM cli_csv2")
        assert json.loads(stdout) == []

    def test_integer_with_spaces_rejected(self, capsys, net):
        self.make_table(capsys, net, "cli_csv4")
        data = net.root / "spaced.csv"
        data.write_text("k,v\n1,x\n 2 ,y\n")
        code, _, stderr = run(capsys, "load-csv", "--cluster", net.cfg,
                              "--hub", net.hub, "cli_csv4", str(data))
        assert code == 1 and "attribute 'k' needs an integer, got ' 2 '" in stderr
        # every row is parsed before any is stored
        code, stdout, _ = run(capsys, "query", "--cluster", net.cfg,
                              "--hub", net.hub, "--format", "json",
                              "SELECT * FROM cli_csv4")
        assert json.loads(stdout) == []

    def test_empty_file_rejected(self, capsys, net):
        self.make_table(capsys, net, "cli_csv3")
        data = net.root / "empty.csv"
        data.write_text("")
        code, _, stderr = run(capsys, "load-csv", "--cluster", net.cfg,
                              "--hub", net.hub, "cli_csv3", str(data))
        assert code == 1 and "empty" in stderr


class TestQueryCommand:
    def test_text_format(self, capsys, net):
        code, stdout, _ = run(capsys, "query", "--cluster", net.cfg, "--hub", net.hub,
                              "SELECT Patientname FROM patient_details WHERE Diagonosis = 'Aids'")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "Patientname"
        assert lines[1] == "-" * len("Patientname")
        assert lines[2:] == ["Ann", "Dona"]

    def test_text_format_multi_column_alignment(self, capsys, net):
        code, stdout, _ = run(capsys, "query", "--cluster", net.cfg, "--hub", net.hub,
                              "SELECT * FROM patient_details WHERE Patientid = 102")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].split() == ["Patientid", "Patientname", "Doctorid", "Diagonosis"]
        assert lines[2].split() == ["102", "Bony", "21", "Cancer"]
        # columns line up: every header starts where its value starts
        assert lines[0].index("Patientname") == lines[2].index("Bony")
        assert lines[0].index("Diagonosis") == lines[2].index("Cancer")

    def test_json_format(self, capsys, net):
        code, stdout, _ = run(capsys, "query", "--cluster", net.cfg, "--hub", net.hub,
                              "--format", "json",
                              "SELECT Patientid, Doctorid FROM patient_details WHERE Doctorid < 30")
        assert code == 0
        assert json.loads(stdout) == [
            {"Patientid": 102, "Doctorid": 21},
            {"Patientid": 104, "Doctorid": 26},
        ]

    def test_syntax_error_exits_1(self, capsys, net):
        code, _, stderr = run(capsys, "query", "--cluster", net.cfg, "--hub", net.hub,
                              "SELECT FROM patient_details")
        assert code == 1
        assert "query error" in stderr and "offset 7" in stderr

    def test_unknown_table_exits_2(self, capsys, net):
        code, _, stderr = run(capsys, "query", "--cluster", net.cfg, "--hub", net.hub,
                              "SELECT a FROM ghost")
        assert code == 2 and "NO_SUCH_TABLE" in stderr

    def test_hub_unreachable_exits_2(self, capsys, net):
        code, _, stderr = run(capsys, "query", "--cluster", net.cfg,
                              "--hub", "127.0.0.1:1",
                              "SELECT Patientid FROM patient_details")
        assert code == 2 and "THRESHOLD_UNAVAILABLE" in stderr

    @pytest.mark.parametrize("timeout", ["inf", "1e30", "nan", "0", "-1"])
    def test_timeout_out_of_range_exits_1_before_any_request(
        self, capsys, net, monkeypatch, timeout
    ):
        sent = []
        encode_frame = protocol.encode_frame
        monkeypatch.setattr(
            protocol, "encode_frame", lambda msg: sent.append(msg) or encode_frame(msg)
        )
        code, stdout, stderr = run(capsys, "query", "--cluster", net.cfg, "--hub", net.hub,
                                   "--timeout", timeout, "SELECT Patientid FROM patient_details")
        assert code == 1 and stdout == ""
        [line] = stderr.splitlines()
        assert line.startswith("ssdb: error: timeout must be in (0, ")
        assert sent == []


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ssdb", "gen-cluster", "3", "2",
             "--out", str(tmp_path / "c.json")],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0
        assert ClusterConfig.load(tmp_path / "c.json").n == 3

    def test_python_dash_m_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ssdb"],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 1


def free_ports(count):
    """Loopback ports the kernel just handed out, all released again."""
    socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(count)]
    ports = [sock.getsockname()[1] for sock in socks]
    for sock in socks:
        sock.close()
    return ports


def wait_accepting(proc, addr, timeout=20.0):
    deadline = time.monotonic() + timeout
    while True:
        assert proc.poll() is None, f"daemon for {addr} exited with {proc.returncode}"
        try:
            socket.create_connection(protocol.parse_addr(addr), timeout=1.0).close()
            return
        except OSError:
            assert time.monotonic() < deadline, f"nothing listening on {addr}"
            time.sleep(0.02)


class TestDaemons:
    def test_server_and_hub_serve_until_sigterm(self, tmp_path, capsys):
        """3 `ssdb server` and 1 `ssdb hub` processes, driven through the CLI."""
        hub_port, *server_ports = free_ports(4)
        hub = f"127.0.0.1:{hub_port}"
        servers = tuple(
            ServerInfo(f"s{k}", k, f"127.0.0.1:{port}") for k, port in enumerate(server_ports, 1)
        )
        cfg = str(tmp_path / "cluster.json")
        ClusterConfig(p=MERSENNE_61, n=3, t=2, servers=servers).save(cfg)
        commands = {
            info.address: ["server", "--cluster", cfg, "--id", info.server_id,
                           "--data-dir", str(tmp_path / info.server_id)]
            for info in servers
        }
        commands[hub] = ["hub", "--cluster", cfg, "--listen", hub]
        src = str(Path(ssdb.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        procs = {}
        try:
            for addr, args in commands.items():
                procs[addr] = subprocess.Popen(
                    [sys.executable, "-m", "ssdb", *args], env=env, text=True,
                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                )
            for addr, proc in procs.items():
                wait_accepting(proc, addr)

            schema_file = tmp_path / "daemons.json"
            schema_file.write_text(json.dumps({
                "table": "daemons",
                "attributes": [{"name": "k", "type": "INTEGER"},
                               {"name": "v", "type": "TEXT"}],
            }))
            assert run(capsys, "create-table", "--cluster", cfg, str(schema_file))[0] == 0
            code, stdout, _ = run(capsys, "insert", "--cluster", cfg, "--hub", hub,
                                  "daemons", "7", "seven")
            assert code == 0 and "inserted row 1 into daemons" in stdout
            code, stdout, _ = run(capsys, "query", "--cluster", cfg, "--hub", hub,
                                  "--format", "json", "SELECT * FROM daemons")
            assert code == 0 and json.loads(stdout) == [{"k": 7, "v": "seven"}]
            protocol.close_idle()

            for addr, proc in procs.items():
                proc.send_signal(signal.SIGTERM)
                out, _ = proc.communicate(timeout=20)
                assert proc.returncode == 0, out
                assert f"listening on {addr}" in out
                socket.create_server(protocol.parse_addr(addr)).close()  # the port is free
        finally:
            protocol.close_idle()
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                proc.wait(timeout=10)
                proc.stdout.close()
