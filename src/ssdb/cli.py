"""Command-line front end: run daemons, define tables, insert, query.

Exit codes: 0 success, 1 usage error (bad arguments or malformed local
input), 2 runtime error (network, protocol, or server-reported).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import signal
import sys
import threading

from . import protocol
from .client import Dealer, HubClient, QuerySyntaxError, execute_query
from .encoding import AttrType, TableSchema
from .field import MERSENNE_61
from .hub import ClusterConfig, Hub, ServerInfo
from .protocol import SsdbError
from .server import ShareServer

ENV_CLUSTER = "SSDB_CLUSTER"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(args) -> ClusterConfig:
    path = args.cluster or os.environ.get(ENV_CLUSTER)
    if not path:
        raise ValueError(f"no cluster file: pass --cluster or set {ENV_CLUSTER}")
    return ClusterConfig.load(path)


def _parse_values(schema: TableSchema, raw: list[str]) -> list:
    if len(raw) != len(schema.attributes):
        raise ValueError(
            f"{schema.table_name!r} has {len(schema.attributes)} attributes, "
            f"got {len(raw)} values"
        )
    values = []
    for attr, token in zip(schema.attributes, raw):
        if attr.type is AttrType.INTEGER:
            try:
                values.append(int(token, 10))
            except ValueError:
                raise ValueError(f"attribute {attr.name!r} needs an integer, got {token!r}") from None
        else:
            values.append(token)
    return values


def _run_daemon(daemon: protocol.TcpService, banner: str) -> int:
    """Start `daemon`, print `banner` and its address, and stop it on SIGTERM or SIGINT."""
    stop = threading.Event()
    try:
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        signal.signal(signal.SIGINT, lambda *_: stop.set())
    except ValueError:
        pass  # not the main thread
    daemon.start()
    try:
        print(f"{banner} listening on {daemon.addr_str}", flush=True)
        stop.wait()
    finally:
        daemon.stop()
    return 0


def _insert(args, read_rows) -> list[int]:
    """Parse every row `read_rows(schema)` returns, then insert each; their indices."""
    config = _load_config(args)
    hub = HubClient(args.hub)
    schema = hub.get_schema(args.table).schema
    rows = [_parse_values(schema, raw) for raw in read_rows(schema)]
    dealer = Dealer(hub, config)
    return [dealer.insert_row(schema, values) for values in rows]


# --- subcommands -------------------------------------------------------------


def _cmd_gen_cluster(args) -> int:
    if args.n > 16:
        raise ValueError(f"at most 16 servers, got n={args.n}")
    servers = tuple(
        ServerInfo(f"s{k}", k, f"{args.host}:{args.base_port + k - 1}")
        for k in range(1, args.n + 1)
    )
    config = ClusterConfig(p=MERSENNE_61, n=args.n, t=args.t, servers=servers)
    config.save(args.out)
    print(f"wrote {args.out}: {args.n} servers, threshold {args.t}")
    return 0


def _cmd_server(args) -> int:
    config = _load_config(args)
    try:
        info = config.server_by_id(args.id)
    except KeyError:
        raise ValueError(f"server id {args.id!r} is not in the cluster file") from None
    listen = protocol.parse_addr(args.listen or info.address)
    server = ShareServer(info.server_id, info.x_coord, args.data_dir, listen=listen)
    return _run_daemon(server, f"server {info.server_id} (x={info.x_coord})")


def _cmd_hub(args) -> int:
    config = _load_config(args)
    hub = Hub(config, listen=protocol.parse_addr(args.listen))
    return _run_daemon(hub, f"hub for {config.n} servers (t={config.t})")


def _cmd_create_table(args) -> int:
    config = _load_config(args)
    with open(args.schema, encoding="utf-8") as fh:
        try:
            schema = TableSchema.from_json_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.schema}: not valid JSON: {exc}") from None
    Dealer(None, config).create_table(schema)  # writes go straight to the servers
    print(f"created table {schema.table_name}")
    return 0


def _cmd_insert(args) -> int:
    [index] = _insert(args, lambda schema: [args.values])
    print(f"inserted row {index} into {args.table}")
    return 0


def _cmd_load_csv(args) -> int:
    def read_rows(schema: TableSchema) -> list[list[str]]:
        with open(args.file, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{args.file}: empty file, expected a header row") from None
            if header != list(schema.attr_names()):
                raise ValueError(
                    f"{args.file}: header {header} does not match schema "
                    f"{list(schema.attr_names())}"
                )
            return list(reader)

    indices = _insert(args, read_rows)
    print(f"loaded {len(indices)} rows into {args.table}")
    return 0


def _cmd_query(args) -> int:
    config = _load_config(args)
    hub = HubClient(args.hub)
    result = execute_query(args.query, hub, config, timeout=args.timeout)
    if args.format == "json":
        print(json.dumps(result.to_json_rows(), indent=2))
        return 0
    widths = [
        max(len(name), *(len(str(row[i])) for row in result.rows), 0)
        for i, name in enumerate(result.columns)
    ]
    print("  ".join(name.ljust(w) for name, w in zip(result.columns, widths)).rstrip())
    print("  ".join("-" * w for w in widths))
    for row in result.rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip())
    return 0


# --- entry point -------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="ssdb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p, hub=True):
        p.add_argument("--cluster", help=f"cluster config file (default: ${ENV_CLUSTER})")
        if hub:
            p.add_argument("--hub", required=True, help="hub address, host:port")

    p = sub.add_parser("gen-cluster", help="write a cluster config file")
    p.add_argument("n", type=int, help="number of share servers (max 16)")
    p.add_argument("t", type=int, help="reconstruction threshold")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--base-port", type=int, default=7101)
    p.add_argument("--out", default="cluster.json")
    p.set_defaults(func=_cmd_gen_cluster)

    p = sub.add_parser("server", help="run one share server")
    common(p, hub=False)
    p.add_argument("--id", required=True, help="server id from the cluster file")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--listen", help="host:port (default: the configured address)")
    p.set_defaults(func=_cmd_server)

    p = sub.add_parser("hub", help="run the routing hub")
    common(p, hub=False)
    p.add_argument("--listen", default="127.0.0.1:7100", help="host:port")
    p.set_defaults(func=_cmd_hub)

    p = sub.add_parser("create-table", help="create a table on every server")
    common(p, hub=False)
    p.add_argument("schema", help="schema JSON file")
    p.set_defaults(func=_cmd_create_table)

    p = sub.add_parser("insert", help="split one row into shares and store it")
    common(p)
    p.add_argument("table")
    p.add_argument("values", nargs="+", help="one value per attribute, in schema order")
    p.set_defaults(func=_cmd_insert)

    p = sub.add_parser("load-csv", help="bulk insert from a CSV file with a header row")
    common(p)
    p.add_argument("table")
    p.add_argument("file")
    p.set_defaults(func=_cmd_load_csv)

    p = sub.add_parser("query", help="run a SELECT and print the rows")
    common(p)
    p.add_argument("query", help="SELECT attrs FROM table [WHERE attr OP literal]")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timeout", type=float, default=10.0)
    p.set_defaults(func=_cmd_query)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except QuerySyntaxError as exc:
        print(f"ssdb: query error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"ssdb: error: {exc}", file=sys.stderr)
        return 1
    except SsdbError as exc:
        print(f"ssdb: error [{exc.code}]: {exc.detail}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ssdb: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
