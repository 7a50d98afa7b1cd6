"""Throwaway clusters on loopback TCP for tests and demos.

Everything runs in one process: n share servers, a hub, and a dealer,
each on a real socket so the wire path is exercised end to end. Servers
can be killed and revived to rehearse failure handling, and a seeded rng
makes whole runs reproducible byte for byte.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from . import protocol
from .client import Dealer, HubClient, ResultSet, execute_query
from .encoding import Attribute, AttrType, TableSchema
from .field import MERSENNE_61
from .hub import ClusterConfig, Hub, ServerInfo
from .server import ShareServer

# Small hospital table used across the docs and tests.
PATIENTS_TABLE = "patient_details"
PATIENTS_SCHEMA = TableSchema(
    table_name=PATIENTS_TABLE,
    attributes=(
        Attribute("Patientid", AttrType.INTEGER),
        Attribute("Patientname", AttrType.TEXT),
        Attribute("Doctorid", AttrType.INTEGER),
        Attribute("Diagonosis", AttrType.TEXT),
    ),
)
PATIENT_ROWS: tuple[tuple[int, str, int, str], ...] = (
    (101, "Ann", 51, "Aids"),
    (102, "Bony", 21, "Cancer"),
    (103, "Cara", 51, "Fever"),
    (104, "Dona", 26, "Aids"),
)


@dataclass
class ServerHandle:
    info: ServerInfo
    data_dir: Path
    server: Optional[ShareServer]  # None while killed


class TestCluster:
    """n servers + hub + dealer wired together over loopback."""

    __test__ = False  # not a pytest case despite the name

    def __init__(
        self,
        config: ClusterConfig,
        handles: list[ServerHandle],
        hub: Hub,
        dealer: Dealer,
        root: Path,
        owns_root: bool,
    ):
        self.config = config
        self.handles = {h.info.server_id: h for h in handles}
        self.hub = hub
        self.hub_client = HubClient(hub.addr_str)
        self.dealer = dealer
        self.root = root
        self._owns_root = owns_root

    @classmethod
    def start(
        cls,
        n: int,
        t: int,
        *,
        seed: int = 0,
        root_dir: Union[str, Path, None] = None,
    ) -> "TestCluster":
        if root_dir is None:
            root = Path(tempfile.mkdtemp(prefix="ssdb-cluster-"))
            owns_root = True
        else:
            root = Path(root_dir)
            root.mkdir(parents=True, exist_ok=True)
            owns_root = False

        # bring the servers up on ephemeral ports first, then describe
        # the resulting topology to the hub
        handles: list[ServerHandle] = []
        servers: list[ShareServer] = []
        try:
            for k in range(1, n + 1):
                server_id = f"s{k}"
                data_dir = root / server_id
                server = ShareServer(server_id, k, data_dir, listen=("127.0.0.1", 0))
                server.start()
                servers.append(server)
                info = ServerInfo(server_id, k, server.addr_str)
                handles.append(ServerHandle(info=info, data_dir=data_dir, server=server))

            config = ClusterConfig(p=MERSENNE_61, n=n, t=t, servers=tuple(h.info for h in handles))
            hub = Hub(config, listen=("127.0.0.1", 0))
            hub.start()
        except BaseException:
            for server in servers:
                server.stop()
            if owns_root:
                shutil.rmtree(root, ignore_errors=True)
            raise

        dealer = Dealer(None, config, rng=random.Random(seed))
        return cls(config, handles, hub, dealer, root, owns_root)

    # --- lifecycle ----------------------------------------------------------

    def kill_server(self, server_id: str) -> None:
        handle = self.handles[server_id]
        if handle.server is None:
            raise ValueError(f"{server_id} is already down")
        handle.server.stop()
        handle.server = None

    def revive_server(self, server_id: str) -> None:
        """Restart a killed server on its old address; it replays its log."""
        handle = self.handles[server_id]
        if handle.server is not None:
            raise ValueError(f"{server_id} is still running")
        listen = protocol.parse_addr(handle.info.address)
        server = ShareServer(server_id, handle.info.x_coord, handle.data_dir, listen=listen)
        server.start()
        handle.server = server

    def live_server_ids(self) -> list[str]:
        return [sid for sid, h in self.handles.items() if h.server is not None]

    def stop(self) -> None:
        """Stop every process piece and close this process's idle connections."""
        self.hub.stop()
        for handle in self.handles.values():
            if handle.server is not None:
                handle.server.stop()
                handle.server = None
        protocol.close_idle()
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "TestCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # --- convenience --------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        self.dealer.create_table(schema)

    def insert_row(self, schema: TableSchema, values) -> int:
        return self.dealer.insert_row(schema, values)

    def query(self, text: str, *, timeout: float = 10.0) -> ResultSet:
        return execute_query(text, self.hub_client, self.config, timeout=timeout)

    def rows_log_bytes(self, server_id: str, table: str) -> bytes:
        """Raw append-only log, for determinism and corruption tests."""
        return (self.handles[server_id].data_dir / table / "rows.log").read_bytes()

    def load_fixture_patients(self) -> None:
        """Create and fill the hospital table; only into an empty table."""
        self.dealer.create_table(PATIENTS_SCHEMA)
        if self.dealer.read_table(PATIENTS_TABLE).rows:
            raise ValueError(f"{PATIENTS_TABLE!r} already holds rows, refusing to reload")
        for row in PATIENT_ROWS:
            self.dealer.insert_row(PATIENTS_SCHEMA, row)
