"""Threshold-secret-shared database.

A dealer splits every attribute value into Shamir shares over a prime
field and spreads them across n share servers; any t of them suffice to
answer a SELECT, fewer than t reveal nothing at all. Queries are decoded
and filtered entirely on the client.
"""

from .client import (
    Dealer,
    HubClient,
    Predicate,
    Query,
    QuerySyntaxError,
    ResultSet,
    evaluate_predicate,
    execute_query,
    parse_query,
)
from .encoding import Attribute, AttrType, TableSchema, encode_value
from .field import MERSENNE_61
from .hub import ClusterConfig, Hub, ServerInfo
from .protocol import RemoteError, SsdbError
from .server import ShareServer
from .shamir import InsufficientSharesError, lagrange_weights, reconstruct, split
from .testnet import TestCluster

__version__ = "0.1.0"

__all__ = [
    "MERSENNE_61",
    "Attribute",
    "AttrType",
    "ClusterConfig",
    "Dealer",
    "Hub",
    "HubClient",
    "InsufficientSharesError",
    "Predicate",
    "Query",
    "QuerySyntaxError",
    "RemoteError",
    "ResultSet",
    "ServerInfo",
    "ShareServer",
    "SsdbError",
    "TableSchema",
    "TestCluster",
    "encode_value",
    "evaluate_predicate",
    "execute_query",
    "lagrange_weights",
    "parse_query",
    "reconstruct",
    "split",
]
