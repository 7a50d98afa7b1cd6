#!/usr/bin/env bash
# Spin up a 3-server cluster on loopback, load the sample hospital table,
# and run a few queries. Everything lives in a temp directory; ^C cleans up.
# Run it from anywhere with ssdb installed, or from the repo root with
# PYTHONPATH=src.
set -euo pipefail

DEMO=$(dirname "$0")
WORK=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; wait; rm -rf "$WORK"' EXIT

SSDB="python3 -m ssdb"
HUB=127.0.0.1:7600

wait_for_port() {  # until 127.0.0.1:$1 takes a connection, at most 10 s
  for _ in $(seq 100); do
    if (: <"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then return 0; fi
    sleep 0.1
  done
  echo "nothing is listening on port $1" >&2
  return 1
}

$SSDB gen-cluster 3 2 --base-port 7601 --out "$WORK/cluster.json"
export SSDB_CLUSTER="$WORK/cluster.json"

SERVER_PID=()
for k in 1 2 3; do
  $SSDB server --id "s$k" --data-dir "$WORK/s$k" &
  SERVER_PID[$k]=$!
done
$SSDB hub --listen "$HUB" &
for port in 7600 7601 7602 7603; do wait_for_port "$port"; done

$SSDB create-table "$DEMO/schema.json"
$SSDB load-csv    --hub "$HUB" patient_details "$DEMO/patients.csv"
$SSDB insert      --hub "$HUB" patient_details 105 Eve 33 Flu

echo
echo '== every row, reassembled from shares =='
$SSDB query --hub "$HUB" 'SELECT * FROM patient_details'

echo
echo "== names of patients diagnosed with Aids =="
$SSDB query --hub "$HUB" "SELECT Patientname FROM patient_details WHERE Diagonosis = 'Aids'"

echo
echo '== doctors under 40, as JSON =='
$SSDB query --hub "$HUB" --format json \
  'SELECT Patientid, Doctorid FROM patient_details WHERE Doctorid < 40'

echo
echo '== patients of doctor 99, who has none: one fetch round, no rows =='
$SSDB query --hub "$HUB" 'SELECT Patientname FROM patient_details WHERE Doctorid = 99'

echo
echo "== Aids patients again, with server s1 stopped =="
kill "${SERVER_PID[1]}"
wait "${SERVER_PID[1]}" || true
# a fresh CLI run reads the schema through the hub, which fails over to s2
$SSDB query --hub "$HUB" "SELECT Patientname FROM patient_details WHERE Diagonosis = 'Aids'"

echo
echo "note: each server's $WORK/s*/patient_details/rows.log holds only"
echo 'field-element shares; no plaintext value ever reaches a server.'
