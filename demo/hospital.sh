#!/usr/bin/env bash
# Spin up a 3-server cluster on loopback, load the sample hospital table,
# and run a few queries. Everything lives in a temp directory; ^C cleans up.
set -euo pipefail

cd "$(dirname "$0")"
WORK=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

SSDB="python3 -m ssdb"
HUB=127.0.0.1:7600

$SSDB gen-cluster 3 2 --base-port 7601 --out "$WORK/cluster.json"
export SSDB_CLUSTER="$WORK/cluster.json"

for k in 1 2 3; do
  $SSDB server --id "s$k" --data-dir "$WORK/s$k" &
done
$SSDB hub --listen "$HUB" &
sleep 0.5

$SSDB create-table schema.json
$SSDB load-csv    --hub "$HUB" patient_details patients.csv
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
echo "note: each server's $WORK/s*/patient_details/rows.log holds only"
echo 'field-element shares; no plaintext value ever reaches a server.'
