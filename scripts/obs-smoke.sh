#!/bin/sh
# Observability smoke test, two stages. Stage 1: run a short monitored
# litmus sweep with the live ops endpoint up, scrape the Prometheus
# exposition while the endpoint lingers, and assert the Δ-residency
# monitor saw the sweep (histogram populated) and reported zero
# violations. Stage 2: run a monitored multi-worker fuzz campaign,
# scrape /coverage mid-campaign, and aggregate the campaign's artifacts
# with tbtso-obs, asserting a non-empty merged report. CI runs this as
# the obs-smoke job; locally: make obs-smoke.
set -eu

workdir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$workdir/tbtso-sim" ./cmd/tbtso-sim

"$workdir/tbtso-sim" -test SB -delta 50 -seeds 40 \
    -obs.listen 127.0.0.1:0 -obs.monitor residency -obs.linger 30s \
    >/dev/null 2>"$workdir/log" &
pid=$!

# The endpoint address is printed when the run finishes and the linger
# window opens.
addr=""
i=0
while [ $i -lt 150 ]; do
    addr=$(sed -n 's|.*endpoint http://\([^ ]*\) lingering.*|\1|p' "$workdir/log")
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "obs-smoke: tbtso-sim exited before the linger window" >&2
        cat "$workdir/log" >&2
        exit 1
    fi
    sleep 0.2
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "obs-smoke: ops endpoint never came up" >&2
    cat "$workdir/log" >&2
    exit 1
fi

metrics=$(curl -sf "http://$addr/metrics")

echo "$metrics" | grep -q '^tbtso_monitor_residency_ticks_count [1-9]' || {
    echo "obs-smoke: residency histogram empty — the monitor saw no commits:" >&2
    echo "$metrics" | grep residency >&2 || true
    exit 1
}
echo "$metrics" | grep -q '^tbtso_monitor_residency_violations_total 0$' || {
    echo "obs-smoke: expected zero Δ-residency violations, scrape disagrees:" >&2
    echo "$metrics" | grep residency >&2 || true
    exit 1
}
curl -sf "http://$addr/healthz" | grep -q '"status":"ok"' || {
    echo "obs-smoke: /healthz not ok" >&2
    exit 1
}

echo "obs-smoke: ok ($addr: residency histogram populated, zero violations)"
pid=""

# --- Stage 2: campaign coverage ------------------------------------

go build -o "$workdir/tbtso-fuzz" ./cmd/tbtso-fuzz
go build -o "$workdir/tbtso-obs" ./cmd/tbtso-obs

rundir="$workdir/run1"
mkdir -p "$rundir"
"$workdir/tbtso-fuzz" -n 600 -workers 4 \
    -obs.listen 127.0.0.1:0 -obs.monitor residency \
    -obs.flightdir "$rundir" -ckpt "$rundir/c.ckpt" \
    >/dev/null 2>"$workdir/fuzzlog" &
pid=$!

# tbtso-fuzz prints the endpoint address at campaign start, so the
# scrape below happens while workers are still running (or, at worst,
# against the final published snapshot just before exit).
addr=""
i=0
while [ $i -lt 150 ]; do
    addr=$(sed -n 's|.*ops endpoint http://\([^ ]*\).*|\1|p' "$workdir/fuzzlog" | head -1)
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "obs-smoke: tbtso-fuzz exited before printing the endpoint" >&2
        cat "$workdir/fuzzlog" >&2
        exit 1
    fi
    sleep 0.2
    i=$((i + 1))
done
[ -n "$addr" ] || {
    echo "obs-smoke: campaign ops endpoint never came up" >&2
    cat "$workdir/fuzzlog" >&2
    exit 1
}

# /coverage returns 404 until the first batch publishes; poll briefly.
cov="$rundir/coverage.json"
i=0
while [ $i -lt 150 ]; do
    if curl -sf "http://$addr/coverage" >"$cov" 2>/dev/null; then
        break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        break
    fi
    sleep 0.2
    i=$((i + 1))
done
grep -q '"kind": "coverage"' "$cov" || {
    echo "obs-smoke: /coverage scrape is not a coverage snapshot:" >&2
    head -5 "$cov" >&2 || true
    exit 1
}
grep -q '"programs"' "$cov" || {
    echo "obs-smoke: /coverage snapshot lacks program totals" >&2
    exit 1
}

wait "$pid" || {
    echo "obs-smoke: campaign failed:" >&2
    cat "$workdir/fuzzlog" >&2
    exit 1
}
pid=""

[ -f "$rundir/tbtso-fuzz.campaign.flight.json" ] || {
    echo "obs-smoke: campaign flight artifact missing" >&2
    ls "$rundir" >&2
    exit 1
}

report=$("$workdir/tbtso-obs" \
    "$rundir/c.ckpt" "$rundir/tbtso-fuzz.campaign.flight.json" "$cov")
echo "$report" | grep -q 'campaign: 1 checkpoints' || {
    echo "obs-smoke: tbtso-obs merged report missing campaign totals:" >&2
    echo "$report" >&2
    exit 1
}
echo "$report" | grep -Eq 'coverage: [1-9][0-9]* programs' || {
    echo "obs-smoke: tbtso-obs merged report has empty coverage:" >&2
    echo "$report" >&2
    exit 1
}

echo "obs-smoke: ok ($addr: /coverage scraped mid-campaign, tbtso-obs report non-empty)"
