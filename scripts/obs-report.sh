#!/bin/sh
# Aggregation smoke: run two short checkpointed fuzz campaigns over
# different seed ranges, merge their artifacts (checkpoints, campaign
# flight dumps) with tbtso-obs, and assert the merged report covers
# both. Then save the report and -compare it against itself: a report
# must never drift against its own bytes. Locally: make obs-report.
set -eu

workdir=$(mktemp -d)
cleanup() {
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$workdir/tbtso-fuzz" ./cmd/tbtso-fuzz
go build -o "$workdir/tbtso-obs" ./cmd/tbtso-obs

n1=200
n2=150
for run in 1 2; do
    dir="$workdir/run$run"
    mkdir -p "$dir"
    if [ "$run" = 1 ]; then n=$n1; seed=1; else n=$n2; seed=100001; fi
    "$workdir/tbtso-fuzz" -n "$n" -seed "$seed" -workers 2 \
        -obs.monitor residency -obs.flightdir "$dir" -ckpt "$dir/c.ckpt" \
        >/dev/null 2>"$dir/log" || {
        echo "obs-report: campaign $run failed:" >&2
        cat "$dir/log" >&2
        exit 1
    }
done

artifacts="$workdir/run1/c.ckpt $workdir/run1/tbtso-fuzz.campaign.flight.json \
$workdir/run2/c.ckpt $workdir/run2/tbtso-fuzz.campaign.flight.json"

report=$("$workdir/tbtso-obs" $artifacts)
echo "$report" | grep -q 'campaign: 2 checkpoints' || {
    echo "obs-report: expected 2 merged checkpoints:" >&2
    echo "$report" >&2
    exit 1
}
total=$((n1 + n2))
echo "$report" | grep -q "campaign: 2 checkpoints (0 incomplete), $total programs" || {
    echo "obs-report: merged program total is not $total:" >&2
    echo "$report" >&2
    exit 1
}
echo "$report" | grep -q 'flight: 2 dumps' || {
    echo "obs-report: expected 2 merged flight dumps:" >&2
    echo "$report" >&2
    exit 1
}

# The merged report is itself an artifact; it must not drift against
# its own bytes.
"$workdir/tbtso-obs" -json $artifacts >"$workdir/report.json"
"$workdir/tbtso-obs" -compare "$workdir/report.json" "$workdir/report.json" \
    >/dev/null || {
    echo "obs-report: report drifts against itself" >&2
    exit 1
}

echo "obs-report: ok (2 campaigns merged: $total programs, self-compare clean)"
