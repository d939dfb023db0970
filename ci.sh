#!/usr/bin/env bash
# Local CI gate — the same steps .github/workflows/ci.yml runs.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> examples smoke"
cargo build --release --examples
for ex in examples/*.rs; do
  name="$(basename "$ex" .rs)"
  echo "--> example: $name"
  cargo run --release --quiet --example "$name" > /dev/null
done

# exp_report asserts every smoke budget (E15-E19) itself and exits
# non-zero on a miss; the checks here are on the artifacts it writes.
echo "==> exp_report --json --journal (asserts the E15-E19 budgets)"
cargo run -p vdo-bench --bin exp_report --release --quiet -- --json target/exp_report.json --journal target/journal.jsonl > /dev/null
python3 -c "import json; json.load(open('target/exp_report.json'))"
python3 -c "import json; [json.loads(l) for l in open('target/journal.jsonl')]"
test -n "$(ls target/e18_compact/seg-*.vdoj 2> /dev/null)" \
  || { echo "E18 compacted journal segments missing from target/e18_compact"; exit 1; }
test -s target/e19_alerts.log \
  || { echo "E19 alert log missing or empty at target/e19_alerts.log"; exit 1; }

echo "==> perfbench self-test (benchmark manifest, unit tests, every workload briefly)"
python3 perfbench/selftest.py

echo "CI green."
