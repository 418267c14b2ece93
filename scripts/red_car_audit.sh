#!/usr/bin/env bash
# Generate the red-car benchmark, fit the two regression baselines, and audit
# both for counterfactual fairness. The full model passes here (its fitted
# weights cancel the protected effect exactly); the unaware model fails.
set -euo pipefail

out=${1:-/tmp/cfair-red-car}
n=${2:-100000}

cfair scenario red_car --n "$n" --seed 0 --out "$out"

for recipe in full unaware; do
    cfair fit "$out/model.json" "$out/data.csv" \
        --recipe "$recipe" --out "$out/$recipe.json"
    echo "== $recipe =="
    cfair audit "$out/$recipe.json" "$out/model.json" "$out/data.csv" \
        --criterion cf --a A=1 --a-prime A=-1 \
        --out "$out/audit_$recipe"
done

echo "reports and density CSVs under $out/audit_{full,unaware}/"
