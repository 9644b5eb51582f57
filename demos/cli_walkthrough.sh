#!/usr/bin/env bash
# Full command-line tour: synthesize data, extract features from trial
# signals, train, evaluate, compare.
# Every command is deterministic: identical flags and seeds reproduce
# byte-identical outputs at a fixed BLAS thread count.
set -euo pipefail

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
echo "working in $WORK"

# A feature CSV's rows must be exactly what Python's '%.17g' makes of the labels
# and values its sidecar holds, one call per value: the writer's vectorized
# number kernel promises those bytes.
check_rendering() {
    python3 - "$1" <<'PY'
import struct, sys
import numpy as np
path = sys.argv[1]
raw = open(path + ".table", "rb").read()
rows, cols = struct.unpack_from("<QQ", raw, 32)
labels = np.frombuffer(raw, np.int8, rows, 48).tolist()
values = np.frombuffer(raw, "<f8", rows * cols, 48 + rows).reshape(rows, cols).tolist()
text = open(path, "rb").read()
want = "".join(("+1," if label == 1 else "-1,") + ",".join("%.17g" % v for v in row) + "\n"
               for label, row in zip(labels, values))
assert text[text.index(b"\n") + 1:] == want.encode("ascii"), path
print(f"{rows}x{cols} values, each written as '%.17g' % v writes it")
PY
}

echo; echo "== synth: a 2:1-imbalanced Gaussian feature table =="
python3 -m aucmax synth --n 2000 --dim 12 --pos-frac 0.333 --sep 1.5 --seed 7 \
    --out "$WORK/data"
head -c 300 "$WORK/data/features.csv"; echo; echo "..."
# the sidecar: 32-byte digest, 16 bytes of counts, n int8 labels, n*d float64 values
test "$(wc -c < "$WORK/data/features.csv.table")" -eq $((48 + 2000 + 8 * 2000 * 12))
echo "sidecar: $((48 + 2000 + 8 * 2000 * 12)) bytes, as its layout asks"
check_rendering "$WORK/data/features.csv"

echo; echo "== extract: Set2 features from two generated trials (one CSV, one binary) =="
python3 - "$WORK/trials" <<'PY'
import sys
from pathlib import Path
import numpy as np
from aucmax.signals import TrialSignal, write_signal_binary, write_signal_csv
out = Path(sys.argv[1])
out.mkdir()
rng = np.random.default_rng(0)
t = np.arange(20 * 128) / 128.0                 # 20 s at 128 Hz, 3 s of it pre-trial
for i, (write, name) in enumerate(((write_signal_csv, "trial0.csv"),
                                   (write_signal_binary, "trial1.bin"))):
    data = rng.standard_normal((14, t.size)) + 0.5 * np.sin(2 * np.pi * (8 + 4 * i) * t)
    write(TrialSignal(data, 128.0, pretrial_seconds=3.0), out / name)
(out.parent / "labels.csv").write_text("trial,label\ntrial0,+1\ntrial1,-1\n")
PY
python3 -m aucmax extract --signals "$WORK/trials" --labels "$WORK/labels.csv" --set 2 \
    --out "$WORK/ext"
python3 - "$WORK/ext/manifest.json" <<'PY'
import json, sys
manifest = json.load(open(sys.argv[1]))
rows = sum(trial["rows"] for trial in manifest["trials"])
print(f"{rows} windows x {manifest['layout']['n_features']} features")
PY

echo; echo "== train: alternating GDA with the default protocol =="
python3 -m aucmax train --features "$WORK/data/features.csv" --solver alt-gda \
    --seed 3 --out "$WORK/run"
echo "trace head:"; head -4 "$WORK/run/trace.csv"
echo "report:"; python3 -m json.tool "$WORK/run/report.json" | sed -n 1,15p

echo; echo "== eval: the stored model on the full table =="
python3 -m aucmax eval --features "$WORK/data/features.csv" \
    --model "$WORK/run/model.json" --out "$WORK/eval"
python3 -m json.tool "$WORK/eval/report.json"

echo; echo "== eval refuses a hand-edited model: a kept column index of -1 =="
python3 - "$WORK/run/model.json" "$WORK/tampered.json" <<'PY'
import json, sys
model = json.load(open(sys.argv[1]))
model["train_meta"]["standardizer"]["kept"][0] = -1
json.dump(model, open(sys.argv[2], "w"))
PY
status=0
python3 -m aucmax eval --features "$WORK/data/features.csv" \
    --model "$WORK/tampered.json" --out "$WORK/eval_tampered" 2> "$WORK/tampered.err" || status=$?
cat "$WORK/tampered.err"
test "$status" -eq 1
grep -q "^error: $WORK/tampered.json: " "$WORK/tampered.err"
test ! -e "$WORK/eval_tampered/report.json"
echo "refused with exit 1, naming the file, and no report written"

echo; echo "== train refuses a value out of its key's range before reading the table =="
status=0
python3 -m aucmax train --features "$WORK/data/features.csv" --solver svm --max-iter 0 \
    --out "$WORK/run_refused" 2> "$WORK/refused.err" || status=$?
cat "$WORK/refused.err"
test "$status" -eq 1
grep -qx "error: max_iterations must be a positive integer" "$WORK/refused.err"
test ! -e "$WORK/run_refused"
echo "refused with exit 1, naming the key, and no output directory created"

echo; echo "== the seed is a key like any other: a negative one is refused before any work =="
status=0
python3 -m aucmax synth --n 100 --seed -1 --out "$WORK/synth_refused" \
    2> "$WORK/seed.err" || status=$?
cat "$WORK/seed.err"
test "$status" -eq 1
grep -qx "error: seed must be a nonnegative integer" "$WORK/seed.err"
test ! -e "$WORK/synth_refused"
echo "refused with exit 1, naming the key, and no output directory created"

echo; echo "== extract --set 4: the Set4 table of the same two trials =="
python3 -m aucmax extract --signals "$WORK/trials" --labels "$WORK/labels.csv" --set 4 \
    --out "$WORK/ext4"
check_rendering "$WORK/ext4/features.csv"

echo; echo "== extract refuses a repeated correlation lag before reading any trial =="
status=0
python3 -m aucmax extract --signals "$WORK/trials" --labels "$WORK/labels.csv" --set 4 \
    --corr-lags 0,0 --out "$WORK/ext_lags" 2> "$WORK/lags.err" || status=$?
cat "$WORK/lags.err"
test "$status" -eq 1
grep -qx "error: corr_lags must be a list of distinct nonnegative integers" "$WORK/lags.err"
test ! -e "$WORK/ext_lags"
echo "refused with exit 1, naming the key, and no output directory created"

echo; echo "== extract draws no random numbers, so it has no seed: --seed is a usage error =="
status=0
python3 -m aucmax extract --signals "$WORK/trials" --labels "$WORK/labels.csv" --seed 1 \
    --out "$WORK/ext_seed" 2> "$WORK/ext_seed.err" || status=$?
tail -n 1 "$WORK/ext_seed.err"
test "$status" -eq 2
test ! -e "$WORK/ext_seed"
echo "refused with exit 2, and no output directory created"

echo; echo "== extract's default channels on a trial of fewer than 32: every channel =="
python3 - "$WORK/four" <<'PY'
import sys
from pathlib import Path
import numpy as np
from aucmax.signals import TrialSignal, write_signal_csv
out = Path(sys.argv[1])
out.mkdir()
data = np.random.default_rng(1).standard_normal((4, 8 * 128))
write_signal_csv(TrialSignal(data, 128.0, pretrial_seconds=3.0), out / "trial0.csv")
PY
python3 -m aucmax extract --signals "$WORK/four" --labels "$WORK/labels.csv" --out "$WORK/ext_four"
python3 - "$WORK/ext_four/manifest.json" <<'PY'
import json, sys
channels = json.load(open(sys.argv[1]))["layout"]["channels"]
assert channels == [0, 1, 2, 3], channels
print(f"layout channels {channels}")
PY

echo; echo "== extract of trials at 128 and 256 Hz: only Set4's lags (0 and fs/4) differ =="
python3 - "$WORK/rates" <<'PY'
import sys
from pathlib import Path
import numpy as np
from aucmax.signals import TrialSignal, write_signal_binary, write_signal_csv
out = Path(sys.argv[1])
out.mkdir()
rng = np.random.default_rng(2)
write_signal_csv(TrialSignal(rng.standard_normal((4, 8 * 128)), 128.0, 3.0), out / "trial0.csv")
write_signal_binary(TrialSignal(rng.standard_normal((4, 8 * 256)), 256.0, 3.0), out / "trial1.bin")
PY
python3 -m aucmax extract --signals "$WORK/rates" --labels "$WORK/labels.csv" --set 1 \
    --out "$WORK/ext_rates"
python3 - "$WORK/ext_rates/manifest.json" <<'PY'
import json, sys
lags = json.load(open(sys.argv[1]))["layout"]["corr_lags"]
assert lags == [], lags
print(f"Set1 layout corr_lags {lags}")
PY
status=0
python3 -m aucmax extract --signals "$WORK/rates" --labels "$WORK/labels.csv" --set 4 \
    --out "$WORK/ext_rates4" 2> "$WORK/rates.err" || status=$?
cat "$WORK/rates.err"
test "$status" -eq 1
grep -qx "error: $WORK/rates/trial1.bin: trial produced an inconsistent feature layout" \
    "$WORK/rates.err"
test ! -e "$WORK/ext_rates4"
echo "Set4 refused with exit 1, naming the second trial, and no output directory created"

echo; echo "== compare refuses a config key it does not have: C is tuned over c_grid =="
echo '{"C": 1}' > "$WORK/compare_c.json"
status=0
python3 -m aucmax compare --features "$WORK/data/features.csv" --config "$WORK/compare_c.json" \
    --out "$WORK/cmp_refused" 2> "$WORK/compare_c.err" || status=$?
cat "$WORK/compare_c.err"
test "$status" -eq 1
grep -qx "error: $WORK/compare_c.json: compare has no key 'C'" "$WORK/compare_c.err"
test ! -e "$WORK/cmp_refused"
echo "refused with exit 1, naming the file and the key, and no output directory created"

echo; echo "== extract refuses one trial given as both .csv and .bin =="
mkdir "$WORK/twice"
cp "$WORK/trials/trial1.bin" "$WORK/twice/trial1.bin"
cp "$WORK/trials/trial0.csv" "$WORK/twice/trial1.csv"
status=0
python3 -m aucmax extract --signals "$WORK/twice" --labels "$WORK/labels.csv" \
    --out "$WORK/ext_twice" 2> "$WORK/twice.err" || status=$?
cat "$WORK/twice.err"
test "$status" -eq 1
grep -qx "error: trial 'trial1' is given twice: $WORK/twice/trial1.bin and $WORK/twice/trial1.csv" \
    "$WORK/twice.err"
test ! -e "$WORK/ext_twice"
echo "refused with exit 1, naming both files"

echo; echo "== extract skips the labels file when it sits among the signal files =="
mkdir "$WORK/among"
cp "$WORK/trials/"* "$WORK/labels.csv" "$WORK/among/"
python3 -m aucmax extract --signals "$WORK/among" --labels "$WORK/among/labels.csv" --set 2 \
    --out "$WORK/ext_among"
cmp "$WORK/ext/features.csv" "$WORK/ext_among/features.csv" && echo "byte-identical table"

echo; echo "== extract gives the same bytes on one CPU as on every CPU =="
# A 32-channel 63 s trial: reading it, building its Set4 windows and writing its
# table each cross the size above which the work is split among processes, one
# per CPU.
python3 - "$WORK/long" <<'PY'
import sys
from pathlib import Path
import numpy as np
from aucmax.signals import TrialSignal, write_signal_csv
out = Path(sys.argv[1])
out.mkdir()
data = np.random.default_rng(3).standard_normal((32, 63 * 128))
write_signal_csv(TrialSignal(data, 128.0, pretrial_seconds=3.0), out / "trial0.csv")
PY
if command -v taskset > /dev/null; then
    first_cpu=$(python3 -c "import os; print(min(os.sched_getaffinity(0)))")
    taskset -c "$first_cpu" python3 -m aucmax extract --signals "$WORK/long" \
        --labels "$WORK/labels.csv" --set 4 --out "$WORK/ext_one_cpu"
    python3 -m aucmax extract --signals "$WORK/long" --labels "$WORK/labels.csv" --set 4 \
        --out "$WORK/ext_all_cpus"
    cmp "$WORK/ext_one_cpu/features.csv" "$WORK/ext_all_cpus/features.csv"
    cmp "$WORK/ext_one_cpu/features.csv.table" "$WORK/ext_all_cpus/features.csv.table"
    echo "byte-identical table and sidecar on CPU $first_cpu alone and on all $(nproc)"
    check_rendering "$WORK/ext_all_cpus/features.csv"
    # A reader hashes a large CSV on one thread per CPU; the digest does not depend
    # on the mask: the table written on one CPU binds when read on all, and the reverse.
    bound="import sys, aucmax.data; assert aucmax.data._read_table(sys.argv[1]) is not None"
    python3 -c "$bound" "$WORK/ext_one_cpu/features.csv"
    taskset -c "$first_cpu" python3 -c "$bound" "$WORK/ext_all_cpus/features.csv"
    echo "each sidecar binds its CSV on CPU $first_cpu alone and on all $(nproc)"
else
    echo "taskset not found: one-CPU check skipped"
fi

echo; echo "== train gives the same bytes on one CPU as on every CPU at one BLAS thread =="
# OpenBLAS sizes its thread pool from the CPU mask, and a threaded product may sum in
# another order, so a model fitted on a wide table can differ in its last bits from
# one mask to another.  At one BLAS thread the mask does not matter.
if command -v taskset > /dev/null; then
    python3 -m aucmax synth --n 200 --dim 300 --seed 7 --out "$WORK/masks"
    first_cpu=$(python3 -c "import os; print(min(os.sched_getaffinity(0)))")
    OPENBLAS_NUM_THREADS=1 taskset -c "$first_cpu" python3 -m aucmax train \
        --features "$WORK/masks/features.csv" --solver newton --seed 3 --out "$WORK/newton_one_cpu"
    OPENBLAS_NUM_THREADS=1 python3 -m aucmax train --features "$WORK/masks/features.csv" \
        --solver newton --seed 3 --out "$WORK/newton_all_cpus"
    for name in model.json report.json trace.csv; do
        cmp "$WORK/newton_one_cpu/$name" "$WORK/newton_all_cpus/$name"
    done
    echo "byte-identical model, report and trace on CPU $first_cpu alone and on all $(nproc)"
else
    echo "taskset not found: one-CPU check skipped"
fi

echo; echo "== compare: tuned logistic vs tuned SVM vs the AUC maximizer =="
python3 -m aucmax compare --features "$WORK/data/features.csv" --solver newton \
    --seed 3 --out "$WORK/cmp"
python3 - "$WORK/cmp/comparison.csv" <<'PY'
import csv, sys
rows = list(csv.reader(open(sys.argv[1])))
widths = [max(len(r[i][:10]) for r in rows) for i in range(len(rows[0]))]
for r in rows:
    print("  ".join(f"{c[:10]:>{w}}" for c, w in zip(r, widths)))
PY
python3 - "$WORK/cmp/model_svm.json" <<'PY'
import json, sys
meta = json.load(open(sys.argv[1]))["train_meta"]
assert meta["converged"] is True, meta["converged"]
assert 0.0 <= meta["duality_gap"] <= 1e-6 * meta["objective"], meta
print(f"SVM refit: {meta['iterations']} interior-point iterations, "
      f"certified gap {meta['duality_gap']:.2e} on objective {meta['objective']:.6f}")
PY
python3 - "$WORK/cmp/model_logistic.json" <<'PY'
import json, sys
meta = json.load(open(sys.argv[1]))["train_meta"]
assert meta["converged"] is True, meta["converged"]
assert 0.0 <= meta["duality_gap"], meta
print(f"logistic refit: {meta['iterations']} Newton iterations, "
      f"certified gap {meta['duality_gap']:.2e} on objective {meta['objective']:.6f}")
PY

echo; echo "== compare's AUC model is the one train writes for the same solver and seed =="
python3 -m aucmax train --features "$WORK/data/features.csv" --solver newton \
    --seed 3 --out "$WORK/run_newton"
cmp "$WORK/cmp/model_auc.json" "$WORK/run_newton/model.json" && echo "byte-identical model"

echo; echo "== scoring the trace does not touch the fit: train with and without --no-trace-auc =="
for solver in "alt-gda --max-iter 300" "qn-broyden --max-iter 8"; do
    name=${solver%% *}
    python3 -m aucmax train --features "$WORK/data/features.csv" --solver $solver \
        --seed 3 --out "$WORK/scored_$name"
    python3 -m aucmax train --features "$WORK/data/features.csv" --solver $solver \
        --seed 3 --no-trace-auc --out "$WORK/unscored_$name"
    for file in model.json report.json; do
        cmp "$WORK/scored_$name/$file" "$WORK/unscored_$name/$file"
    done
    echo "$name: byte-identical model and report"
done

echo; echo "== determinism: rerun train with identical flags =="
cp "$WORK/run/model.json" "$WORK/model_first.json"
python3 -m aucmax train --features "$WORK/data/features.csv" --solver alt-gda \
    --seed 3 --out "$WORK/run"
cmp "$WORK/model_first.json" "$WORK/run/model.json" && echo "byte-identical model"

echo; echo "== determinism on a wide table: fewer training rows than columns =="
python3 -m aucmax synth --n 200 --dim 300 --seed 7 --out "$WORK/wide"
for run in first second; do
    python3 -m aucmax train --features "$WORK/wide/features.csv" --solver alt-gda \
        --seed 3 --out "$WORK/wide_run"
    mv "$WORK/wide_run" "$WORK/wide_$run"
done
diff -r "$WORK/wide_first" "$WORK/wide_second" && echo "byte-identical outputs, manifest included"

echo; echo "== config file: the same train with its keys in --config =="
cat > "$WORK/train.json" <<JSON
{"solver": "alt-gda", "seed": 3, "out": "$WORK/run_config"}
JSON
python3 -m aucmax train --features "$WORK/data/features.csv" --config "$WORK/train.json"
for name in model.json report.json trace.csv; do
    cmp "$WORK/run/$name" "$WORK/run_config/$name"
done
echo "byte-identical model, report and trace"
