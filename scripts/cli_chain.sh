#!/usr/bin/env bash
# The README's command-line chain on a tiny scene, through `python -m varimix`:
# synth -> extract -> prune (count, music) -> transform (mask, fda) -> unmix fcls,
# elmm, plmm, mesma (through fda, and with an early-stop threshold), sparse-l1,
# and greedy and exhaustive sparse-l0; checks that the scene directory holds its
# eight digested files and truth_meta.json and loads back to the scene its config
# synthesizes, bit for bit, that each solver log's phases sum to its wall_time_s
# and are phases the README lists, and that sparse-l1's files
# give back its logged cost (the L1 objective); then checks that a refused
# value (sparse-l0 with --k 0, also with an image that does not exist), flags of
# other solvers (fcls with --k and --re-threshold, or with --opts) or methods
# (prune --method count with --subspace-dim, transform --method weights with
# --bands), a missing input (unmix without --library, prune --method music
# without --image), a retired option (an --opts file with `rho`), a mask that
# keeps no band (transform --method mask --threshold 0), a NaN pruning threshold
# (prune --method count --angle-threshold nan), a library whose class means
# agree, exactly or up to rounding (transform --method weights, and on the
# rotated library --method mask --bands 12 and --method fda) and an image
# payload holding a NaN each end in one `error:` line on stderr, exit code 2
# and no new file.
# Usage: scripts/cli_chain.sh [work_dir] (default: cli_chain_out); runs the
# package from this checkout's src/ and exits nonzero on the first command
# that fails.
set -euo pipefail

export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
work="${1:-cli_chain_out}"
rm -rf "$work"
mkdir -p "$work"
cd "$work"

python -c "from varimix.io import save_library; from varimix.synth import synthetic_base_spectra; \
save_library(synthetic_base_spectra(24, 3, seed=7), 'base.csv')"
cat > scene.json <<'JSON'
{
  "name": "chain", "height": 16, "width": 17, "snr_db": 30.0, "seed": 77,
  "base_library": "base.csv",
  "abundance": {"generator": "grf", "correlation_length": 4, "sharpness": 0.08,
                "pure_pixel_fraction": 0.1},
  "variability": {"n_variants": 3, "class_modes": [
    {"mode": "hapke", "mu1_range": [0.7, 1.0], "mu2_range": [0.7, 1.0]},
    {"mode": "atmospheric", "mu1_range": [0.5, 1.0]},
    {"mode": "elmm_scaling", "scale_range": [0.85, 1.15]}]}
}
JSON

python -m varimix synth --config scene.json --out scene_dir/
python -m varimix extract --image scene_dir/ --classes 3 --runs 5 --subset 100 \
    --seed 1 --out lib.csv
python -m varimix prune --library lib.csv --method count --angle-threshold 0.05 \
    --target 3 --out small.csv
python -m varimix prune --library lib.csv --method music --image scene_dir/ \
    --residual-threshold 0.5 --out pruned.csv
python -m varimix transform --library lib.csv --method mask --bands 12 --out t.json
python -m varimix transform --library pruned.csv --method fda --out fda.json
python -m varimix unmix --image scene_dir/ --algo fcls --library small.csv --out result_fcls/
python -m varimix unmix --image scene_dir/ --algo elmm --library small.csv \
    --transform t.json --out result_elmm/
python -m varimix unmix --image scene_dir/ --algo plmm --library small.csv --out result_plmm/
python -m varimix unmix --image scene_dir/ --algo mesma --library pruned.csv \
    --transform fda.json --out result_mesma/
python -m varimix unmix --image scene_dir/ --algo mesma --library pruned.csv \
    --re-threshold 0.01 --out result_mesma_stop/
python -m varimix unmix --image scene_dir/ --algo sparse-l1 --library lib.csv --out result_l1/
python -m varimix unmix --image scene_dir/ --algo sparse-l0 --library lib.csv --k 3 \
    --out result_l0/
python -m varimix unmix --image scene_dir/ --algo sparse-l0 --library lib.csv --k 2 \
    --l0-mode exhaustive --out result_l0x/

# the scene directory holds the noisy image, the abundances cube, the field's
# table and per-pixel index and truth_meta.json, whose digests name exactly
# those eight files; it loads back to the scene its config synthesizes: all
# four truth members bit for bit, the clean image mixed again on load
python - <<'PY'
import json, pathlib
from varimix.io import load_config, load_scene
from varimix.synth import SceneConfig, synthesize_from_config
files = [f"{stem}.{ext}" for stem in ("image_noisy", "abundances", "endmember_table",
                                      "endmember_index") for ext in ("json", "bin")]
held = sorted(f.name for f in pathlib.Path("scene_dir").iterdir())
if held != sorted(files + ["truth_meta.json"]):
    raise SystemExit(f"cli_chain: scene_dir/ holds {held}")
digests = json.load(open("scene_dir/truth_meta.json"))["digests"]
if list(digests) != files:
    raise SystemExit(f"cli_chain: scene_dir/truth_meta.json digests name {list(digests)}")
want = synthesize_from_config(load_config(SceneConfig, json.load(open("scene.json"))))
got = load_scene("scene_dir/")
for member in ("image_noisy", "image_clean", "abundances", "endmembers"):
    if getattr(got, member).data.tobytes() != getattr(want, member).data.tobytes():
        raise SystemExit(f"cli_chain: scene_dir/ {member} differs from scene.json's synthesis")
PY

# every solver log's phases partition its call: they sum to wall_time_s, and
# each is one of the phases the README lists
python - <<'PY'
import json, math, pathlib
listed = {"input", "stats", "gram", "search", "select", "qp", "endmember", "psi", "cost", "result"}
for path in sorted(pathlib.Path(".").glob("result_*/solver_log.json")):
    log = json.loads(path.read_text())
    phases = log["phases"]
    if set(phases) - listed or not math.isclose(sum(phases.values()), log["wall_time_s"],
                                                rel_tol=1e-9):
        raise SystemExit(f"cli_chain: {path}: phases {phases} do not partition "
                         f"wall_time_s {log['wall_time_s']}")
PY

# sparse L1 reports the L1 problem it solved: its per-pixel RMS errors and raw
# abundances give back the logged cost, 0.5 L sum(re^2) + lambda sum(raw)
python - <<'PY'
import json
import numpy as np
from varimix.io import load_abundances, load_image
log = json.loads(open("result_l1/solver_log.json").read())
re = load_image("result_l1/re.json").pixels.ravel()
raw = load_abundances("result_l1/abundances_raw.csv", sum_to_one=False).data
bands = load_image("scene_dir/image_noisy.json").n_bands
cost = float(0.5 * bands * np.sum(re**2) + log["flags"]["lambda"] * raw.sum())
if not abs(cost - log["final_cost"]) <= 1e-9 * log["final_cost"]:
    raise SystemExit(f"cli_chain: result_l1: re.bin and abundances_raw.csv give the cost "
                     f"{cost!r}, the log {log['final_cost']!r}")
PY

# refused EXPECTED COMMAND...: COMMAND must exit with code 2, print one stderr
# line that matches EXPECTED (an exact message or a glob) and leave the work
# directory's file set unchanged
refused() {
    local expected="$1" status=0 err before
    shift
    before="$(find . | sort)"
    err="$("$@" 2>&1 >/dev/null)" || status=$?
    if [[ $status -ne 2 || $(printf '%s\n' "$err" | wc -l) -ne 1 || "$err" != $expected \
          || "$(find . | sort)" != "$before" ]]; then
        echo "cli_chain: '$*' was not refused as expected (exit $status): $err" >&2
        exit 1
    fi
}

refused 'error: k must lie*' \
    python -m varimix unmix --image scene_dir/ --algo sparse-l0 --library lib.csv --k 0 \
    --out refused/
# refused before the image is read
refused 'error: k must lie*' \
    python -m varimix unmix --image no_such_scene/ --algo sparse-l0 --library lib.csv --k 0 \
    --out refused/
refused 'error: --re-threshold does not apply to --algo fcls' \
    python -m varimix unmix --image scene_dir/ --algo fcls --library small.csv --k 0 \
    --re-threshold -5 --out refused/
refused 'error: --library required' \
    python -m varimix unmix --image scene_dir/ --algo plmm --out refused/
printf '{"rho": 2.0}\n' > retired_opts.json
refused 'error: retired_opts.json: rho: unknown key' \
    python -m varimix unmix --image scene_dir/ --algo elmm --library small.csv \
    --opts retired_opts.json --out refused/
refused 'error: --opts does not apply to --algo fcls' \
    python -m varimix unmix --image scene_dir/ --algo fcls --library small.csv \
    --opts retired_opts.json --out refused/
refused 'error: --image required for --method music' \
    python -m varimix prune --library lib.csv --method music --out refused.csv
refused 'error: --subspace-dim does not apply to --method count' \
    python -m varimix prune --library lib.csv --method count --subspace-dim 0 \
    --residual-threshold -1 --out refused.csv
refused 'error: --bands does not apply to --method weights' \
    python -m varimix transform --library lib.csv --method weights --bands 0 --out refused.json
refused 'error: mask transform has no output band' \
    python -m varimix transform --library lib.csv --method mask --threshold 0 --out refused.json
refused 'error: threshold must be nonnegative' \
    python -m varimix prune --library lib.csv --method count --angle-threshold nan \
    --out refused.csv
# two classes holding the same two signatures in swapped order: their means agree
python -c "from varimix.io import load_library, save_library; \
from varimix.types import SpectralLibrary; s = load_library('base.csv').class_means()[:2]; \
save_library(SpectralLibrary.from_arrays('ab', [s, s[::-1]]), 'same_means.csv')"
refused 'error: class means agree up to rounding: no between-class scatter' \
    python -m varimix transform --library same_means.csv --method weights --out refused.json
# three classes holding the three base signatures in rotated order: their means
# agree but for the rounding of their sums
python -c "from varimix.io import load_library, save_library; \
from varimix.types import SpectralLibrary; s = load_library('base.csv').class_means(); \
save_library(SpectralLibrary.from_arrays('abc', [s, s[[1, 2, 0]], s[[2, 0, 1]]]), \
'rotated_means.csv')"
refused 'error: class means agree up to rounding: no between-class scatter' \
    python -m varimix transform --library rotated_means.csv --method weights --out refused.json
refused 'error: class means agree up to rounding: no between-class scatter' \
    python -m varimix transform --library rotated_means.csv --method mask --bands 12 \
    --out refused.json
refused 'error: class means agree up to rounding: no between-class scatter' \
    python -m varimix transform --library rotated_means.csv --method fda --out refused.json

# the same bytes on every run, so two runs' directories still compare equal
python -c "import numpy as np; from varimix.io import save_image; \
from varimix.types import SpectralImage; \
save_image(SpectralImage(np.full((2, 3, 24), 0.5)), 'nan_image.json'); \
payload = np.memmap('nan_image.bin', dtype='<f8', mode='r+'); payload[7] = np.nan; payload.flush()"
refused 'error: non-finite values in image payload nan_image.json' \
    python -m varimix unmix --image nan_image.json --algo fcls --library small.csv \
    --out refused/
