package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// ReadSnapshot loads a BENCH_engine.json previously written by
// `urm-bench -json`.
func ReadSnapshot(path string) (*EngineSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap EngineSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
}

// preparedSpeedupFloor and preparedSpeedupMinMethods gate the session API's
// amortization: re-executing a prepared query must be at least
// preparedSpeedupFloor× faster than a cold Evaluate for at least
// preparedSpeedupMinMethods of the five methods.  Not all five, because for
// execution-dominated methods (o-sharing's u-trace) the front half is
// legitimately a small share of the request.
const (
	preparedSpeedupFloor      = 1.3
	preparedSpeedupMinMethods = 3
)

// operatorSpeedupFloors raises the bar for the operators the vectorized batch
// pipeline rewrote: their live implementation must beat the naive reference by
// at least this factor, not merely match it.  Speedup ratios are used rather
// than absolute ns/op because both sides of a pair scale together with machine
// speed, making the ratio stable across runners.  Floors sit at roughly 60-70%
// of the speedups measured when the snapshot was committed (select 4.3x,
// project 1.5x, pipeline 6.5x, hashjoin 4.1x), leaving headroom for
// machine-to-machine variance.  Project's floor is low by design: a
// non-contiguous root projection must materialize a fresh value slab
// (~2.4 MB/op on the benchmark shape), so it is allocation-bandwidth-bound and
// the batch pipeline can only trim constant factors around that traffic.
// The product pairs gate column pruning: COUNT(*) over a product builds
// zero-width tuples (18-19x measured, floor 12x); projecting one column per
// side builds two-column tuples, but the 100k-row result's row list dominates
// both sides (1.4-1.5x measured), so that pair keeps the generic floor.
// Operators not listed keep the generic 1.0 floor.
var operatorSpeedupFloors = map[string]float64{
	"select":          3.0,
	"project":         1.2,
	"pipeline":        4.0,
	"hashjoin":        2.5,
	"product-count":   12.0,
	"product-project": 1.0,
}

// multicoreSpeedupFloor gates the partitioned hash-join build: with 4 workers
// on a multi-core machine the build-dominated join must run at least this much
// faster than the sequential build.  Enforced only when the snapshot's
// multicore section was recorded on a machine that actually had multiple CPUs.
const multicoreSpeedupFloor = 1.05

// CheckRegression validates an engine snapshot against the perf floor every
// change must preserve: each operator pair's live implementation must be at
// least as fast as its reference (speedup >= 1.0), and — when the snapshot
// carries prepared-pair measurements — prepared re-execution must beat cold
// evaluation by the prepared floor on enough methods.  It returns an error
// naming every measurement below its floor, so the CI bench-regression gate
// can fail with the full picture in one run.
func CheckRegression(snap *EngineSnapshot) error {
	if len(snap.Operators) == 0 {
		return fmt.Errorf("snapshot contains no operator measurements")
	}
	names := make([]string, 0, len(snap.Operators))
	for name := range snap.Operators {
		names = append(names, name)
	}
	sort.Strings(names)
	var bad []string
	for _, name := range names {
		floor := 1.0
		if f, ok := operatorSpeedupFloors[name]; ok {
			floor = f
		}
		if ob := snap.Operators[name]; ob.Speedup < floor {
			bad = append(bad, fmt.Sprintf("%s %.3fx (floor %.2fx)", name, ob.Speedup, floor))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("operator speedup below floor: %s", strings.Join(bad, ", "))
	}
	if err := checkMulticore(snap); err != nil {
		return err
	}
	if err := checkQoS(snap); err != nil {
		return err
	}
	if err := checkShards(snap); err != nil {
		return err
	}
	if err := checkDelta(snap); err != nil {
		return err
	}
	return checkPreparedSpeedups(snap)
}

// deltaP99RatioFloor gates incremental maintenance: under the append+query
// mix, the delta-maintained server's query p99 must beat the invalidate-all
// baseline's by at least this factor.
const deltaP99RatioFloor = 2.0

// checkDelta applies the incremental-maintenance floor.  Snapshots without a
// delta section pass (older snapshots stay valid).  A run where no delta pass
// ever published, or where the maintained query fell back, measured the wrong
// thing and fails outright.
func checkDelta(snap *EngineSnapshot) error {
	d := snap.Delta
	if d == nil {
		return nil
	}
	if d.DeltaApplied <= 0 {
		return fmt.Errorf("delta: no maintenance pass ever published (delta_applied %d) — the benchmark measured two invalidate-all servers", d.DeltaApplied)
	}
	if d.DeltaFallbacks > 0 {
		return fmt.Errorf("delta: the maintained query fell back %d times — it is no longer delta-maintainable", d.DeltaFallbacks)
	}
	if d.P99Ratio < deltaP99RatioFloor {
		return fmt.Errorf("delta: maintained query p99 beats invalidate-all by %.2fx (%.3fms vs %.3fms), need %.1fx",
			d.P99Ratio, d.Baseline.P99Ms, d.Delta.P99Ms, deltaP99RatioFloor)
	}
	return nil
}

// shardsSpeedupFloor gates scatter-gather scaling: on a multi-core machine
// the join-heavy workload at 4 in-process shards (one worker per shard) must
// run at least this much faster than at 1 shard.
const shardsSpeedupFloor = 1.5

// checkShards applies the scatter-gather scaling floor.  Snapshots without a
// shards section pass (older snapshots stay valid), as do sections recorded
// on machines with fewer than 4 CPUs: the gate compares a 4-way scatter (one
// worker per shard) against 1 shard, and with fewer cores than shards the
// workers time-slice instead of running concurrently — the numbers are still
// recorded there so the environment is visible.
func checkShards(snap *EngineSnapshot) error {
	sb := snap.Shards
	if sb == nil || sb.NumCPU < 4 {
		return nil
	}
	var one, four *ShardsPoint
	for i := range sb.InProcess {
		switch sb.InProcess[i].Shards {
		case 1:
			one = &sb.InProcess[i]
		case 4:
			four = &sb.InProcess[i]
		}
	}
	if one == nil || four == nil {
		return fmt.Errorf("shards: section lacks the 1- and 4-shard points the gate compares")
	}
	if four.Speedup < shardsSpeedupFloor {
		return fmt.Errorf("shards: 4-shard scatter-gather is %.3fx over 1 shard (%.3fms vs %.3fms), need %.2fx (%d CPUs)",
			four.Speedup, float64(four.NsOp)/1e6, float64(one.NsOp)/1e6, shardsSpeedupFloor, sb.NumCPU)
	}
	return nil
}

// qosP99RatioCeiling and qosSuccessRatioFloor gate tenant isolation: with a
// hostile tenant flooding at ten times its budget, the compliant tenant's p99
// latency may grow by at most 20% over its solo baseline and its success rate
// may drop by at most 20%.  The flood must also demonstrably have been shed —
// a snapshot where the hostile tenant was never rejected measured nothing.
const (
	qosP99RatioCeiling   = 1.2
	qosSuccessRatioFloor = 0.8
)

// checkQoS applies the tenant-isolation floors.  Snapshots without a qos
// section pass (older snapshots, and `-json`-only re-measurements, stay
// valid).
func checkQoS(snap *EngineSnapshot) error {
	q := snap.QoS
	if q == nil {
		return nil
	}
	if q.HostileRejected <= 0 || q.ServerShedRateLimited <= 0 {
		return fmt.Errorf("qos: hostile tenant was never rate-limited (client rejections %d, server shed %d) — the flood did not exercise admission control",
			q.HostileRejected, q.ServerShedRateLimited)
	}
	if q.P99Ratio > qosP99RatioCeiling {
		return fmt.Errorf("qos: compliant tenant p99 under flood is %.2fx its solo baseline (%.2fms vs %.2fms), ceiling %.2fx",
			q.P99Ratio, q.Contended.Latency.P99Ms, q.Solo.Latency.P99Ms, qosP99RatioCeiling)
	}
	if q.SuccessRatio < qosSuccessRatioFloor {
		return fmt.Errorf("qos: compliant tenant success rate under flood is %.2fx its solo baseline (%.3f vs %.3f), floor %.2fx",
			q.SuccessRatio, q.Contended.SuccessRate, q.Solo.SuccessRate, qosSuccessRatioFloor)
	}
	return nil
}

// checkMulticore applies the partitioned-build floor.  Snapshots without a
// multicore section pass (older snapshots stay valid), as do sections recorded
// on single-CPU machines, where no parallel speedup is physically available —
// the numbers are still recorded there so the environment is visible.
func checkMulticore(snap *EngineSnapshot) error {
	mc := snap.Multicore
	if mc == nil || mc.NumCPU < 2 {
		return nil
	}
	if mc.Speedup < multicoreSpeedupFloor {
		return fmt.Errorf("partitioned join build with %d workers: %.3fx over sequential, need %.2fx (build %d rows, %d CPUs)",
			mc.Workers, mc.Speedup, multicoreSpeedupFloor, mc.BuildRows, mc.NumCPU)
	}
	return nil
}

// checkPreparedSpeedups applies the prepared-re-execution floor.  Snapshots
// without prepared measurements (none of the methods carries a pair) pass, so
// older snapshots and serve-only merges stay valid.
func checkPreparedSpeedups(snap *EngineSnapshot) error {
	measured, fast := 0, 0
	var speeds []string
	names := make([]string, 0, len(snap.Methods))
	for name := range snap.Methods {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mb := snap.Methods[name]
		if mb.PreparedSpeedup == 0 {
			continue
		}
		measured++
		if mb.PreparedSpeedup >= preparedSpeedupFloor {
			fast++
		}
		speeds = append(speeds, fmt.Sprintf("%s %.2fx", name, mb.PreparedSpeedup))
	}
	if measured == 0 {
		return nil
	}
	if fast < preparedSpeedupMinMethods {
		return fmt.Errorf("prepared re-execution >= %.1fx on %d/%d methods, need %d: %s",
			preparedSpeedupFloor, fast, measured, preparedSpeedupMinMethods, strings.Join(speeds, ", "))
	}
	return nil
}
