// Command perfbench is the repository benchmark.  It runs one named
// workload against an in-process query server over loopback HTTP, checks
// every answer, and prints its metrics: end-to-end metrics in an untraced
// run (--trace 0), per-layer metrics in a traced run (--trace 1).  The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload cold-mix|hot-cached|append-mix --seed N --seconds S --trace 0|1
//
// The seed drives request order; the data and the append-mix rows come from
// urm-serve's default seed (see plan.go).
// BENCHMARK.json at the repository root lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"github.com/probdb/urm/internal/server"
)

// workDir is where runs keep durable stores and span files, relative to the
// repository root the benchmark runs from.
const workDir = ".bench_build/run"

var workloads = map[string]func(context.Context, runConfig) (*report, error){
	"cold-mix":   coldMix,
	"hot-cached": hotCached,
	"append-mix": appendMix,
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: cold-mix, hot-cached or append-mix")
	seed := fs.Int64("seed", 1, "seed for request order")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("usage: perfbench --workload cold-mix|hot-cached|append-mix --seed N --seconds S --trace 0|1")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return 1, err
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workDir: workDir}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	rep, err := runWorkload(context.Background(), cfg)
	if err != nil {
		return 1, err
	}
	for _, p := range rep.problems {
		fmt.Println("FAIL", p)
	}
	for _, n := range rep.notes {
		fmt.Println("NOTE", n)
	}

	out := resultLine{Correct: rep.wrong == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	var lines, printed []metricLine
	if cfg.trace {
		lines, printed = layerMetrics(rep)
		if err := rep.tr.writeSpans(filepath.Join(workDir, "spans-"+*workload+".jsonl")); err != nil {
			return 1, err
		}
		for _, l := range rep.orderingLines {
			fmt.Println(l)
		}
	} else {
		lines, printed = endToEnd(rep), rep.printedOnly()
	}
	for _, l := range printed {
		printMetric(l)
	}
	for _, l := range lines {
		printMetric(l)
		out.Metrics[l.name] = metricOut{Value: l.value, Unit: l.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(data))
	if !out.Correct {
		return 1, errors.New("answer checks failed")
	}
	return 0, nil
}

// metricLine is one reported metric with its sample count.
type metricLine struct {
	name  string
	value float64
	unit  string
	n     int
}

func printMetric(l metricLine) {
	fmt.Printf("metric %-34s %14.6f %-6s (n=%d)\n", l.name, l.value, l.unit, l.n)
}

// endToEnd returns the metrics BENCHMARK.json gates, which every workload
// reports.  Only the metrics that held steady on every listed workload are
// gated.  Over two sets of ten seeds on a shared 2-core host, append-mix's
// resident-set peak spread by 0.28 and 0.41 of its median and its query p99
// by 0.20 and 0.23, beyond or close to the largest bound the benchmark may
// set (0.25), so those two are printed on every workload but not gated.
func endToEnd(rep *report) []metricLine {
	q := len(rep.queryMS)
	return []metricLine{
		{"setup_s", median(rep.setupS), "s", len(rep.setupS)},
		{"query_p50_ms", smoothedMedian(append([]float64(nil), rep.queryMS...)), "ms", q},
		{"query_qps", float64(q) / rep.measured.Seconds(), "1/s", q},
	}
}

// printedOnly returns the end-to-end figures that are printed but not
// gated: the query p99 and the resident-set peak (see endToEnd), the
// failure ratio, which is 0 when the system is correct, the resident-set
// peak of set-up, and the figures only append-mix has (append latency,
// disk and recovery).  rss_peak_mb is the median over the timed phase's
// one-second windows of each window's resident-set peak, so set-up is left
// out and one window's garbage-collection timing does not decide it.
func (rep *report) printedOnly() []metricLine {
	q := len(rep.queryMS)
	out := []metricLine{
		{"query_p99_ms", quantile(append([]float64(nil), rep.queryMS...), 0.99), "ms", q},
		{"rss_peak_mb", median(rep.rssWindowsMB), "MB", len(rep.rssWindowsMB)},
		{"fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "share", rep.attempted},
		{"bench.rss_setup_peak_mb", rep.setupPeakMB, "MB", 1},
		{"bench.rss_max_mb", quantile(append([]float64(nil), rep.rssWindowsMB...), 1), "MB", len(rep.rssWindowsMB)},
	}
	if rep.appendMS == nil {
		return out
	}
	a := len(rep.appendMS)
	return append(out,
		metricLine{"append_p50_ms", quantile(append([]float64(nil), rep.appendMS...), 0.50), "ms", a},
		metricLine{"append_p99_ms", quantile(append([]float64(nil), rep.appendMS...), 0.99), "ms", a},
		metricLine{"disk_bytes_per_row", rep.diskBytesPerRow, "B/row", 1},
		metricLine{"recover_s", rep.recoverS, "s", 1},
		metricLine{"bench.gen_lag_p99_ms", quantile(append([]float64(nil), rep.genLagMS...), 0.99), "ms", len(rep.genLagMS)},
	)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) since
// the last resetPeakRSS, or since start.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// resetPeakRSS returns freed memory to the OS and resets the high-water
// mark, so the next peakRSSMB covers only what follows from the live heap
// on.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return clearPeakRSS()
}

// clearPeakRSS resets the high-water mark to the current resident set.
func clearPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// layerMetrics computes the per-layer metrics of a traced run.  Every
// workload reports every metric; a layer that did no work reports 0.  The
// generator's lateness is printed only: it checks the benchmark, not a
// layer.
func layerMetrics(rep *report) (lines, printed []metricLine) {
	tr, m := rep.tr, rep.meter
	d := m.delta
	n := tr.requests
	ev := tr.evaluated
	hits, misses := d(func(x server.Metrics) int64 { return x.Cache.Hits }), d(func(x server.Metrics) int64 { return x.Cache.Misses })
	reuses, builds := d(func(x server.Metrics) int64 { return x.PreparedReuses }), d(func(x server.Metrics) int64 { return x.PreparedBuilds })
	appends := d(func(x server.Metrics) int64 { return x.Appends })
	evaluations := d(func(x server.Metrics) int64 { return x.Evaluations })
	fsDelta := m.lastFS
	fsDelta.syncs -= m.firstFS.syncs
	fsDelta.syncNS -= m.firstFS.syncNS
	fsDelta.written -= m.firstFS.written
	fsDelta.snapshots -= m.firstFS.snapshots

	prepare := m.tracedParse
	rewrite := 0.0
	for _, c := range tr.core {
		rewrite += c.rewriteMS
	}
	unattributed := tr.missResidualMS - prepare
	if unattributed < 0 {
		unattributed = 0
	}
	rt := m.untracedRT
	sumWaits := 0.0
	for _, w := range tr.queueWaits {
		sumWaits += w
	}

	lines = []metricLine{
		{"server.http_ms", ratio(tr.httpMS, float64(n)), "ms", n},
		{"server.response_bytes", ratio(tr.respBytes, float64(n)), "B", n},
		{"server.do_ms", ratio(tr.doMS, float64(n)), "ms", n},
		{"server.cache_hit_ratio", ratio(hits, hits+misses), "share", int(hits + misses)},
		{"server.prepared_reuse_ratio", ratio(reuses, reuses+builds), "share", int(reuses + builds)},
		{"qos.rejected", d(func(x server.Metrics) int64 { return x.Rejected }), "count", n},
		{"qos.stale_served", d(func(x server.Metrics) int64 { return x.StaleServed }), "count", n},
		{"query.prepare_ms", ratio(prepare, float64(n)), "ms", n},
		{"query.reformulate_ms", ratio(rewrite, float64(ev)), "ms", ev},
		{"qos.queue_wait_ms", ratio(sumWaits, float64(len(tr.queueWaits))), "ms", len(tr.queueWaits)},
		{"qos.queue_wait_p99_ms", quantile(append([]float64(nil), tr.queueWaits...), 0.99), "ms", len(tr.queueWaits)},
	}
	for _, method := range methods {
		c := tr.core[method]
		if c == nil {
			c = &methodAgg{}
		}
		k := float64(c.n)
		lines = append(lines,
			metricLine{"core." + method + ".execute_ms", ratio(c.execMS, k), "ms", c.n},
			metricLine{"core." + method + ".aggregate_ms", ratio(c.aggMS, k), "ms", c.n},
			metricLine{"core." + method + ".total_ms", ratio(c.totalMS, k), "ms", c.n},
			metricLine{"core." + method + ".operators", ratio(c.operators, k), "count", c.n},
		)
	}
	lines = append(lines,
		metricLine{"engine.rows_read_per_query", ratio(tr.rowsRead, float64(ev)), "rows", ev},
		metricLine{"engine.rows_produced_per_query", ratio(tr.rowsProduced, float64(ev)), "rows", ev},
		metricLine{"engine.rows_per_answer", ratio(tr.rowsProduced, tr.answers), "rows", ev},
		metricLine{"engine.batches_per_query", ratio(tr.batches, float64(ev)), "count", ev},
		metricLine{"engine.select_selectivity", ratio(tr.selOut, tr.selIn), "share", ev},
		metricLine{"engine.index_lookups_per_query", ratio(tr.lookups, float64(ev)), "count", ev},
		metricLine{"engine.index_builds", d(func(x server.Metrics) int64 { return x.IndexBuilds }), "count", int(evaluations)},
		metricLine{"engine.index_inplace_appends", d(func(x server.Metrics) int64 { return x.IndexInplaceAppends }), "count", int(appends)},
		metricLine{"runtime.alloc_bytes_per_query", ratio(rt.allocBytes, float64(m.untracedReqs)), "B", int(m.untracedReqs)},
		metricLine{"runtime.allocs_per_query", ratio(rt.allocObjs, float64(m.untracedReqs)), "count", int(m.untracedReqs)},
		metricLine{"runtime.gc_cpu_share", ratio(rt.gcCPU, rt.totalCPU), "share", int(rt.gcCycles)},
		metricLine{"runtime.gc_cycles", rt.gcCycles, "count", int(m.untracedReqs)},
		metricLine{"runtime.gc_pause_p99_ms", histQuantileMS(rt.pauses, rtBuckets.pauses, 0.99), "ms", int(sumCounts(rt.pauses))},
		metricLine{"runtime.sched_latency_p99_ms", histQuantileMS(rt.sched, rtBuckets.sched, 0.99), "ms", int(sumCounts(rt.sched))},
		metricLine{"delta.applied_per_append", ratio(d(func(x server.Metrics) int64 { return x.DeltaApplied }), appends), "count", int(appends)},
		metricLine{"delta.converge_ms", median(rep.convergeMS), "ms", len(rep.convergeMS)},
		metricLine{"delta.fallback_ratio", ratio(d(func(x server.Metrics) int64 { return x.DeltaFallbacks }), evaluations), "share", int(evaluations)},
		metricLine{"store.syncs_per_append", ratio(float64(fsDelta.syncs), appends), "count", int(appends)},
		metricLine{"store.sync_ms_per_append", ratio(float64(fsDelta.syncNS)/1e6, appends), "ms", int(appends)},
		metricLine{"store.bytes_written_per_row", ratio(float64(fsDelta.written), appends), "B/row", int(appends)},
		metricLine{"store.snapshots", float64(fsDelta.snapshots), "count", int(appends)},
		metricLine{"store.replayed_records", float64(rep.replayed), "count", 1},
		metricLine{"trace.unattributed_share", ratio(unattributed, tr.latMS), "share", n},
		metricLine{"trace.overhead", ratio(median(tr.tracedLat), median(tr.untracedLat)), "ratio", len(tr.tracedLat)},
	)
	printed = []metricLine{
		{"bench.gen_lag_p99_ms", quantile(append([]float64(nil), rep.genLagMS...), 0.99), "ms", len(rep.genLagMS)},
	}
	return lines, printed
}

func sumCounts(c []uint64) uint64 {
	var t uint64
	for _, x := range c {
		t += x
	}
	return t
}
