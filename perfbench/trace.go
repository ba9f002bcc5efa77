package main

import (
	"encoding/json"
	"math"
	"os"
	"path"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"github.com/probdb/urm/internal/server"
	"github.com/probdb/urm/internal/store"
)

// The traced run attributes request time to the repo's modules from the
// benchmark's side of their public interfaces:
//
//	request                       client send → last response byte
//	├─ server.http                send → BeforeQuery, AfterQuery → last byte
//	└─ server.do                  the AfterQuery elapsed time
//	   ├─ query.prepare           the "parse" stage of Server.Metrics
//	   ├─ qos.wait                Response.QueueWaitMS
//	   └─ core.<method>           Result.TotalTime, evaluated requests only
//	      ├─ core.reformulate     Result.RewriteTime
//	      ├─ core.execute         Result.ExecTime
//	      └─ core.aggregate       Result.AggregateTime
//
// Engine work comes from Result.Stats, store work from a counting store.FS,
// and the Go runtime from runtime/metrics.  A traced run alternates traced
// and untraced windows, so trace.overhead compares like with like.

// traceIDBase offsets the request id carried in timeout_ms: an hour, far
// above the server's 30 s deadline cap, so the carrier never shortens a
// deadline.
const traceIDBase = 3_600_000

// maxSpanRequests bounds the requests whose spans are kept for the span
// file; aggregates cover every traced request.
const maxSpanRequests = 20_000

// span is one timed interval of one request.  Start is milliseconds from the
// start of the run; stage spans known only by duration start with their
// parent.
type span struct {
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_ms"`
	Dur    float64 `json:"dur_ms"`
}

// hookRec is the server side of one traced request.
type hookRec struct {
	before, after time.Time
	do            time.Duration
	resp          *server.Response
}

// methodAgg sums the core phases of one method's evaluations.
type methodAgg struct {
	n                                 int
	rewriteMS, execMS, aggMS, totalMS float64
	operators                         float64
	totalByQuery                      map[string][]float64
}

// tracer collects spans and per-layer sums for traced requests.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Int64
	start  time.Time

	mu      sync.Mutex
	pending map[int64]*hookRec
	spans   []span
	kept    int

	requests       int
	latMS, httpMS  float64
	doMS           float64
	respBytes      float64
	evaluated      int
	queueWaits     []float64
	core           map[string]*methodAgg
	rowsRead       float64
	rowsProduced   float64
	batches        float64
	selIn, selOut  float64
	lookups        float64
	answers        float64
	missResidualMS float64 // server.do of evaluated requests not covered by wait and core phases
	tracedLat      []float64
	untracedLat    []float64
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), pending: make(map[int64]*hookRec), core: make(map[string]*methodAgg)}
}

func traceIDOf(req *server.Request) int64 {
	return int64(req.TimeoutMS) - traceIDBase
}

func (t *tracer) beforeQuery(req *server.Request) {
	id := traceIDOf(req)
	if id <= 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.pending[id] = &hookRec{before: now}
	t.mu.Unlock()
}

func (t *tracer) afterQuery(req *server.Request, resp *server.Response, _ error, elapsed time.Duration) {
	id := traceIDOf(req)
	if id <= 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if r := t.pending[id]; r != nil {
		r.after, r.do, r.resp = now, elapsed, resp
	}
	t.mu.Unlock()
}

// id returns the trace id for the next request: positive while tracing is
// on, 0 otherwise.
func (t *tracer) id() int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return t.nextID.Add(1)
}

// note records the client latency of an untraced request, for the overhead
// ratio.
func (t *tracer) note(ms float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.untracedLat = append(t.untracedLat, ms)
	t.mu.Unlock()
}

// finish joins a traced request's client timing to its hook record and adds
// it to the spans and sums.  prepare is the request's parse time for its
// query.prepare span when known (single-client workloads, from Metrics
// deltas), negative otherwise; the query.prepare_ms metric comes from the
// meter's per-window sums on every workload.
func (t *tracer) finish(id int64, p pair, o outcome, prepare time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.pending[id]
	delete(t.pending, id)
	t.tracedLat = append(t.tracedLat, o.ms)
	if rec == nil || rec.resp == nil {
		return
	}
	lat := msBetween(o.sent, o.recv)
	do := float64(rec.do) / float64(time.Millisecond)
	http := msBetween(o.sent, rec.before) + msBetween(rec.after, o.recv)
	t.requests++
	t.latMS += lat
	t.httpMS += http
	t.doMS += do
	t.respBytes += float64(len(o.body))

	keep := t.kept < maxSpanRequests
	if keep {
		t.kept++
		at := func(x time.Time) float64 { return msBetween(t.start, x) }
		t.spans = append(t.spans,
			span{Req: id, Name: "request", Start: at(o.sent), Dur: lat},
			span{Req: id, Name: "server.http.in", Parent: "request", Start: at(o.sent), Dur: msBetween(o.sent, rec.before)},
			span{Req: id, Name: "server.do", Parent: "request", Start: at(rec.before), Dur: do},
			span{Req: id, Name: "server.http.out", Parent: "request", Start: at(rec.after), Dur: msBetween(rec.after, o.recv)},
		)
		if prepare >= 0 {
			t.spans = append(t.spans, span{Req: id, Name: "query.prepare", Parent: "server.do", Start: at(rec.before), Dur: ms(prepare)})
		}
	}
	resp := rec.resp
	if resp.Cached || resp.Coalesced || resp.Result == nil {
		return
	}
	res := resp.Result
	t.evaluated++
	t.queueWaits = append(t.queueWaits, resp.QueueWaitMS)
	m := t.core[p.Method]
	if m == nil {
		m = &methodAgg{totalByQuery: make(map[string][]float64)}
		t.core[p.Method] = m
	}
	m.n++
	m.rewriteMS += ms(res.RewriteTime)
	m.execMS += ms(res.ExecTime)
	m.aggMS += ms(res.AggregateTime)
	m.totalMS += ms(res.TotalTime)
	m.totalByQuery[p.QueryID] = append(m.totalByQuery[p.QueryID], ms(res.TotalTime))
	t.missResidualMS += do - resp.QueueWaitMS - ms(res.RewriteTime) - ms(res.ExecTime) - ms(res.AggregateTime)
	if res.Stats != nil {
		m.operators += float64(res.Stats.TotalOperators())
		t.rowsRead += float64(res.Stats.RowsRead())
		t.rowsProduced += float64(res.Stats.RowsProduced())
		t.batches += float64(res.Stats.Batches())
		t.selIn += float64(res.Stats.SelectRowsIn())
		t.selOut += float64(res.Stats.SelectRowsOut())
		t.lookups += float64(res.Stats.IndexLookups())
	}
	t.answers += float64(len(res.Answers))
	if keep {
		parent := "core." + p.Method
		start := msBetween(t.start, rec.before)
		t.spans = append(t.spans,
			span{Req: id, Name: "qos.wait", Parent: "server.do", Start: start, Dur: resp.QueueWaitMS},
			span{Req: id, Name: parent, Parent: "server.do", Start: start, Dur: ms(res.TotalTime)},
			span{Req: id, Name: "core.reformulate", Parent: parent, Start: start, Dur: ms(res.RewriteTime)},
			span{Req: id, Name: "core.execute", Parent: parent, Start: start, Dur: ms(res.ExecTime)},
			span{Req: id, Name: "core.aggregate", Parent: parent, Start: start, Dur: ms(res.AggregateTime)},
		)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(file string) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// countingFS wraps the store's filesystem and counts what the store layer
// asks of the disk.
type countingFS struct {
	store.FS
	syncs     atomic.Int64 // file and directory fsyncs
	syncNS    atomic.Int64
	written   atomic.Int64
	snapshots atomic.Int64
}

type fsCounts struct {
	syncs, syncNS, written, snapshots int64
}

func (c *countingFS) counts() fsCounts {
	return fsCounts{c.syncs.Load(), c.syncNS.Load(), c.written.Load(), c.snapshots.Load()}
}

func (c *countingFS) Create(p string) (store.File, error) {
	f, err := c.FS.Create(p)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) OpenAppend(p string) (store.File, error) {
	f, err := c.FS.OpenAppend(p)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) SyncDir(p string) error {
	start := time.Now()
	err := c.FS.SyncDir(p)
	c.syncs.Add(1)
	c.syncNS.Add(int64(time.Since(start)))
	return err
}

func (c *countingFS) Rename(oldPath, newPath string) error {
	err := c.FS.Rename(oldPath, newPath)
	if err == nil && path.Base(newPath) == "snapshot.snap" {
		c.snapshots.Add(1)
	}
	return err
}

type countingFile struct {
	store.File
	fs *countingFS
}

func (f *countingFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.syncs.Add(1)
	f.fs.syncNS.Add(int64(time.Since(start)))
	return err
}

// rtSample is one reading of the runtime metrics the runtime layer reports.
type rtSample struct {
	allocBytes, allocObjs, gcCycles float64
	gcCPU, totalCPU                 float64
	pauses, sched                   []uint64 // histogram bucket counts
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

// rtBuckets holds the bucket boundaries of the two histograms, which are
// fixed for the life of the process.
var rtBuckets struct {
	once          sync.Once
	pauses, sched []float64
}

func readRuntime() rtSample {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	num := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	hist := func(i int) *metrics.Float64Histogram {
		if samples[i].Value.Kind() != metrics.KindFloat64Histogram {
			return &metrics.Float64Histogram{}
		}
		return samples[i].Value.Float64Histogram()
	}
	p, s := hist(5), hist(6)
	rtBuckets.once.Do(func() {
		rtBuckets.pauses = append([]float64(nil), p.Buckets...)
		rtBuckets.sched = append([]float64(nil), s.Buckets...)
	})
	return rtSample{
		allocBytes: num(0), allocObjs: num(1), gcCycles: num(2),
		gcCPU: num(3), totalCPU: num(4),
		pauses: append([]uint64(nil), p.Counts...),
		sched:  append([]uint64(nil), s.Counts...),
	}
}

// rtDelta accumulates runtime-metric differences over several windows.
type rtDelta struct {
	allocBytes, allocObjs, gcCycles, gcCPU, totalCPU float64
	pauses, sched                                    []uint64
}

func (d *rtDelta) add(from, to rtSample) {
	d.allocBytes += to.allocBytes - from.allocBytes
	d.allocObjs += to.allocObjs - from.allocObjs
	d.gcCycles += to.gcCycles - from.gcCycles
	d.gcCPU += to.gcCPU - from.gcCPU
	d.totalCPU += to.totalCPU - from.totalCPU
	d.pauses = addCounts(d.pauses, from.pauses, to.pauses)
	d.sched = addCounts(d.sched, from.sched, to.sched)
}

func addCounts(acc, from, to []uint64) []uint64 {
	if acc == nil {
		acc = make([]uint64, len(to))
	}
	for i := range to {
		if i < len(from) && i < len(acc) {
			acc[i] += to[i] - from[i]
		}
	}
	return acc
}

// histQuantileMS returns the q-quantile, in milliseconds, of a runtime
// histogram delta, interpolating linearly inside the bucket that holds it
// (0 when empty).  The open-ended last bucket reports its lower bound.
func histQuantileMS(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 || cum+float64(c) < want {
			cum += float64(c)
			continue
		}
		lo, hi := buckets[i], buckets[i+1]
		if math.IsInf(hi, 1) {
			return lo * 1000
		}
		lo = math.Max(lo, 0) // the first bucket may start at -Inf
		return (lo + (hi-lo)*(want-cum)/float64(c)) * 1000
	}
	return 0
}

// meter reads the counters every layer metric is computed from, at the
// boundaries of traced and untraced windows.
type meter struct {
	e  *env
	tr *tracer
	fs *countingFS

	done func() int64 // completed requests so far

	first, last     server.Metrics
	firstFS, lastFS fsCounts
	rt              rtSample
	reqs            int64
	window          server.Metrics // at the start of the current window

	untracedRT   rtDelta
	untracedReqs int64
	tracedParse  float64 // parse-stage ms observed in traced windows
}

func newMeter(e *env, tr *tracer, fsys *countingFS, done func() int64) *meter {
	m := &meter{e: e, tr: tr, fs: fsys, done: done}
	m.first = e.srv.Metrics()
	m.last, m.window = m.first, m.first
	if fsys != nil {
		m.firstFS = fsys.counts()
	}
	m.rt = readRuntime()
	m.reqs = done()
	return m
}

// delta is the change of a server counter over the measured run.
func (m *meter) delta(f func(server.Metrics) int64) float64 {
	return float64(f(m.last) - f(m.first))
}

// toggle closes the current window, attributes its deltas to its mode and
// flips tracing.  Like close, it does nothing on an untraced run's nil meter.
func (m *meter) toggle() {
	if m == nil {
		return
	}
	m.close()
	m.tr.on.Store(!m.tr.on.Load())
}

// toggleEachSecond alternates traced and untraced one-second windows from
// start until end.
func (m *meter) toggleEachSecond(start, end time.Time) {
	if m == nil {
		return
	}
	for next := start.Add(time.Second); next.Before(end); next = next.Add(time.Second) {
		time.Sleep(time.Until(next))
		m.toggle()
	}
}

// close ends the current window.
func (m *meter) close() {
	if m == nil {
		return
	}
	now := m.e.srv.Metrics()
	rt := readRuntime()
	reqs := m.done()
	if m.tr.on.Load() {
		m.tracedParse += now.Stages["parse"].SumMS - m.window.Stages["parse"].SumMS
	} else {
		m.untracedRT.add(m.rt, rt)
		m.untracedReqs += reqs - m.reqs
	}
	m.last, m.window, m.rt, m.reqs = now, now, rt, reqs
	if m.fs != nil {
		m.lastFS = m.fs.counts()
	}
}
