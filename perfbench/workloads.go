package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/server"
	"github.com/probdb/urm/internal/store"
)

// runConfig is one invocation of a workload.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workDir string // durable stores and span files, under the repository root
}

// report is what a workload run measured.
type report struct {
	setupS   []float64
	queryMS  []float64
	appendMS []float64
	// convergeMS is, per append, the time from its acknowledgement until
	// the delta maintainer has republished every maintained answer.
	convergeMS []float64
	measured   time.Duration
	attempted  int
	failed     int
	wrong      int      // answer-check failures, counted in failed too
	problems   []string // the first few failures, for the log

	// Resident-set peak of set-up, and of each one-second window of the
	// timed phase, in MB.
	setupPeakMB  float64
	rssWindowsMB []float64
	stopRSS      chan struct{}
	rssDone      chan error

	// Append-mix only: bytes on disk per row held, and the recovery time.
	diskBytesPerRow float64
	recoverS        float64
	genLagMS        []float64

	tr            *tracer
	meter         *meter
	replayed      int
	orderingLines []string
	notes         []string // findings that are not failures
}

// fail records one failed operation.
func (r *report) fail(wrong bool, format string, args ...any) {
	r.failed++
	if wrong {
		r.wrong++
	}
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// beginTiming records the resident-set peak of set-up, resets the mark and
// starts sampling it: once a second the mark is read and reset, so each
// one-second window of the timed phase yields its own peak.
func (r *report) beginTiming() error {
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.setupPeakMB = peak
	if err := resetPeakRSS(); err != nil {
		return err
	}
	r.stopRSS, r.rssDone = make(chan struct{}), make(chan error, 1)
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			stop := false
			select {
			case <-tick.C:
			case <-r.stopRSS:
				stop = true
			}
			peak, err := peakRSSMB()
			if err == nil {
				r.rssWindowsMB = append(r.rssWindowsMB, peak)
				err = clearPeakRSS()
			}
			if err != nil || stop {
				r.rssDone <- err
				return
			}
		}
	}()
	return nil
}

// endTiming stops the resident-set sampling; the last window is the part
// second since the last reading.
func (r *report) endTiming() error {
	close(r.stopRSS)
	return <-r.rssDone
}

// setupRepeats is how many times a run sets the system up; setup_s is the
// median.  All but the last set-up are torn down again.
const setupRepeats = 9

// setUp runs boot setupRepeats times, keeps the last system and returns the
// set-up times.
func setUp(boot func() (*env, func(), error)) (*env, func(), []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		e, cleanup, err := boot()
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == setupRepeats-1 {
			return e, cleanup, times, nil
		}
		err = e.close()
		cleanup()
		if err != nil {
			return nil, nil, nil, err
		}
		runtime.GC()
	}
}

// sendQuery posts a pair, tracing it when tracing is on, and decodes the
// reply.  The decoded reply is nil when the request failed.  prepareSpan
// adds the request's query.prepare span from Server.Metrics deltas, which
// are exact only when no other request runs meanwhile.
func sendQuery(c *http.Client, e *env, tr *tracer, p pair, due time.Time, prepareSpan bool) (outcome, *queryReply, error) {
	id := tr.id()
	body, err := queryBody(p, int(id))
	if err != nil {
		return outcome{}, nil, err
	}
	var before server.Metrics
	if id > 0 && prepareSpan {
		before = e.srv.Metrics()
	}
	o := timedPost(c, e.base+"/v1/query", body, due)
	if tr != nil {
		if id > 0 {
			prepare := time.Duration(-1)
			if prepareSpan {
				after := e.srv.Metrics()
				prepare = time.Duration((after.Stages["parse"].SumMS - before.Stages["parse"].SumMS) * float64(time.Millisecond))
			}
			tr.finish(id, p, o, prepare)
		} else {
			tr.note(o.ms)
		}
	}
	if !o.ok() {
		return o, nil, nil
	}
	var reply queryReply
	if err := json.Unmarshal(o.body, &reply); err != nil {
		return o, nil, fmt.Errorf("decoding reply: %w", err)
	}
	return o, &reply, nil
}

// coldSchedule yields the cold-mix request sequence: an untimed reference
// pass (pass 0) over every pair in canonical order, then timed passes in
// seeded order, the request's scenario bumped after every request.  A pass
// holds each query text under six methods, so bumping only after a pass
// would let the prepared-query cache serve five of the six.  The schedule
// tracks the epoch each request must be served at.
type coldSchedule struct {
	seed   int64
	pairs  []pair
	pass   int
	pos    int
	order  []int
	epochs map[string]uint64
}

// newColdSchedule starts a schedule at the scenarios' current epochs.
func newColdSchedule(seed int64, pairs []pair, epochs map[string]uint64) *coldSchedule {
	return &coldSchedule{seed: seed, pairs: pairs, pass: -1, epochs: epochs}
}

// next returns the next pair index, the epoch it must be served at, and
// whether it starts a new pass.  It records the bump that follows it.
func (s *coldSchedule) next() (idx int, epoch uint64, newPass bool) {
	if s.order == nil || s.pos == len(s.order) {
		s.pass++
		s.pos, newPass = 0, true
		if s.pass == 0 {
			s.order = make([]int, len(s.pairs))
			for i := range s.order {
				s.order[i] = i
			}
		} else {
			s.order = passOrder(s.seed, s.pass, len(s.pairs))
		}
	}
	idx = s.order[s.pos]
	s.pos++
	sc := s.pairs[idx].Scenario
	epoch = s.epochs[sc]
	s.epochs[sc]++
	return idx, epoch, newPass
}

// coldMix runs passes over the 60 Table III pairs, every request missing
// both the answer cache and the prepared-query cache, with one closed-loop
// client.
func coldMix(ctx context.Context, cfg runConfig) (*report, error) {
	pairs, err := tableIIIPairs()
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if cfg.trace {
		rep.tr = newTracer()
	}
	e, cleanup, setups, err := setUp(func() (*env, func(), error) {
		e, err := bootEnv(ctx, envOptions{targets: datagen.AllTargets(), tracer: rep.tr})
		return e, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	defer e.close()
	rep.setupS = setups

	epochs := make(map[string]uint64)
	for _, name := range e.reg.Names() {
		sc, _ := e.reg.Get(name)
		epochs[name] = sc.Epoch()
	}
	sched := newColdSchedule(cfg.seed, pairs, epochs)

	// Reference pass, untimed: every pair once in canonical order.  Its
	// answers must agree across methods; every timed pass must repeat them.
	ref := make([]string, len(pairs))
	for range pairs {
		idx, _, _ := sched.next()
		p := pairs[idx]
		o, reply, err := sendQuery(e.client, e, nil, p, time.Time{}, false)
		if err != nil {
			return nil, err
		}
		if reply == nil {
			return nil, fmt.Errorf("reference pass %s: %v", p.key(), o.failure())
		}
		if ref[idx], err = reply.fingerprint(); err != nil {
			return nil, err
		}
		if err := e.bump(p.Scenario); err != nil {
			return nil, err
		}
	}
	problems, notes := crossMethodCheck(pairs, ref)
	for _, problem := range problems {
		rep.fail(true, "%s", problem)
	}
	rep.notes = notes

	if err := rep.beginTiming(); err != nil {
		return nil, err
	}
	var done atomic.Int64
	if rep.tr != nil {
		rep.meter = newMeter(e, rep.tr, nil, done.Load)
	}
	start := time.Now()
	for {
		idx, epoch, newPass := sched.next()
		if newPass && sched.pass > 1 {
			// Whole passes only, so every run weighs the 60 pairs alike.
			if time.Since(start) >= cfg.seconds {
				break
			}
			rep.meter.toggle() // even passes traced, odd passes not
		}
		p := pairs[idx]
		rep.attempted++
		o, reply, err := sendQuery(e.client, e, rep.tr, p, time.Time{}, true)
		if err != nil {
			return nil, err
		}
		done.Add(1)
		switch {
		case reply == nil:
			rep.fail(false, "%s: %v", p.key(), o.failure())
		case reply.Cached || reply.Coalesced || reply.Epoch != epoch:
			rep.fail(true, "%s: served cached=%v coalesced=%v at epoch %d, want a fresh evaluation at epoch %d",
				p.key(), reply.Cached, reply.Coalesced, reply.Epoch, epoch)
		default:
			fp, err := reply.fingerprint()
			if err != nil {
				return nil, err
			}
			if fp != ref[idx] {
				rep.fail(true, "%s: answers differ from the reference pass", p.key())
			} else {
				rep.queryMS = append(rep.queryMS, o.ms)
			}
		}
		if err := e.bump(p.Scenario); err != nil {
			return nil, err
		}
	}
	rep.measured = time.Since(start)
	if err := rep.endTiming(); err != nil {
		return nil, err
	}
	rep.meter.close()
	if rep.tr != nil {
		rep.orderingLines = orderingReport(rep.tr)
	}
	return rep, nil
}

// hotCached warms the 60 pairs during set-up, then two closed-loop clients
// draw them uniformly: every timed request is an answer-cache hit.
//
// BENCHMARK.json does not list it.  With both cores busy it tracks the
// shared host most: over ten seeds its set-up time spread by 0.265 of its
// median, and its throughput fell by a quarter between two sets of runs of
// unchanged code.  The layers it isolates (HTTP, JSON, the answer cache,
// the runtime) are also measured on append-mix, whose queries are mostly
// answer-cache hits.
func hotCached(ctx context.Context, cfg runConfig) (*report, error) {
	pairs, err := tableIIIPairs()
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if cfg.trace {
		rep.tr = newTracer()
	}
	warm := make([]string, len(pairs))
	e, cleanup, setups, err := setUp(func() (*env, func(), error) {
		e, err := bootEnv(ctx, envOptions{targets: datagen.AllTargets(), tracer: rep.tr})
		if err != nil {
			return nil, nil, err
		}
		for i, p := range pairs {
			o, reply, err := sendQuery(e.client, e, nil, p, time.Time{}, false)
			if err == nil && reply == nil {
				err = fmt.Errorf("warming %s: %w", p.key(), o.failure())
			}
			if err == nil {
				warm[i], err = reply.fingerprint()
			}
			if err != nil {
				e.close()
				return nil, nil, err
			}
		}
		return e, func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	defer e.close()
	rep.setupS = setups

	if err := rep.beginTiming(); err != nil {
		return nil, err
	}
	var done atomic.Int64
	if rep.tr != nil {
		rep.meter = newMeter(e, rep.tr, nil, done.Load)
	}
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	results := make([]report, hotClients)
	errs := make([]error, hotClients)
	var wg sync.WaitGroup
	for c := 0; c < hotClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, closeIdle := e.newClient()
			defer closeIdle()
			draw := hotDraws(cfg.seed, c, len(pairs))
			res := &results[c]
			for time.Now().Before(deadline) {
				i := draw()
				res.attempted++
				o, reply, err := sendQuery(client, e, rep.tr, pairs[i], time.Time{}, false)
				if err != nil {
					errs[c] = err
					return
				}
				done.Add(1)
				switch {
				case reply == nil:
					res.fail(false, "%s: %v", pairs[i].key(), o.failure())
				case !reply.Cached:
					res.fail(true, "%s: missed the answer cache", pairs[i].key())
				default:
					fp, err := reply.fingerprint()
					if err != nil {
						errs[c] = err
						return
					}
					if fp != warm[i] {
						res.fail(true, "%s: answers differ from warm-up", pairs[i].key())
					} else {
						res.queryMS = append(res.queryMS, o.ms)
					}
				}
			}
		}(c)
	}
	rep.meter.toggleEachSecond(start, deadline)
	wg.Wait()
	rep.measured = time.Since(start)
	if err := rep.endTiming(); err != nil {
		return nil, err
	}
	rep.meter.close()
	for c, res := range results {
		if errs[c] != nil {
			return nil, errs[c]
		}
		rep.queryMS = append(rep.queryMS, res.queryMS...)
		rep.attempted += res.attempted
		rep.failed += res.failed
		rep.wrong += res.wrong
		rep.problems = append(rep.problems, res.problems...)
	}
	return rep, nil
}

// appendMix runs two streams over two connections against a durable Excel
// scenario.  Appends are a paced closed loop: one single-row Orders append
// is due every 1/appendPerSecond, and after its acknowledgement the stream
// waits until the delta maintainer has republished every maintained answer
// (delta.converge_ms) before it sends the next.  Queries over the whole
// query set are paced at queryPerSecond and timed from their send;
// lateness shows in bench.gen_lag_p99_ms.  Afterwards it checks recovery
// and the maintained answers against a cold evaluation over the same rows.
//
// Both choices keep runs comparable.  A delta pass holds the scenario's
// read lock across every maintained answer: an append sent during a pass
// waits for it, and the queries due meanwhile queue behind that append
// (RWMutex writer preference).  With appends in an open loop the query tail
// was the length of those passes and moved by a factor of two between runs
// of one seed.  With appends waiting for convergence but queries timed from
// their due time, the query p99 still ranged 14.6-25.3 ms over three seeds,
// as every stall of a shared 2-core host delayed the queries due behind it;
// timed from their send it ranged 5.8-7.0 ms.
func appendMix(ctx context.Context, cfg runConfig) (*report, error) {
	pairs, err := appendMixPairs()
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if cfg.trace {
		rep.tr = newTracer()
	}
	targets := []datagen.TargetName{datagen.TargetExcel}
	var dir string
	var cfs *countingFS
	e, cleanup, setups, err := setUp(func() (*env, func(), error) {
		d, err := os.MkdirTemp(cfg.workDir, "append-mix-")
		if err != nil {
			return nil, nil, err
		}
		remove := func() { os.RemoveAll(d) }
		fsys := &countingFS{FS: store.OSFS()}
		e, err := bootEnv(ctx, envOptions{targets: targets, storeDir: filepath.Join(d, "data"), fsys: fsys, tracer: rep.tr})
		if err != nil {
			remove()
			return nil, nil, err
		}
		// Warm the query set: fills the answer cache and enrolls the
		// maintainable answers with the delta maintainer.
		for _, p := range pairs {
			o, reply, err := sendQuery(e.client, e, nil, p, time.Time{}, false)
			if err == nil && reply == nil {
				err = o.failure()
			}
			if err != nil {
				e.close()
				remove()
				return nil, nil, fmt.Errorf("warming %s: %w", p.key(), err)
			}
		}
		want := 0
		for _, p := range pairs {
			if maintained(p) {
				want++
			}
		}
		if got := e.srv.DeltaEntries("excel"); got != want {
			e.close()
			remove()
			return nil, nil, fmt.Errorf("the delta maintainer holds %d answers after warm-up, want %d", got, want)
		}
		dir, cfs = d, fsys
		return e, remove, nil
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	closed := false
	defer func() {
		if !closed {
			e.close()
		}
	}()
	rep.setupS = setups

	orders := e.datasets["excel"].DB.Relation(datagen.AppendStreamRelation)
	initial := append([]engine.Tuple(nil), orders.Rows...)
	nAppends := int(math.Round(cfg.seconds.Seconds() * appendPerSecond))
	rows := appendRows(nAppends)
	draws := appendQueryDraws(cfg.seed, len(pairs), int(math.Round(cfg.seconds.Seconds()*queryPerSecond)))

	if err := rep.beginTiming(); err != nil {
		return nil, err
	}
	var done atomic.Int64
	if rep.tr != nil {
		rep.meter = newMeter(e, rep.tr, cfs, done.Load)
	}
	start := time.Now().Add(20 * time.Millisecond)
	appendEvery := time.Second / appendPerSecond
	queryEvery := time.Second / queryPerSecond

	var acked []engine.Tuple
	var appendLat, appendLag, convergeLat, queryLat, queryLag []float64
	var appendFails, queryFails []string
	appendClient, closeAppends := e.newClient()
	defer closeAppends()
	queryClient, closeQueries := e.newClient()
	defer closeQueries()
	appends := func() error {
		for i, row := range rows {
			due := start.Add(time.Duration(i) * appendEvery)
			time.Sleep(time.Until(due))
			appendLag = append(appendLag, msBetween(due, time.Now()))
			body, err := json.Marshal(server.AppendRequest{Scenario: "excel", Relation: datagen.AppendStreamRelation, Values: rowJSON(row)})
			if err != nil {
				return err
			}
			o := timedPost(appendClient, e.base+"/v1/append", body, time.Time{})
			if !o.ok() {
				appendFails = append(appendFails, fmt.Sprintf("append %d: %v", i, o.failure()))
				continue
			}
			acked = append(acked, wireTuple(row))
			appendLat = append(appendLat, o.ms)
			e.srv.ConvergeDelta("excel")
			convergeLat = append(convergeLat, msBetween(o.recv, time.Now()))
		}
		return nil
	}
	queries := func() error {
		for j, idx := range draws {
			due := start.Add(queryEvery/2 + time.Duration(j)*queryEvery)
			time.Sleep(time.Until(due))
			queryLag = append(queryLag, msBetween(due, time.Now()))
			o, reply, err := sendQuery(queryClient, e, rep.tr, pairs[idx], time.Time{}, false)
			if err != nil {
				return err
			}
			done.Add(1)
			if reply == nil {
				queryFails = append(queryFails, fmt.Sprintf("%s: %v", pairs[idx].key(), o.failure()))
				continue
			}
			queryLat = append(queryLat, o.ms)
		}
		return nil
	}
	var appendErr, queryErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); appendErr = appends() }()
	go func() { defer wg.Done(); queryErr = queries() }()
	rep.meter.toggleEachSecond(start, start.Add(cfg.seconds))
	wg.Wait()
	streamErr := errors.Join(appendErr, queryErr)
	rep.measured = time.Since(start)
	if err := rep.endTiming(); err != nil {
		return nil, err
	}
	rep.meter.close()
	if streamErr != nil {
		return nil, streamErr
	}
	rep.appendMS, rep.convergeMS, rep.queryMS = appendLat, convergeLat, queryLat
	rep.genLagMS = append(appendLag, queryLag...)
	rep.attempted = len(rows) + len(draws)
	for _, f := range append(appendFails, queryFails...) {
		rep.fail(false, "%s", f)
	}

	// The last maintained answers: converge the delta maintainer, then ask
	// every pair at the final epoch.
	e.srv.ConvergeDelta("excel")
	maintained := make([]string, len(pairs))
	for i, p := range pairs {
		o, reply, err := sendQuery(e.client, e, nil, p, time.Time{}, false)
		if err != nil {
			return nil, err
		}
		if reply == nil {
			return nil, fmt.Errorf("final query %s: %v", p.key(), o.failure())
		}
		if maintained[i], err = reply.fingerprint(); err != nil {
			return nil, err
		}
	}
	heldRows := e.datasets["excel"].DB.NumRows()
	closed = true
	if err := e.close(); err != nil {
		return nil, err
	}

	dataDir := filepath.Join(dir, "data")
	diskBytes, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}
	rep.diskBytesPerRow = float64(diskBytes) / float64(heldRows)

	// Reopen the drained data directory and time recovery.
	st, err := store.Open(dataDir, store.Options{Fsync: true, SnapshotEvery: 256})
	if err != nil {
		return nil, err
	}
	recovered := server.NewRegistryWithStore(st)
	recStart := time.Now()
	stats, err := recovered.Recover(ctx, server.RegisterOptions{WarmIndexes: true})
	if err != nil {
		return nil, err
	}
	rep.recoverS = time.Since(recStart).Seconds()
	rep.replayed = stats.ReplayedRecords
	if len(stats.Quarantined) > 0 {
		rep.fail(true, "recovery quarantined %v", stats.Quarantined)
		return rep, nil
	}
	for _, problem := range checkRecovered(recovered, initial, acked) {
		rep.fail(true, "%s", problem)
	}

	// A cold evaluation over a fresh in-memory registry fed the acknowledged
	// rows is the reference for both the recovered and the maintained answers.
	fresh, err := freshRegistry(ctx, acked)
	if err != nil {
		return nil, err
	}
	want, err := evaluateAll(ctx, fresh, pairs)
	if err != nil {
		return nil, err
	}
	got, err := evaluateAll(ctx, recovered, pairs)
	if err != nil {
		return nil, err
	}
	for i, p := range pairs {
		if got[i] != want[i] {
			rep.fail(true, "%s: answers after recovery differ from a cold evaluation", p.key())
		}
		if maintained[i] != want[i] {
			rep.fail(true, "%s: last maintained answers differ from a cold evaluation", p.key())
		}
	}
	return rep, nil
}

// rowJSON is a row as POST /v1/append values.
func rowJSON(row engine.Tuple) []any {
	out := make([]any, len(row))
	for i, v := range row {
		switch v.Kind {
		case engine.KindString:
			out[i] = v.Str
		case engine.KindInt:
			out[i] = v.Int
		case engine.KindFloat:
			out[i] = v.Float
		}
	}
	return out
}

// wireTuple is the row the server stores for rowJSON(row): JSON numbers
// that are integral become ints there, so an integral float comes back as an
// int.
func wireTuple(row engine.Tuple) engine.Tuple {
	out := make(engine.Tuple, len(row))
	for i, v := range row {
		if v.Kind == engine.KindFloat && v.Float == math.Trunc(v.Float) && math.Abs(v.Float) < 1<<53 {
			v = engine.I(int64(v.Float))
		}
		out[i] = v
	}
	return out
}

// checkRecovered compares the recovered Orders relation with the rows it
// held before the run plus the acknowledged appends, in order.
func checkRecovered(reg *server.Registry, initial, acked []engine.Tuple) []string {
	sc, ok := reg.Get("excel")
	if !ok {
		return []string{"recovery lost the excel scenario"}
	}
	rows := sc.DB().Relation(datagen.AppendStreamRelation).Rows
	want := append(append([]engine.Tuple(nil), initial...), acked...)
	if len(rows) != len(want) {
		return []string{fmt.Sprintf("recovered %d Orders rows, acknowledged state holds %d", len(rows), len(want))}
	}
	var out []string
	for i := range rows {
		if !sameTuple(rows[i], want[i]) {
			out = append(out, fmt.Sprintf("recovered Orders row %d is %v, acknowledged %v", i, rows[i], want[i]))
			if len(out) == 3 {
				break
			}
		}
	}
	return out
}

// freshRegistry generates the Excel scenario again and appends the rows.
func freshRegistry(ctx context.Context, rows []engine.Tuple) (*server.Registry, error) {
	datasets, err := generate([]datagen.TargetName{datagen.TargetExcel})
	if err != nil {
		return nil, err
	}
	ds := datasets["excel"]
	reg := server.NewRegistry()
	sc, err := reg.Register(ctx, "excel", ds.Target, ds.DB, ds.Mappings(), server.RegisterOptions{WarmIndexes: true})
	if err != nil {
		return nil, err
	}
	if len(rows) > 0 {
		if err := sc.AppendRows(datagen.AppendStreamRelation, rows); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// evaluateAll answers every pair in process with caching and maintenance
// off, so each answer is a cold evaluation.
func evaluateAll(ctx context.Context, reg *server.Registry, pairs []pair) ([]string, error) {
	srv := server.New(reg, server.Config{CacheBytes: -1, DisableDelta: true, Parallelism: 1})
	defer srv.Drain(ctx)
	out := make([]string, len(pairs))
	for i, p := range pairs {
		resp, err := srv.Do(ctx, p.request())
		if err != nil {
			return nil, fmt.Errorf("cold evaluation of %s: %w", p.key(), err)
		}
		if out[i], err = answersOf(resp); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
