package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/server"
	"github.com/probdb/urm/internal/store"
)

// env is one booted system under test: a registry of generated scenarios
// behind an in-process server.Server listening on loopback HTTP.
type env struct {
	reg       *server.Registry
	srv       *server.Server
	httpSrv   *http.Server
	serveDone chan struct{}
	base      string
	transport *http.Transport
	client    *http.Client
	datasets  map[string]*datagen.Dataset
}

// envOptions selects what bootEnv builds.
type envOptions struct {
	targets []datagen.TargetName
	// storeDir, when set, attaches a durable store there with urm-serve's
	// defaults (fsync on, snapshot every 256 records) through fsys.
	storeDir string
	fsys     store.FS
	tracer   *tracer // nil: no request hooks
}

// serverConfig is urm-serve's default configuration: evaluation slots =
// GOMAXPROCS, 100 ms queue wait, 30 s request cap, 64 MiB answer cache,
// parallelism 1, delta maintenance and stale serving on.
func serverConfig(tr *tracer) server.Config {
	cfg := server.Config{QueueWait: 100 * time.Millisecond, Parallelism: 1}
	if tr != nil {
		cfg.BeforeQuery = tr.beforeQuery
		cfg.AfterQuery = tr.afterQuery
	}
	return cfg
}

// generate builds the datasets of the targets.
func generate(targets []datagen.TargetName) (map[string]*datagen.Dataset, error) {
	out := make(map[string]*datagen.Dataset, len(targets))
	for _, t := range targets {
		ds, err := datagen.NewDataset(datagen.DatasetOptions{Target: t, NumMappings: numMappings, SizeMB: sizeMB, Seed: dataSeed})
		if err != nil {
			return nil, err
		}
		out[scenarioName(t)] = ds
	}
	return out, nil
}

// bootEnv generates the data, registers it with warm indexes and starts
// serving on a loopback port.
func bootEnv(ctx context.Context, opts envOptions) (*env, error) {
	datasets, err := generate(opts.targets)
	if err != nil {
		return nil, err
	}
	reg := server.NewRegistry()
	if opts.storeDir != "" {
		st, err := store.Open(opts.storeDir, store.Options{FS: opts.fsys, Fsync: true, SnapshotEvery: 256})
		if err != nil {
			return nil, err
		}
		reg = server.NewRegistryWithStore(st)
	}
	for _, t := range opts.targets {
		name := scenarioName(t)
		ds := datasets[name]
		if _, err := reg.Register(ctx, name, ds.Target, ds.DB, ds.Mappings(),
			server.RegisterOptions{TargetLabel: string(t), WarmIndexes: true}); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{
		reg:       reg,
		srv:       server.New(reg, serverConfig(opts.tracer)),
		serveDone: make(chan struct{}),
		base:      "http://" + ln.Addr().String(),
		datasets:  datasets,
		// One kept-alive connection per client goroutine, so requests measure
		// the serving stack rather than connection set-up.
		transport: &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8},
	}
	e.httpSrv = &http.Server{Handler: e.srv}
	e.client = &http.Client{Transport: e.transport, Timeout: time.Minute}
	go func() {
		defer close(e.serveDone)
		_ = e.httpSrv.Serve(ln)
	}()
	return e, nil
}

// close drains the server, stops the listener and waits for it.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Drain(ctx)
	if cerr := e.httpSrv.Close(); err == nil {
		err = cerr
	}
	<-e.serveDone
	e.transport.CloseIdleConnections()
	return err
}

// newClient returns a client with its own connection pool, for workloads
// whose request streams must not share a connection.
func (e *env) newClient() (*http.Client, func()) {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1}
	return &http.Client{Transport: tr, Timeout: time.Minute}, tr.CloseIdleConnections
}

// post sends one JSON body and returns the status and the full response
// body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// bump advances a scenario's epoch, so its cached answers and prepared
// queries stop matching.
func (e *env) bump(scenario string) error {
	body, err := json.Marshal(server.BumpRequest{Scenario: scenario})
	if err != nil {
		return err
	}
	status, data, err := post(e.client, e.base+"/v1/bump", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("bump %s: status %d: %s", scenario, status, data)
	}
	return nil
}

// queryBody is the POST /v1/query body of a pair.  traceID, when positive,
// is carried in timeout_ms above the server's 30 s cap, where it has no
// effect on the deadline; the request hooks read it back to join the
// server-side spans to this request.
func queryBody(p pair, traceID int) ([]byte, error) {
	req := p.request()
	if traceID > 0 {
		req.TimeoutMS = traceIDBase + traceID
	}
	return json.Marshal(req)
}

// queryReply is the part of a /v1/query response the benchmark checks.
type queryReply struct {
	Epoch     uint64          `json:"epoch"`
	Answers   json.RawMessage `json:"answers"`
	EmptyProb json.RawMessage `json:"empty_prob"`
	Cached    bool            `json:"cached"`
	Coalesced bool            `json:"coalesced"`
}

// fingerprint is the answer set in comparable form: tuples, probabilities
// (as the encoder's shortest round-trip text, so equal text is equal bits)
// and order, plus the empty-answer probability.
func (r *queryReply) fingerprint() (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, r.Answers); err != nil {
		return "", err
	}
	buf.WriteByte('|')
	buf.Write(r.EmptyProb)
	return buf.String(), nil
}

// answersOf fingerprints a response produced in process by Server.Do, in the
// same form as queryReply.fingerprint.
func answersOf(resp *server.Response) (string, error) {
	answers, err := json.Marshal(resp.Answers)
	if err != nil {
		return "", err
	}
	empty, err := json.Marshal(resp.EmptyProb)
	if err != nil {
		return "", err
	}
	return string(answers) + "|" + string(empty), nil
}

// outcome is one timed request.
type outcome struct {
	ms     float64 // latency from send (closed loop) or due time (open loop)
	status int
	body   []byte
	err    error
	sent   time.Time
	recv   time.Time
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// failure describes a failed outcome.
func (o outcome) failure() error {
	if o.err != nil {
		return o.err
	}
	return fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
}

// timedPost posts body and times it from from (the send time in a closed
// loop, the due time in an open one).
func timedPost(c *http.Client, url string, body []byte, from time.Time) outcome {
	sent := time.Now()
	if from.IsZero() {
		from = sent
	}
	status, data, err := post(c, url, body)
	recv := time.Now()
	return outcome{ms: msBetween(from, recv), status: status, body: data, err: err, sent: sent, recv: recv}
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

// sameTuple compares two rows value by value, floats by their bits.
func sameTuple(a, b engine.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.Int != y.Int || x.Str != y.Str || math.Float64bits(x.Float) != math.Float64bits(y.Float) {
			return false
		}
	}
	return true
}
