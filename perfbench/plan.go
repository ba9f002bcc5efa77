package main

import (
	"fmt"
	"math/rand"

	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/server"
)

// Everything a workload sends is drawn here, before the server sees a
// single request: from the run's seed the order of cold-mix passes, the
// pairs the hot-cached clients draw and the append-mix query sequence; from
// the fixed data seed the append-mix rows.  Same seed, same inputs.
//
// The data itself comes from one fixed seed, urm-serve's default.  At 8 MB
// the instance holds 88 rows with about one "hot" order, so each data seed
// is a different workload: over data seeds 2-11, cold-mix's median latency ranged
// from 1.8 to 3.8 ms and its throughput from 104 to 154 queries/s, far
// beyond the run-to-run noise the benchmark is meant to resolve.

// Fixed workload parameters.  The scale keeps o-sharing Q4 small: it
// allocated 98 MB at 8 MB, 596 MB at 16 MB and 1.25 GB at 20 MB, and ran out
// of memory at urm-serve's default 40 MB.
//
// Append-mix appends 6 rows/s, 270 in a 45 s run, so that the store takes
// one snapshot (every 256 records) in each run, onto an Orders relation of
// 12 rows; every delta pass and cold query grows with it.  At 34 rows/s
// (1000 appends a run) queries slowed fourfold within a run and the process
// held 0.8-1 GB; at 10 rows/s its one-second resident-set peaks reached
// 1.7-2.1 GB.
const (
	sizeMB          = 8.0
	numMappings     = 100 // the paper's h
	topK            = 5
	hotClients      = 2
	appendPerSecond = 6
	queryPerSecond  = 100
)

// methods are the request methods of every pair: the five evaluation
// methods and top-k (o-sharing with k answers).
var methods = []string{"basic", "e-basic", "e-MQO", "q-sharing", "o-sharing", "topk"}

// appendMixMethods are the append-mix query methods: two the delta
// maintainer refreshes and o-sharing, which it cannot maintain.
var appendMixMethods = []string{"e-basic", "q-sharing", "o-sharing"}

// pair is one (scenario, query text, method) request.
type pair struct {
	Scenario string
	QueryID  string // "Q4", "sel3", ...
	Text     string
	Method   string // one of methods
}

// key names the pair in reports.
func (p pair) key() string { return p.QueryID + "/" + p.Method }

// request is the pair as a query request; "topk" is o-sharing top-k.
func (p pair) request() server.Request {
	req := server.Request{Scenario: p.Scenario, Query: p.Text, Method: p.Method}
	if p.Method == "topk" {
		req.Method, req.TopK = "o-sharing", topK
	}
	return req
}

// scenarioName is the registry name of a target's scenario, as urm-serve
// names it.
func scenarioName(t datagen.TargetName) string {
	switch t {
	case datagen.TargetExcel:
		return "excel"
	case datagen.TargetNoris:
		return "noris"
	default:
		return "paragon"
	}
}

// dataSeed is the data generator's seed, urm-serve's default.
const dataSeed = 42

// tableIIIPairs returns the 60 pairs of Table III Q1–Q10 × methods in
// canonical order.
func tableIIIPairs() ([]pair, error) {
	var out []pair
	for id := 1; id <= datagen.NumWorkloadQueries; id++ {
		q, err := datagen.WorkloadQuery(id)
		if err != nil {
			return nil, err
		}
		text, err := q.SQL()
		if err != nil {
			return nil, fmt.Errorf("Q%d has no SQL text: %w", id, err)
		}
		target, err := datagen.QueryTarget(id)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			out = append(out, pair{Scenario: scenarioName(target), QueryID: fmt.Sprintf("Q%d", id), Text: text, Method: m})
		}
	}
	return out, nil
}

// appendMixPairs returns the append-mix query set: PO-only selections and
// COUNT(*) (Q1, Q5 and the Fig 11(d) chains sel1–sel5 but sel3, whose text
// is Q1's) under
// appendMixMethods.  Joins are left to cold-mix: as Orders grows they slow
// down by an order of magnitude within one run.
func appendMixPairs() ([]pair, error) {
	type named struct {
		id   string
		text string
	}
	var qs []named
	for _, id := range []int{1, 5} {
		q, err := datagen.WorkloadQuery(id)
		if err != nil {
			return nil, err
		}
		text, err := q.SQL()
		if err != nil {
			return nil, err
		}
		qs = append(qs, named{fmt.Sprintf("Q%d", id), text})
	}
	for n := 1; n <= 5; n++ {
		q, err := datagen.SelectionChainQuery(n)
		if err != nil {
			return nil, err
		}
		text, err := q.SQL()
		if err != nil {
			return nil, err
		}
		if text != qs[0].text { // sel3 is Q1
			qs = append(qs, named{fmt.Sprintf("sel%d", n), text})
		}
	}
	var out []pair
	for _, q := range qs {
		for _, m := range appendMixMethods {
			out = append(out, pair{Scenario: "excel", QueryID: q.id, Text: q.text, Method: m})
		}
	}
	return out, nil
}

// passOrder returns the order of cold-mix pass number pass: a permutation of
// the n pair indexes drawn from the seed.
func passOrder(seed int64, pass, n int) []int {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	return r.Perm(n)
}

// hotDraws returns a hot-cached client's pair sequence: uniform draws over
// the n warmed pairs, seeded per client.  Clients run until time is up, so
// the sequence is a generator rather than a slice.
func hotDraws(seed int64, client, n int) func() int {
	r := rand.New(rand.NewSource(seed*7_919 + int64(client) + 1))
	return func() int { return r.Intn(n) }
}

// appendRows returns the append-mix Orders stream: count rows from
// datagen.AppendStream, seeded like the data.  Which hot values the stream
// repeats decides how large the maintained answers grow: with the stream
// drawn from the run's seed, append-mix's median query latency moved by 15%
// between seeds (0.43-0.51 ms over seeds 1-3) for that reason alone.
func appendRows(count int) []engine.Tuple {
	return datagen.AppendStream(datagen.AppendStreamOptions{Rows: count, Seed: dataSeed})
}

// maintained reports whether the delta maintainer keeps the pair's answer
// up to date across appends.  It refuses o-sharing and aggregates (Q5 is
// COUNT(*)); their cached answers are dropped by every append instead.
func maintained(p pair) bool {
	return p.Method != "o-sharing" && p.QueryID != "Q5"
}

// appendQueryDraws returns the append-mix query sequence: count uniform
// draws over n pairs.
func appendQueryDraws(seed int64, n, count int) []int {
	r := rand.New(rand.NewSource(seed*104_729 + 5))
	out := make([]int, count)
	for i := range out {
		out[i] = r.Intn(n)
	}
	return out
}
