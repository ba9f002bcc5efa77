package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// answerJSON is one answer as the server encodes it.
type answerJSON struct {
	Values json.RawMessage `json:"values"`
	Prob   float64         `json:"prob"`
}

// parseFingerprint splits a fingerprint back into its answers and its
// empty-answer probability.
func parseFingerprint(fp string) ([]answerJSON, float64, error) {
	cut := strings.LastIndexByte(fp, '|')
	if cut < 0 {
		return nil, 0, fmt.Errorf("malformed fingerprint")
	}
	var out []answerJSON
	if err := json.Unmarshal([]byte(fp[:cut]), &out); err != nil {
		return nil, 0, err
	}
	empty, err := strconv.ParseFloat(fp[cut+1:], 64)
	return out, empty, err
}

// tolerance is the cross-method tolerance of the repository's own tests
// (sameAnswers in internal/core), applied to probabilities and, relative to
// their size, to numeric answer values: the methods add floats in different
// orders, so a probability, or a SUM inside an answer tuple, can differ in
// the last bits between methods.
const tolerance = 1e-9

// cluster is one answer of a set after merging answers whose values differ
// only within tolerance.
type cluster struct {
	values  []any
	prob    float64
	members int
}

// clusterAnswers decodes answers and merges those whose values agree within
// tolerance, adding their probabilities.
func clusterAnswers(answers []answerJSON) ([]cluster, error) {
	var out []cluster
	for _, a := range answers {
		dec := json.NewDecoder(bytes.NewReader(a.Values))
		dec.UseNumber()
		var values []any
		if err := dec.Decode(&values); err != nil {
			return nil, err
		}
		merged := false
		for i := range out {
			if closeValues(out[i].values, values) {
				out[i].prob += a.Prob
				out[i].members++
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, cluster{values: values, prob: a.Prob, members: 1})
		}
	}
	return out, nil
}

// closeValues compares two decoded tuples: numbers within tolerance relative
// to their size, everything else exactly.
func closeValues(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, xNum := a[i].(json.Number)
		y, yNum := b[i].(json.Number)
		if !xNum || !yNum {
			if a[i] != b[i] {
				return false
			}
			continue
		}
		if x == y {
			continue
		}
		fx, err1 := x.Float64()
		fy, err2 := y.Float64()
		if err1 != nil || err2 != nil || math.Abs(fx-fy) > tolerance*math.Max(1, math.Max(math.Abs(fx), math.Abs(fy))) {
			return false
		}
	}
	return true
}

// crossMethodCheck checks the reference answers of cold-mix.  For each query
// the five methods must return the same answers within tolerance, in any
// order, as the repository's cross-method tests require.  Agreement that
// holds only within the tolerance, not bit for bit, is returned as a note
// that names what differs.  The top-k answers must be the k most probable
// o-sharing answers: min(k, n) of them, none less probable than an answer
// left out, each reporting a probability no higher than its exact one
// (top-k reports lower bounds; see TestTopKMatchesOSharingOrdering in
// internal/core).
func crossMethodCheck(pairs []pair, fps []string) (problems, notes []string) {
	byQuery := make(map[string]map[string]string)
	var order []string
	for i, p := range pairs {
		if byQuery[p.QueryID] == nil {
			byQuery[p.QueryID] = make(map[string]string)
			order = append(order, p.QueryID)
		}
		byQuery[p.QueryID][p.Method] = fps[i]
	}
	for _, q := range order {
		fp := byQuery[q]
		want := fp["o-sharing"]
		for _, m := range methods[:5] {
			if fp[m] == want {
				continue
			}
			split, err := sameWithinTolerance(fp[m], want)
			switch {
			case err != nil:
				problems = append(problems, fmt.Sprintf("%s: %s answers differ from o-sharing: %v", q, m, err))
			case split:
				notes = append(notes, fmt.Sprintf("%s: %s and o-sharing split answers differently: tuples whose values differ only in the last bits are separate answers in one of them", q, m))
			default:
				notes = append(notes, fmt.Sprintf("%s: %s answers equal o-sharing's within %g but not bit for bit", q, m, tolerance))
			}
		}
		if err := checkTopK(fp["topk"], want); err != nil {
			problems = append(problems, fmt.Sprintf("%s: top-%d: %v", q, topK, err))
		}
	}
	return problems, notes
}

// sameWithinTolerance compares two answer sets as the repository's
// cross-method tests do: the same tuples, probabilities and empty-answer
// probability within tolerance, in any order.  split reports that the sets
// agree only after merging answers whose values differ within tolerance.
func sameWithinTolerance(gotFP, wantFP string) (split bool, err error) {
	gotRaw, gotEmpty, err := parseFingerprint(gotFP)
	if err != nil {
		return false, err
	}
	wantRaw, wantEmpty, err := parseFingerprint(wantFP)
	if err != nil {
		return false, err
	}
	got, err := clusterAnswers(gotRaw)
	if err != nil {
		return false, err
	}
	want, err := clusterAnswers(wantRaw)
	if err != nil {
		return false, err
	}
	if len(got) != len(want) {
		return false, fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	for _, g := range got {
		found := false
		for _, w := range want {
			if closeValues(g.values, w.values) {
				if math.Abs(g.prob-w.prob) > tolerance {
					return false, fmt.Errorf("answer %v has probability %g, want %g", g.values, g.prob, w.prob)
				}
				split = split || g.members != w.members
				found = true
				break
			}
		}
		if !found {
			return false, fmt.Errorf("answer %v is not among the expected answers", g.values)
		}
	}
	if math.Abs(gotEmpty-wantEmpty) > tolerance {
		return false, fmt.Errorf("empty-answer probability %g, want %g", gotEmpty, wantEmpty)
	}
	return split, nil
}

func checkTopK(topFP, fullFP string) error {
	top, _, err := parseFingerprint(topFP)
	if err != nil {
		return err
	}
	full, _, err := parseFingerprint(fullFP)
	if err != nil {
		return err
	}
	wantLen := min(topK, len(full))
	if len(top) != wantLen {
		return fmt.Errorf("%d answers, want %d", len(top), wantLen)
	}
	exact := make(map[string]float64, len(full))
	for _, a := range full {
		exact[string(a.Values)] = a.Prob
	}
	returned := make(map[string]bool, len(top))
	lowest := math.Inf(1)
	for _, a := range top {
		p, ok := exact[string(a.Values)]
		switch {
		case !ok:
			return fmt.Errorf("answer %s is not an o-sharing answer", a.Values)
		case a.Prob > p+tolerance:
			return fmt.Errorf("answer %s reports %g above its exact probability %g", a.Values, a.Prob, p)
		}
		returned[string(a.Values)] = true
		lowest = math.Min(lowest, p)
	}
	for _, a := range full {
		if !returned[string(a.Values)] && a.Prob > lowest+tolerance {
			return fmt.Errorf("answer %s (probability %g) is missing, but one with %g was returned", a.Values, a.Prob, lowest)
		}
	}
	return nil
}

// orderingReport prints the paper's method-ordering claims (Figs 10–12) over
// the traced cold-mix evaluations, from the median core time of each
// (query, method).  It is a report, not a gate.
func orderingReport(tr *tracer) []string {
	medianOf := func(method, query string) float64 {
		m := tr.core[method]
		if m == nil {
			return 0
		}
		return median(m.totalByQuery[query])
	}
	var queries []string
	if m := tr.core["basic"]; m != nil {
		for q := range m.totalByQuery {
			queries = append(queries, q)
		}
	}
	sort.Slice(queries, func(i, j int) bool {
		var a, b int
		fmt.Sscanf(queries[i], "Q%d", &a)
		fmt.Sscanf(queries[j], "Q%d", &b)
		return a < b
	})
	claims := []struct {
		text      string
		fast, ref string
		limit     float64
	}{
		{"e-basic << basic (h=100), ratio below 0.5", "e-basic", "basic", 0.5},
		{"q-sharing <= e-basic", "q-sharing", "e-basic", 1},
		{"o-sharing <= e-basic", "o-sharing", "e-basic", 1},
		{"top-k <= o-sharing", "topk", "o-sharing", 1},
	}
	var lines []string
	for _, c := range claims {
		holds, logSum, n := 0, 0.0, 0
		var parts []string
		for _, q := range queries {
			fast, ref := medianOf(c.fast, q), medianOf(c.ref, q)
			if fast <= 0 || ref <= 0 {
				continue
			}
			r := fast / ref
			if r <= c.limit {
				holds++
			}
			logSum += math.Log(r)
			n++
			parts = append(parts, fmt.Sprintf("%s=%.3g", q, r))
		}
		geo := 0.0
		if n > 0 {
			geo = math.Exp(logSum / float64(n))
		}
		lines = append(lines, fmt.Sprintf("claim %s: holds on %d/%d queries, geometric-mean ratio %.3g [%s]",
			c.text, holds, n, geo, strings.Join(parts, " ")))
	}
	return lines
}
