package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
)

func TestSameSeedSameSequences(t *testing.T) {
	amPairs, err := appendMixPairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 99} {
		if !reflect.DeepEqual(passOrder(seed, 3, 60), passOrder(seed, 3, 60)) {
			t.Errorf("seed %d: pass order differs between calls", seed)
		}
		a, b := hotDraws(seed, 1, 60), hotDraws(seed, 1, 60)
		for i := 0; i < 1000; i++ {
			if x, y := a(), b(); x != y {
				t.Fatalf("seed %d: hot-cached draw %d is %d then %d", seed, i, x, y)
			}
		}
		if !reflect.DeepEqual(appendQueryDraws(seed, len(amPairs), 500), appendQueryDraws(seed, len(amPairs), 500)) {
			t.Errorf("seed %d: append-mix query draws differ between calls", seed)
		}
		r1, r2 := appendRows(500), appendRows(500)
		for i := range r1 {
			if !sameTuple(r1[i], r2[i]) {
				t.Fatalf("seed %d: append row %d differs between calls", seed, i)
			}
		}
	}
	d1, err := generate([]datagen.TargetName{datagen.TargetExcel})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := generate([]datagen.TargetName{datagen.TargetExcel})
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range d1["excel"].DB.RelationNames() {
		x, y := d1["excel"].DB.Relation(rel).Rows, d2["excel"].DB.Relation(rel).Rows
		if len(x) != len(y) {
			t.Fatalf("%s has %d then %d rows", rel, len(x), len(y))
		}
		for i := range x {
			if !sameTuple(x[i], y[i]) {
				t.Fatalf("%s row %d differs between generations", rel, i)
			}
		}
	}
	if reflect.DeepEqual(passOrder(1, 1, 60), passOrder(2, 1, 60)) {
		t.Error("seeds 1 and 2 give the same pass order")
	}
	if reflect.DeepEqual(appendQueryDraws(1, len(amPairs), 50), appendQueryDraws(2, len(amPairs), 50)) {
		t.Error("seeds 1 and 2 give the same append-mix query sequence")
	}
}

func TestColdMixNeverReusesAKey(t *testing.T) {
	pairs, err := tableIIIPairs()
	if err != nil {
		t.Fatal(err)
	}
	type cacheKey struct {
		scenario string
		epoch    uint64
		text     string
		method   string
	}
	for _, seed := range []int64{1, 7} {
		sched := newColdSchedule(seed, pairs, map[string]uint64{"excel": 0, "noris": 0, "paragon": 0})
		seen := make(map[cacheKey]bool)
		perPass := make(map[int][]int)
		for i := 0; i < 40*len(pairs); i++ {
			idx, epoch, _ := sched.next()
			p := pairs[idx]
			k := cacheKey{p.Scenario, epoch, p.Text, p.Method}
			if seen[k] {
				t.Fatalf("seed %d: request %d repeats %+v", seed, i, k)
			}
			seen[k] = true
			perPass[sched.pass] = append(perPass[sched.pass], idx)
		}
		for pass, idxs := range perPass {
			sort.Ints(idxs)
			for i, idx := range idxs {
				if idx != i {
					t.Fatalf("seed %d: pass %d does not hold every pair once", seed, pass)
				}
			}
		}
	}
}

func TestHotCachedDrawsOnlyWarmedKeys(t *testing.T) {
	pairs, err := tableIIIPairs()
	if err != nil {
		t.Fatal(err)
	}
	// hotCached warms every pair during set-up.
	warmed := make(map[pair]bool)
	for _, p := range pairs {
		warmed[p] = true
	}
	if len(warmed) != 60 {
		t.Fatalf("%d distinct warmed pairs, want 60", len(warmed))
	}
	for c := 0; c < hotClients; c++ {
		draw := hotDraws(3, c, len(pairs))
		for i := 0; i < 10_000; i++ {
			j := draw()
			if j < 0 || j >= len(pairs) || !warmed[pairs[j]] {
				t.Fatalf("client %d draw %d is %d, not a warmed pair", c, i, j)
			}
		}
	}
}

func TestTopKCheck(t *testing.T) {
	full := `[{"values":[1],"prob":0.9},{"values":[2],"prob":0.5},{"values":[3],"prob":0.5},{"values":[4],"prob":0.1},{"values":[5],"prob":0.05},{"values":[6],"prob":0.01}]|0`
	good := `[{"values":[1],"prob":0.9},{"values":[3],"prob":0.4},{"values":[2],"prob":0.5},{"values":[4],"prob":0.1},{"values":[5],"prob":0.05}]|0`
	if err := checkTopK(good, full); err != nil {
		t.Errorf("valid top-5 refused: %v", err)
	}
	for name, bad := range map[string]string{
		"short":      `[{"values":[1],"prob":0.9}]|0`,
		"too likely": `[{"values":[1],"prob":0.95},{"values":[2],"prob":0.5},{"values":[3],"prob":0.5},{"values":[4],"prob":0.1},{"values":[5],"prob":0.05}]|0`,
		"not top":    `[{"values":[1],"prob":0.9},{"values":[2],"prob":0.5},{"values":[3],"prob":0.5},{"values":[4],"prob":0.1},{"values":[6],"prob":0.01}]|0`,
	} {
		if checkTopK(bad, full) == nil {
			t.Errorf("%s: invalid top-5 accepted", name)
		}
	}
}

func TestSameWithinTolerance(t *testing.T) {
	a := `[{"values":[7],"prob":0.14993505421717018}]|0.8500649457828304`
	b := `[{"values":[7],"prob":0.14993505421717018}]|0.8500649457828303`
	if split, err := sameWithinTolerance(a, b); err != nil || split {
		t.Errorf("last-bit probability difference: split=%v err=%v", split, err)
	}
	c := `[{"values":[8],"prob":0.14993505421717018}]|0.8500649457828304`
	if _, err := sameWithinTolerance(a, c); err == nil {
		t.Error("different tuple accepted")
	}
	// A SUM that differs in the last bit splits one answer in two.
	whole := `[{"values":["x",386608.98],"prob":0.11991084428306945}]|0`
	parts := `[{"values":["x",386608.9800000001],"prob":0.06000035949885861},{"values":["x",386608.98],"prob":0.059910484784210835}]|0`
	if split, err := sameWithinTolerance(parts, whole); err != nil || !split {
		t.Errorf("split SUM answer: split=%v err=%v", split, err)
	}
	other := `[{"values":["y",386608.98],"prob":0.11991084428306945}]|0`
	if _, err := sameWithinTolerance(parts, other); err == nil {
		t.Error("different string value accepted")
	}
}

func TestWireTuple(t *testing.T) {
	row := engine.Tuple{engine.F(12), engine.F(12.5), engine.I(3), engine.S("x")}
	want := engine.Tuple{engine.I(12), engine.F(12.5), engine.I(3), engine.S("x")}
	if got := wireTuple(row); !sameTuple(got, want) {
		t.Errorf("wireTuple = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatchesProgram keeps the metric lists of BENCHMARK.json
// in step with what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := make(map[string]string, len(ms))
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	if got, want := units(spec.EndToEnd), metricUnits(false); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end lists %v, the program reports %v", got, want)
	}
	if got, want := units(spec.PerLayer), metricUnits(true); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer lists %v, the program reports %v", got, want)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}

// metricUnits maps the names a run reports to their units, for the test
// that keeps BENCHMARK.json in step with the program.
func metricUnits(trace bool) map[string]string {
	rep := &report{tr: newTracer(), meter: &meter{}, measured: time.Second}
	lines := endToEnd(rep)
	if trace {
		lines, _ = layerMetrics(rep)
	}
	out := make(map[string]string, len(lines))
	for _, l := range lines {
		out[l.name] = l.unit
	}
	return out
}
