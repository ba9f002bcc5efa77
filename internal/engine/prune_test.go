package engine

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// rowPredicate is a predicate type the compiler does not know: it evaluates
// through Eval against the pipeline's layout, so nothing below it may be
// pruned.
type rowPredicate struct{ column string }

func (p *rowPredicate) Eval(rel *Relation, row Tuple) (bool, error) {
	j := rel.ColumnIndex(p.column)
	if j < 0 {
		return false, fmt.Errorf("rowPredicate: column %q not found in %v", p.column, rel.Columns)
	}
	return row[j].Kind != KindNull, nil
}

func (p *rowPredicate) String() string { return "notnull(" + p.column + ")" }

// pruneGen builds random plans over L(a,b,c), R(x,y) and S(a,y): stacks of
// selections, projections and distincts over products, joins and
// shared-index joins, with column names drawn qualified, unqualified (often
// ambiguous: a and y occur in two relations, and a relation may be scanned
// twice under different aliases) and unknown.  Every scan gets its own alias,
// so no two sub-plans share a signature and a cached executor computes each
// exactly once.
type pruneGen struct {
	rng     *rand.Rand
	aliases int
}

var pruneRelations = map[string][]string{"L": {"a", "b", "c"}, "R": {"x", "y"}, "S": {"a", "y"}}

// name draws a column reference for a node with the given unpruned layout.
func (g *pruneGen) name(cols []string) string {
	switch r := g.rng.Intn(20); {
	case r == 0 || len(cols) == 0:
		return []string{"zz", "t0.zz", "q"}[g.rng.Intn(3)] // unknown
	case r <= 3:
		return unqualified(cols[g.rng.Intn(len(cols))]) // maybe ambiguous
	default:
		return cols[g.rng.Intn(len(cols))]
	}
}

func (g *pruneGen) pred(cols []string, depth int) Predicate {
	switch r := g.rng.Intn(10); {
	case r < 4 || depth > 1:
		return &ConstPredicate{Column: g.name(cols), Op: CompareOp(g.rng.Intn(6)), Value: randValue(g.rng)}
	case r < 6:
		return &ColPredicate{Left: g.name(cols), Op: CompareOp(g.rng.Intn(6)), Right: g.name(cols)}
	case r == 6:
		return And(g.pred(cols, depth+1), g.pred(cols, depth+1))
	case r == 7:
		return &OrPredicate{Children: []Predicate{g.pred(cols, depth+1), g.pred(cols, depth+1)}}
	case r == 8:
		return &NotPredicate{Child: g.pred(cols, depth+1)}
	default:
		// Only names that resolve: the fallback evaluates per row, and an
		// unresolved name would fail at run time, not at compile time.
		if len(cols) == 0 {
			return Eq(g.name(cols), I(1))
		}
		return &rowPredicate{column: cols[g.rng.Intn(len(cols))]}
	}
}

// plan returns a random plan and its unpruned layout (best effort once a name
// fails to resolve: the plan then errors, identically everywhere).
func (g *pruneGen) plan(depth int) (Plan, []string) {
	r := g.rng.Intn(10)
	if depth >= 3 {
		r = 0
	}
	switch {
	case r <= 1:
		g.aliases++
		rels := []string{"L", "R", "S"}
		rel := rels[g.rng.Intn(len(rels))]
		alias := "t" + strconv.Itoa(g.aliases)
		cols := make([]string, len(pruneRelations[rel]))
		for i, c := range pruneRelations[rel] {
			cols[i] = alias + "." + c
		}
		return &ScanPlan{Relation: rel, Alias: alias}, cols
	case r <= 3:
		child, cols := g.plan(depth + 1)
		return &SelectPlan{Pred: g.pred(cols, 0), Child: child}, cols
	case r == 4:
		child, cols := g.plan(depth + 1)
		names := make([]string, 1+g.rng.Intn(3))
		out := make([]string, len(names))
		for i := range names {
			names[i] = g.name(cols)
			out[i] = names[i]
			if j := lookupColumn(cols, names[i]); j >= 0 {
				out[i] = cols[j]
			}
		}
		return &ProjectPlan{Columns: names, Child: child}, out
	case r == 5:
		child, cols := g.plan(depth + 1)
		return &DistinctPlan{Child: child}, cols
	case r <= 7:
		left, lcols := g.plan(depth + 1)
		right, rcols := g.plan(depth + 1)
		return &ProductPlan{Left: left, Right: right}, append(append([]string{}, lcols...), rcols...)
	default:
		left, lcols := g.plan(depth + 1)
		right, rcols := g.plan(depth + 1)
		return &JoinPlan{LeftCol: g.name(lcols), RightCol: g.name(rcols), Left: left, Right: right},
			append(append([]string{}, lcols...), rcols...)
	}
}

// root returns a random plan, sometimes under an aggregate: only at the root,
// so an aggregate's run-time error (SUM over a string) cannot race a
// compile-time error elsewhere in the plan.
func (g *pruneGen) root() Plan {
	p, cols := g.plan(0)
	if g.rng.Intn(3) > 0 {
		return p
	}
	switch fn := AggFunc(g.rng.Intn(5)); {
	case fn == AggCount && g.rng.Intn(2) == 0:
		return &AggregatePlan{Func: AggCount, Child: p} // COUNT(*)
	default:
		return &AggregatePlan{Func: fn, Column: g.name(cols), Child: p}
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestPrunedPipelineMatchesReferences is the differential test for column
// pruning.  Random plans run through the pruned batch pipeline, with and
// without the shared indexes, at batch sizes {1, 7, 1024}, and must give
// relations bit-identical to the naive reference, the error string of a
// cached executor (which materializes every node at full width), and that
// executor's logical statistics: operators, rows in and out.  (Its batch
// counts differ by design: a cached scan windows its relation uncounted.)
// With indexes the cached executor may record a scan the pipeline's index
// scan saves (a stacked selection it serves whole), so the pipeline's
// statistics are compared across batch sizes instead.
func TestPrunedPipelineMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	g := &pruneGen{rng: rng}
	var succeeded, failed int
	for trial := 0; trial < 500; trial++ {
		db := NewInstance("D")
		for _, rel := range []string{"L", "R", "S"} {
			db.AddRelation(randRelation(rng, rel, pruneRelations[rel], rng.Intn(12)))
		}
		plan := g.root()
		want, errNaive := NaiveExecute(bgCtx, db, plan, NewStats())
		for _, indexed := range []bool{false, true} {
			var first *Stats
			for _, bs := range []int{1, 7, 1024} {
				label := fmt.Sprintf("trial %d indexed=%v batch %d plan %s", trial, indexed, bs, plan.Signature())
				ref := &Executor{DB: db, Stats: NewStats(), Batch: bs, Cache: NewPlanCache()}
				ex := &Executor{DB: db, Stats: NewStats(), Batch: bs}
				if indexed {
					ref.Indexes, ex.Indexes = db.Indexes(), db.Indexes()
				}
				wantRef, errRef := ref.ExecuteContext(bgCtx, plan)
				got, err := ex.ExecuteContext(bgCtx, plan)
				if errString(err) != errString(errRef) {
					t.Fatalf("%s: error %q, cached executor %q", label, errString(err), errString(errRef))
				}
				if err != nil {
					failed++
					continue
				}
				succeeded++
				if errNaive != nil {
					t.Fatalf("%s: naive reference failed (%v) where the pipeline succeeded", label, errNaive)
				}
				requireSameRelation(t, label, want, got)
				requireSameRelation(t, label+" cached", want, wantRef)
				if !indexed {
					requireSameStats(t, label, ref.Stats, ex.Stats)
					continue
				}
				if first == nil {
					first = ex.Stats
					continue
				}
				requireSameStats(t, label, first, ex.Stats)
			}
		}
	}
	// Both outcomes must be well represented, or the test checks little.
	if succeeded < 1500 || failed < 500 {
		t.Fatalf("%d successful and %d failing executions; the generator is lopsided", succeeded, failed)
	}
}

// compiled compiles the plan as the executor's root would (no column needed
// from above but the root's own).
func compiled(t *testing.T, ex *Executor, p Plan) BatchSource {
	t.Helper()
	src, _, err := ex.compileBatch(bgCtx, p, ex.planLayout(p), nil)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestPruningNarrowsProductsAndJoins pins where pruning applies: a product or
// join under an aggregate, selection or projection builds only the columns
// read above it, in layout order; distinct, the root, and the relation API
// keep every column.
func TestPruningNarrowsProductsAndJoins(t *testing.T) {
	db := NewInstance("D")
	rng := rand.New(rand.NewSource(5))
	db.AddRelation(randRelation(rng, "L", []string{"a", "b", "c"}, 20))
	db.AddRelation(randRelation(rng, "R", []string{"x", "y"}, 20))
	ex := &Executor{DB: db, Stats: NewStats()}
	product := &ProductPlan{Left: &ScanPlan{Relation: "L"}, Right: &ScanPlan{Relation: "R"}}
	cols := func(src BatchSource) string { return strings.Join(src.Columns(), ",") }

	count := compiled(t, ex, &AggregatePlan{Func: AggCount, Child: product}).(*batchAgg)
	if got := cols(count.src); got != "" {
		t.Errorf("COUNT(*) over a product builds columns %q, want none", got)
	}
	sum := compiled(t, ex, &AggregatePlan{Func: AggSum, Column: "y", Child: product}).(*batchAgg)
	if got := cols(sum.src); got != "R.y" {
		t.Errorf("SUM(y) over a product builds %q, want R.y", got)
	}
	sel := &SelectPlan{Pred: ColEq("L.c", "R.x"), Child: product}
	proj := compiled(t, ex, &ProjectPlan{Columns: []string{"R.y", "L.a"}, Child: sel}).(*batchProject)
	if got := cols(proj.src); got != "L.a,L.c,R.x,R.y" {
		t.Errorf("project over select over product builds %q, want L.a,L.c,R.x,R.y", got)
	}
	join := &JoinPlan{LeftCol: "L.c", RightCol: "R.x", Left: &ScanPlan{Relation: "L"}, Right: &ScanPlan{Relation: "R"}}
	proj = compiled(t, ex, &ProjectPlan{Columns: []string{"L.a", "R.y"}, Child: join}).(*batchProject)
	if got := cols(proj.src); got != "L.a,R.y" {
		t.Errorf("project over join builds %q, want L.a,R.y (the keys are not read above)", got)
	}
	// An ambiguous or unknown name prunes nothing below it: the error names
	// the full layout.
	wide := &ProductPlan{Left: product, Right: &ScanPlan{Relation: "L", Alias: "M"}}
	for _, name := range []string{"a", "nope"} {
		_, err := ex.Execute(&AggregatePlan{Func: AggCount, Child: &SelectPlan{Pred: Eq(name, I(1)), Child: wide}})
		if want := "[L.a L.b L.c R.x R.y M.a M.b M.c]"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("select on %q: error %v, want one naming %s", name, err, want)
		}
	}
	dist := compiled(t, ex, &AggregatePlan{Func: AggCount, Child: &DistinctPlan{Child: product}}).(*batchAgg)
	if got := cols(dist.src); got != "L.a,L.b,L.c,R.x,R.y" {
		t.Errorf("distinct over a product keeps %q, want every column", got)
	}
	if got := cols(compiled(t, ex, product)); got != "L.a,L.b,L.c,R.x,R.y" {
		t.Errorf("root product keeps %q, want every column", got)
	}
	rel, err := Product(bgCtx, db.Relation("L"), db.Relation("R"), NewStats())
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Columns) != 5 || len(rel.Rows[0]) != 5 {
		t.Errorf("relation-API product has %d columns and %d-wide rows, want 5", len(rel.Columns), len(rel.Rows[0]))
	}
}

// TestPrunedProductAllocations: COUNT(*) over a product builds zero-width
// tuples, which allocate nothing, so its allocations do not grow with the
// product's size; a root projection of one column per side gathers into
// narrow tuples and then projects them without copying.
func TestPrunedProductAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	allocs := func(rows int, p func() Plan) float64 {
		db := NewInstance("D")
		db.AddRelation(randRelation(rng, "L", []string{"a", "b", "c"}, rows))
		db.AddRelation(randRelation(rng, "R", []string{"x", "y"}, rows))
		ex := &Executor{DB: db, Stats: NewStats()}
		plan := p()
		return testing.AllocsPerRun(5, func() {
			if _, err := ex.Execute(plan); err != nil {
				t.Fatal(err)
			}
		})
	}
	product := func() Plan { return &ProductPlan{Left: &ScanPlan{Relation: "L"}, Right: &ScanPlan{Relation: "R"}} }
	countStar := func() Plan { return &AggregatePlan{Func: AggCount, Child: product()} }
	if small, big := allocs(10, countStar), allocs(300, countStar); big != small {
		t.Errorf("COUNT(*) over a product: %v allocations at 10x10 rows, %v at 300x300; want equal", small, big)
	}
	// 300x300 rows of two columns are 180k values, 22 arena chunks, and the
	// drained row list grows about a dozen times (35 more allocations than at
	// 10x10); the full five-column width would take 55 chunks.
	project := func() Plan { return &ProjectPlan{Columns: []string{"L.b", "R.y"}, Child: product()} }
	if small, big := allocs(10, project), allocs(300, project); big-small > 40 {
		t.Errorf("project over a product: %v allocations at 10x10 rows, %v at 300x300; want at most 40 more", small, big)
	}
}
