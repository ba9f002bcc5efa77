package engine

import (
	"context"
	"fmt"
	"strings"
)

// Plan is a node of a physical source-query plan tree.  Plans are built by the
// query-reformulation layer and executed by Execute.  Each node can produce a
// canonical Signature; two plans with equal signatures compute the same result
// on every instance, which is what e-basic uses to cluster identical source
// queries and what the MQO substrate uses to find common subexpressions.
type Plan interface {
	// Signature returns the canonical rendering of the plan.
	Signature() string
	// Children returns the child plans (empty for leaves).
	Children() []Plan
}

// ScanPlan reads a base relation from the instance, qualifying its columns
// with the alias ("alias.column").  If Alias is empty the relation name is
// used.
type ScanPlan struct {
	Relation string
	Alias    string
}

// Signature implements Plan.
func (p *ScanPlan) Signature() string {
	if p.Alias != "" && p.Alias != p.Relation {
		return fmt.Sprintf("scan(%s as %s)", p.Relation, p.Alias)
	}
	return fmt.Sprintf("scan(%s)", p.Relation)
}

// Children implements Plan.
func (p *ScanPlan) Children() []Plan { return nil }

// MaterialPlan wraps an already-materialized relation (an intermediate result
// produced earlier, e.g. by o-sharing).  Its signature incorporates an
// identity label provided by the producer so that distinct intermediates do
// not collide.
type MaterialPlan struct {
	Rel   *Relation
	Label string
}

// Signature implements Plan.
func (p *MaterialPlan) Signature() string { return fmt.Sprintf("mat(%s)", p.Label) }

// Children implements Plan.
func (p *MaterialPlan) Children() []Plan { return nil }

// SelectPlan filters its child by a predicate.
type SelectPlan struct {
	Pred  Predicate
	Child Plan
}

// Signature implements Plan.
func (p *SelectPlan) Signature() string {
	return fmt.Sprintf("select[%s](%s)", p.Pred.String(), p.Child.Signature())
}

// Children implements Plan.
func (p *SelectPlan) Children() []Plan { return []Plan{p.Child} }

// ProjectPlan projects its child onto the named columns.
type ProjectPlan struct {
	Columns []string
	Child   Plan
}

// Signature implements Plan.
func (p *ProjectPlan) Signature() string {
	return fmt.Sprintf("project[%s](%s)", strings.Join(p.Columns, ","), p.Child.Signature())
}

// Children implements Plan.
func (p *ProjectPlan) Children() []Plan { return []Plan{p.Child} }

// ProductPlan is the Cartesian product of its children.
type ProductPlan struct {
	Left, Right Plan
}

// Signature implements Plan.
func (p *ProductPlan) Signature() string {
	return fmt.Sprintf("product(%s,%s)", p.Left.Signature(), p.Right.Signature())
}

// Children implements Plan.
func (p *ProductPlan) Children() []Plan { return []Plan{p.Left, p.Right} }

// JoinPlan is the equi-join of its children on LeftCol = RightCol.
type JoinPlan struct {
	LeftCol, RightCol string
	Left, Right       Plan
}

// Signature implements Plan.
func (p *JoinPlan) Signature() string {
	return fmt.Sprintf("join[%s=%s](%s,%s)", p.LeftCol, p.RightCol, p.Left.Signature(), p.Right.Signature())
}

// Children implements Plan.
func (p *JoinPlan) Children() []Plan { return []Plan{p.Left, p.Right} }

// AggregatePlan computes a single aggregate over its child.
type AggregatePlan struct {
	Func   AggFunc
	Column string
	Child  Plan
}

// Signature implements Plan.
func (p *AggregatePlan) Signature() string {
	return fmt.Sprintf("agg[%s(%s)](%s)", p.Func, p.Column, p.Child.Signature())
}

// Children implements Plan.
func (p *AggregatePlan) Children() []Plan { return []Plan{p.Child} }

// DistinctPlan removes duplicate rows from its child.
type DistinctPlan struct {
	Child Plan
}

// Signature implements Plan.
func (p *DistinctPlan) Signature() string {
	return fmt.Sprintf("distinct(%s)", p.Child.Signature())
}

// Children implements Plan.
func (p *DistinctPlan) Children() []Plan { return []Plan{p.Child} }

// CountOperators returns the number of operator nodes in the plan tree,
// excluding leaves (scans and materialized inputs), which matches the paper's
// notion of "source query operators".
func CountOperators(p Plan) int {
	if p == nil {
		return 0
	}
	n := 0
	switch p.(type) {
	case *ScanPlan, *MaterialPlan:
		// leaves are not operators
	default:
		n = 1
	}
	for _, c := range p.Children() {
		n += CountOperators(c)
	}
	return n
}

// Executor evaluates plans against an instance, optionally caching results of
// identical sub-plans (used by the MQO substrate to share common
// subexpressions) and recording statistics.
type Executor struct {
	DB    *Instance
	Stats *Stats
	// Cache maps plan signatures to materialized results.  When non-nil,
	// Execute reuses results for identical sub-plans instead of recomputing
	// them; cache hits do not count as executed operators.  A PlanCache may be
	// shared by several executors running concurrently — each shared
	// subexpression is still computed exactly once.
	Cache *PlanCache
	// Indexes is the shared base-relation index subsystem (usually the
	// instance's own, DB.Indexes()).  When non-nil, plan compilation serves
	// constant-equality selections directly above an untouched base relation
	// from a per-column hash index, and reuses the same index as a hash
	// join's build table when the build side is a bare or constant-filtered
	// base relation.  Answers are bit-identical with or without it.  nil
	// disables index use.
	Indexes *IndexCache
	// Batch is the number of rows per vector batch; 0 (or any value below 1)
	// selects DefaultBatchSize.  Purely a physical knob — answers and logical
	// operator statistics are identical at every setting.
	Batch int
	// Workers caps the parallelism of partitioned hash-join builds.  Values
	// below 2 (including 0, the default) build sequentially; builds are
	// partitioned only when the build side is large enough to amortize the
	// fan-out.  The built structure — and therefore every answer — is
	// byte-identical to a sequential build.
	Workers int
}

// NewExecutor returns an executor over the instance with a fresh Stats.
func NewExecutor(db *Instance) *Executor {
	return &Executor{DB: db, Stats: NewStats()}
}

// EnableCache turns on common-subexpression result caching.
func (e *Executor) EnableCache() { e.Cache = NewPlanCache() }

// EnableIndexes attaches the instance's shared index cache.
func (e *Executor) EnableIndexes() {
	if e.DB != nil {
		e.Indexes = e.DB.Indexes()
	}
}

// Execute evaluates the plan and returns its materialized result.
func (e *Executor) Execute(p Plan) (*Relation, error) {
	return e.ExecuteContext(context.Background(), p)
}

// ExecuteContext evaluates the plan under the context: operators check it
// periodically and the execution stops promptly with the context's error once
// it is cancelled or its deadline passes.
//
// Without a cache the plan is compiled into one batch pipeline:
// scan→select→project chains are fused and produce no intermediate
// Relations; only pipeline breakers (join build side, product inner side,
// distinct, aggregate) buffer rows, and the root materializes the result.
// With a cache every node materializes — the MQO substrate shares results per
// sub-plan signature, which requires each signature's Relation to exist — but
// each node still runs through the same batch operators.
func (e *Executor) ExecuteContext(ctx context.Context, p Plan) (*Relation, error) {
	if p == nil {
		return nil, fmt.Errorf("execute: nil plan")
	}
	if e.Cache != nil {
		return e.Cache.GetOrCompute(p.Signature(), func() (*Relation, error) {
			return e.executeMaterialized(ctx, p)
		})
	}
	if n, ok := p.(*MaterialPlan); ok {
		// Identity at the root: hand back the producer's relation unchanged.
		if n.Rel == nil {
			return nil, fmt.Errorf("materialized plan %q has nil relation", n.Label)
		}
		return n.Rel, nil
	}
	return e.executeBatch(ctx, p)
}

// executeBatch compiles the plan into a batch pipeline and materializes its
// output.  The root needs every column it produces, so its result has the
// plan's full layout; only intermediate products and joins are pruned.
func (e *Executor) executeBatch(ctx context.Context, p Plan) (*Relation, error) {
	lay := e.planLayout(p)
	if n, ok := p.(*ProjectPlan); ok {
		// Root projection — the shape every reformulated query ends in —
		// materializes fused: the child pipeline is drained to row headers and
		// the column gather runs once at the exact output size, instead of
		// carving per-batch tuples that the root would copy again.
		return e.executeBatchProjectRoot(ctx, n, lay)
	}
	src, _, err := e.compileBatch(ctx, p, lay, nil)
	if err != nil {
		return nil, err
	}
	return MaterializeBatches(src)
}

// executeBatchProjectRoot compiles the projection's child as a batch pipeline
// and gathers the projected columns straight into the result relation.  Column
// resolution, error messages and recorded statistics are identical to the
// batchProject operator's.
func (e *Executor) executeBatchProjectRoot(ctx context.Context, n *ProjectPlan, lay *layout) (*Relation, error) {
	child, _, err := e.compileBatch(ctx, n.Child, lay.in[0], needColumns(lay.in[0].cols, n.Columns))
	if err != nil {
		return nil, err
	}
	idx, err := projectIndexes(child.Columns(), n.Columns)
	if err != nil {
		return nil, err
	}
	rows, err := drainBatches(child)
	if err != nil {
		return nil, err
	}
	// The drained headers are private to this call and are rewritten in
	// place: a contiguous projection — which a child pruned to exactly the
	// projected columns always is — allocates nothing at all, any other only
	// its value slab.
	if err := projectRows(ctx, rows, idx, rows, nil); err != nil {
		return nil, err
	}
	e.Stats.record(OpKindProject, len(rows), len(rows))
	return &Relation{Name: child.Name(), Columns: lay.cols, Rows: rows}, nil
}

// projectIndexes resolves a projection's column list against the input
// layout.  The output columns are the layout's (planLayout).
func projectIndexes(cols, want []string) ([]int, error) {
	idx := make([]int, len(want))
	for i, c := range want {
		j := lookupColumn(cols, c)
		if j < 0 {
			return nil, fmt.Errorf("project: column %q not found in %v", c, cols)
		}
		idx[i] = j
	}
	return idx, nil
}

// batchSize resolves the executor's configured batch size.
func (e *Executor) batchSize() int {
	if e.Batch > 0 {
		return e.Batch
	}
	return DefaultBatchSize
}

// scanBase resolves a scan's base relation and alias.
func (e *Executor) scanBase(n *ScanPlan) (*Relation, string, error) {
	base := e.DB.Relation(n.Relation)
	if base == nil {
		return nil, "", fmt.Errorf("scan: unknown relation %q", n.Relation)
	}
	alias := n.Alias
	if alias == "" {
		alias = n.Relation
	}
	return base, alias, nil
}

// materialScan windows an in-memory relation into batches without recording
// a scan.
func (e *Executor) materialScan(ctx context.Context, rel *Relation) *batchScan {
	return &batchScan{
		ctx: ctx, name: rel.Name, cols: rel.Columns,
		rows: rel.Rows, size: e.batchSize(), stats: e.Stats,
	}
}

// compileBatch lowers a plan node into the batch pipeline.  Column references
// are resolved once here, so the per-row path does no name lookups.  lay is
// the node's unpruned layout and need the positions in it that operators
// above read (nil: all of them); products and joins build only those columns
// (prune.go).  The second result lists the positions of lay.cols the source
// produces, in order — nil when it produces all of them.
func (e *Executor) compileBatch(ctx context.Context, p Plan, lay *layout, need []int) (BatchSource, []int, error) {
	switch n := p.(type) {
	case *ScanPlan:
		if e.Cache != nil {
			// A cached executor shares every scan through its cache, which
			// records the scan when it first computes it.
			rel, err := e.ExecuteContext(ctx, n)
			if err != nil {
				return nil, nil, err
			}
			return e.materialScan(ctx, rel), nil, nil
		}
		base, alias, err := e.scanBase(n)
		if err != nil {
			return nil, nil, err
		}
		return &batchScan{
			ctx: ctx, name: alias, cols: lay.cols,
			rows: base.Rows, size: e.batchSize(), stats: e.Stats, record: true,
		}, nil, nil
	case *MaterialPlan:
		if n.Rel == nil {
			return nil, nil, fmt.Errorf("materialized plan %q has nil relation", n.Label)
		}
		return e.materialScan(ctx, n.Rel), nil, nil
	case *SelectPlan:
		if src, ok, err := e.compileIndexedSelect(ctx, n, lay.cols); err != nil || ok {
			return src, nil, err
		}
		child, has, err := e.compileBatch(ctx, n.Child, lay.in[0], needPredicate(need, lay.cols, n.Pred))
		if err != nil {
			return nil, nil, err
		}
		src, err := e.filter(ctx, child, n.Pred)
		return src, has, err
	case *ProjectPlan:
		child, _, err := e.compileBatch(ctx, n.Child, lay.in[0], needColumns(lay.in[0].cols, n.Columns))
		if err != nil {
			return nil, nil, err
		}
		idx, err := projectIndexes(child.Columns(), n.Columns)
		if err != nil {
			return nil, nil, err
		}
		return &batchProject{ctx: ctx, src: child, name: child.Name(), cols: lay.cols, idx: idx, stats: e.Stats}, nil, nil
	case *ProductPlan:
		lout, rout := splitNeed(need, len(lay.in[0].cols))
		left, lhas, err := e.compileBatch(ctx, n.Left, lay.in[0], lout)
		if err != nil {
			return nil, nil, err
		}
		right, rhas, err := e.compileBatch(ctx, n.Right, lay.in[1], rout)
		if err != nil {
			return nil, nil, err
		}
		return &batchProduct{
			ctx: ctx, left: left, right: right,
			name: left.Name() + "x" + right.Name(), cols: keptColumns(lay.cols, need),
			lkeep: keepList(lout, lhas, len(left.Columns())), rkeep: keepList(rout, rhas, len(right.Columns())),
			size: e.batchSize(), stats: e.Stats,
		}, need, nil
	case *JoinPlan:
		// Each input also needs its join key, which the output need not keep.
		lout, rout := splitNeed(need, len(lay.in[0].cols))
		left, lhas, err := e.compileBatch(ctx, n.Left, lay.in[0], needColumn(lout, lay.in[0].cols, n.LeftCol))
		if err != nil {
			return nil, nil, err
		}
		lkeep := keepList(lout, lhas, len(left.Columns()))
		if src, ok, err := e.compileSharedJoin(ctx, n, left, lay.in[1].cols, keptColumns(lay.cols, need), lkeep, rout); err != nil || ok {
			return src, need, err
		}
		right, rhas, err := e.compileBatch(ctx, n.Right, lay.in[1], needColumn(rout, lay.in[1].cols, n.RightCol))
		if err != nil {
			return nil, nil, err
		}
		li := lookupColumn(left.Columns(), n.LeftCol)
		if li < 0 {
			return nil, nil, fmt.Errorf("join: column %q not found in %v", n.LeftCol, left.Columns())
		}
		ri := lookupColumn(right.Columns(), n.RightCol)
		if ri < 0 {
			return nil, nil, fmt.Errorf("join: column %q not found in %v", n.RightCol, right.Columns())
		}
		return &batchJoin{
			ctx: ctx, left: left, right: right, li: li, ri: ri,
			name: left.Name() + "⋈" + right.Name(), cols: keptColumns(lay.cols, need),
			lkeep: lkeep, rkeep: keepList(rout, rhas, len(right.Columns())),
			size: e.batchSize(), workers: e.Workers, stats: e.Stats,
		}, need, nil
	case *AggregatePlan:
		child, _, err := e.compileBatch(ctx, n.Child, lay.in[0], needAggregate(lay.in[0].cols, n.Func, n.Column))
		if err != nil {
			return nil, nil, err
		}
		src, err := newBatchAgg(ctx, child, n.Func, n.Column, lay.cols, e.Stats)
		return src, nil, err
	case *DistinctPlan:
		// Duplicate elimination compares whole rows: its input keeps every
		// column.
		child, _, err := e.compileBatch(ctx, n.Child, lay.in[0], nil)
		if err != nil {
			return nil, nil, err
		}
		return &batchDistinct{ctx: ctx, src: child, seen: NewTupleSet(distinctSizeHint(child)), stats: e.Stats}, nil, nil
	default:
		return nil, nil, fmt.Errorf("execute: unsupported plan node %T", p)
	}
}

// filter wraps the source in a selection by the predicate.
func (e *Executor) filter(ctx context.Context, src BatchSource, pred Predicate) (BatchSource, error) {
	cols := src.Columns()
	vp, err := compileVecPredicate(pred, func(name string) int { return lookupColumn(cols, name) }, cols)
	if err != nil {
		return nil, err
	}
	return &batchFilter{ctx: ctx, src: src, pred: vp, stats: e.Stats}, nil
}

// distinctSizeHint sizes a duplicate-elimination set: exactly for a leaf
// input, whose row count bounds the distinct rows, and small otherwise.
func distinctSizeHint(src BatchSource) int {
	if s, ok := src.(*batchScan); ok {
		return len(s.rows)
	}
	return 64
}

// executeMaterialized evaluates one plan node of a cached (MQO) executor,
// where each sub-plan signature's result must exist to be shared: the node's
// children are resolved through the cache into MaterialPlan leaves, and the
// node itself runs through compileBatch.  Scan children stay plan leaves —
// compileBatch reads them through the cache unless the shared index serves
// them — so an index-served scan is never materialized or recorded.
func (e *Executor) executeMaterialized(ctx context.Context, p Plan) (*Relation, error) {
	var err error
	leaf := func(c Plan) Plan {
		if _, ok := c.(*ScanPlan); ok || err != nil {
			return c
		}
		var rel *Relation
		rel, err = e.ExecuteContext(ctx, c)
		return &MaterialPlan{Rel: rel}
	}
	var node Plan
	switch n := p.(type) {
	case *ScanPlan:
		base, alias, serr := e.scanBase(n)
		if serr != nil {
			return nil, serr
		}
		e.Stats.record(OpKindScan, 0, len(base.Rows))
		return base.QualifyColumns(alias), nil
	case *MaterialPlan:
		if n.Rel == nil {
			return nil, fmt.Errorf("materialized plan %q has nil relation", n.Label)
		}
		return n.Rel, nil
	case *SelectPlan:
		node = &SelectPlan{Pred: n.Pred, Child: leaf(n.Child)}
	case *ProjectPlan:
		node = &ProjectPlan{Columns: n.Columns, Child: leaf(n.Child)}
	case *ProductPlan:
		node = &ProductPlan{Left: leaf(n.Left), Right: leaf(n.Right)}
	case *JoinPlan:
		node = &JoinPlan{LeftCol: n.LeftCol, RightCol: n.RightCol, Left: leaf(n.Left), Right: leaf(n.Right)}
	case *AggregatePlan:
		node = &AggregatePlan{Func: n.Func, Column: n.Column, Child: leaf(n.Child)}
	case *DistinctPlan:
		node = &DistinctPlan{Child: leaf(n.Child)}
	default:
		return nil, fmt.Errorf("execute: unsupported plan node %T", p)
	}
	if err != nil {
		return nil, err
	}
	return e.executeBatch(ctx, node)
}

// qualifiedScanColumns returns the alias-qualified output columns of a scan,
// exactly as QualifyColumns names them.
func qualifiedScanColumns(base *Relation, alias string) []string {
	cols := make([]string, len(base.Columns))
	for i, c := range base.Columns {
		cols[i] = alias + "." + unqualified(c)
	}
	return cols
}

// baseLeaf is the one place that decides whether a plan leaf reads an
// untouched base relation the shared index may serve, returning the base and
// the leaf's name.  A scan names its base directly; a MaterialPlan qualifies
// when its rows are a base relation's own row list (a materialized scan or an
// untouched o-sharing fragment).
func (e *Executor) baseLeaf(p Plan) (*Relation, string, bool) {
	if e.Indexes == nil {
		return nil, "", false
	}
	switch n := p.(type) {
	case *ScanPlan:
		base, alias, err := e.scanBase(n)
		if err != nil {
			return nil, "", false // the plain compiler reports the unknown relation
		}
		return base, alias, true
	case *MaterialPlan:
		if n.Rel == nil {
			return nil, "", false
		}
		if base, ok := e.Indexes.baseForRows(n.Rel.Rows); ok {
			return base, n.Rel.Name, true
		}
	}
	return nil, "", false
}

// constFilterStack unwraps a chain of constant-only selections down to a leaf,
// returning the leaf and the per-level predicates in bottom-to-top order.
// ok=false for any other shape (a non-constant predicate anywhere in the
// chain, or a non-leaf below it).
func constFilterStack(p Plan) (Plan, []Predicate, bool) {
	var preds []Predicate // collected top to bottom
	for {
		switch n := p.(type) {
		case *ScanPlan, *MaterialPlan:
			for i, j := 0, len(preds)-1; i < j; i, j = i+1, j-1 {
				preds[i], preds[j] = preds[j], preds[i]
			}
			return n, preds, true
		case *SelectPlan:
			if _, ok := constPreds(n.Pred); !ok {
				return nil, nil, false
			}
			preds = append(preds, n.Pred)
			p = n.Child
		default:
			return nil, nil, false
		}
	}
}

// compileIndexedSelect lowers a stack of constant selections directly above
// an untouched base relation into an index probe: the bottom-most constant
// equality whose column resolves becomes the probe, and every other
// comparison is evaluated as a residual per matched row.  ok=false hands the
// plan back to the plain compiler (wrong shape, or no equality to probe
// with).  Whether the probe is actually answerable from the index depends on
// the column's content and is decided when the source starts; if not, it runs
// the plain pipeline itself.  cols is the leaf's layout.
func (e *Executor) compileIndexedSelect(ctx context.Context, top *SelectPlan, cols []string) (BatchSource, bool, error) {
	leaf, stack, ok := constFilterStack(top)
	if !ok {
		return nil, false, nil
	}
	base, name, ok := e.baseLeaf(leaf)
	if !ok {
		return nil, false, nil
	}
	resolve := func(name string) int { return lookupColumn(cols, name) }

	// Pick the probe: the bottom-most constant equality with a resolvable
	// column.  Binding errors for unresolvable columns surface below, in the
	// same bottom-to-top order as the plain compiler's.
	probeLevel, probeAt, probeCol := -1, -1, -1
	for li := range stack {
		consts, _ := constPreds(stack[li])
		for ci, cp := range consts {
			if cp.Op != OpEq {
				continue
			}
			if j := resolve(cp.Column); j >= 0 {
				probeLevel, probeAt, probeCol = li, ci, j
				break
			}
		}
		if probeLevel >= 0 {
			break
		}
	}
	if probeLevel < 0 {
		return nil, false, nil
	}

	levels := make([]selectLevel, len(stack))
	var probeVal Value
	for li, pred := range stack {
		if _, err := bindPredicate(pred, resolve, cols); err != nil {
			return nil, false, err
		}
		residual := pred
		if li == probeLevel {
			consts, _ := constPreds(pred)
			probeVal = consts[probeAt].Value
			residual = residualConsts(consts, probeAt)
		}
		if residual != nil {
			bp, err := bindPredicate(residual, resolve, cols)
			if err != nil {
				return nil, false, err
			}
			levels[li].residual = bp
		}
	}
	plain := func() (BatchSource, error) {
		src, _, err := e.compileBatch(ctx, leaf, e.planLayout(leaf), nil)
		for _, pred := range stack {
			if err != nil {
				break
			}
			src, err = e.filter(ctx, src, pred)
		}
		return src, err
	}
	return &batchIndexScan{
		ctx: ctx, cache: e.Indexes, base: base, name: name, cols: cols,
		size: e.batchSize(), stats: e.Stats, probeCol: probeCol, probeVal: probeVal,
		levels: levels, plain: plain,
	}, true, nil
}

// compileSharedJoin lowers an equi-join whose build (right) side is a bare or
// constant-filtered untouched base relation into a join over the shared
// per-column index: the build table is the instance's index and the
// build-side constant filters run per probed candidate.  The join outputs
// cols: left's lkeep columns followed by the base relation's rout columns
// (nil: all); rcols is the right leaf's layout.  ok=false hands the join back
// to the plain compiler.
func (e *Executor) compileSharedJoin(ctx context.Context, n *JoinPlan, left BatchSource, rcols, cols []string, lkeep []colRun, rout []int) (BatchSource, bool, error) {
	leaf, stack, ok := constFilterStack(n.Right)
	if !ok {
		return nil, false, nil
	}
	base, name, ok := e.baseLeaf(leaf)
	if !ok {
		return nil, false, nil
	}
	levels := make([]selectLevel, len(stack))
	for i, pred := range stack {
		bp, err := bindPredicate(pred, func(name string) int { return lookupColumn(rcols, name) }, rcols)
		if err != nil {
			return nil, false, err
		}
		levels[i].residual = bp
	}
	lcols := left.Columns()
	li := lookupColumn(lcols, n.LeftCol)
	if li < 0 {
		return nil, false, fmt.Errorf("join: column %q not found in %v", n.LeftCol, lcols)
	}
	ri := lookupColumn(rcols, n.RightCol)
	if ri < 0 {
		return nil, false, fmt.Errorf("join: column %q not found in %v", n.RightCol, rcols)
	}
	return &batchJoin{
		ctx: ctx, left: left, li: li, ri: ri,
		name: left.Name() + "⋈" + name, cols: cols,
		lkeep: lkeep, rkeep: keepList(rout, nil, len(rcols)),
		size: e.batchSize(), stats: e.Stats,
		cache: e.Indexes, base: base, levels: levels,
	}, true, nil
}
