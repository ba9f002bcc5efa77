package engine

import "sort"

// Column pruning (late materialization of columns).  A product or join in a
// compiled pipeline builds a new tuple per output row; it builds only the
// columns some operator above it in the same pipeline reads: the projection
// list, the aggregate column (none for COUNT), the predicate columns of
// selections and the keys of joins.  Distinct compares whole rows, so its
// input keeps every column, and so does a pipeline's root: an executed plan's
// result always has its full layout.  That is why the cached (e-MQO) path and
// the relation-at-a-time API never see a pruned relation — each of their
// operators is the root of its own one-node pipeline.
//
// Names are resolved against the unpruned layout with lookupColumn, and the
// surviving columns keep their order.  A name that resolves there resolves to
// the same column in any order-preserving subset that contains it, so every
// lookup above a pruned node returns what it would without pruning.  A name
// that does not resolve (unknown or ambiguous) prunes nothing below it, and
// the resulting error reports the same layout as without pruning.
//
// A need is the ascending list of positions in a node's unpruned layout that
// operators above it read; nil means every column.  Needs are shared between
// nodes and never written after they are built.

// layout is a plan node's unpruned output layout — the columns it produces
// when nothing below it is pruned — linked to its inputs' layouts.
// planLayout computes the tree bottom-up once per compile.
type layout struct {
	cols []string // nil when the node cannot compile; nothing reading it prunes
	in   [2]*layout
}

// planLayout computes the unpruned layout tree of the plan, its nodes carved
// from one allocation.
func (e *Executor) planLayout(p Plan) *layout {
	l, _ := e.fillLayout(p, make([]layout, countNodes(p)))
	return l
}

// countNodes returns the number of nodes in the plan tree.
func countNodes(p Plan) int {
	switch n := p.(type) {
	case *SelectPlan:
		return 1 + countNodes(n.Child)
	case *ProjectPlan:
		return 1 + countNodes(n.Child)
	case *AggregatePlan:
		return 1 + countNodes(n.Child)
	case *DistinctPlan:
		return 1 + countNodes(n.Child)
	case *ProductPlan:
		return 1 + countNodes(n.Left) + countNodes(n.Right)
	case *JoinPlan:
		return 1 + countNodes(n.Left) + countNodes(n.Right)
	default:
		return 1
	}
}

// fillLayout computes p's layout in free[0] and its inputs' in the nodes
// after it, returning the nodes it did not use.
func (e *Executor) fillLayout(p Plan, free []layout) (*layout, []layout) {
	l := &free[0]
	free = free[1:]
	switch n := p.(type) {
	case *ScanPlan:
		if base, alias, err := e.scanBase(n); err == nil {
			l.cols = qualifiedScanColumns(base, alias)
		}
	case *MaterialPlan:
		if n.Rel != nil {
			l.cols = n.Rel.Columns
		}
	case *SelectPlan:
		l.in[0], free = e.fillLayout(n.Child, free)
		l.cols = l.in[0].cols
	case *DistinctPlan:
		l.in[0], free = e.fillLayout(n.Child, free)
		l.cols = l.in[0].cols
	case *ProjectPlan:
		l.in[0], free = e.fillLayout(n.Child, free)
		l.cols = projectedColumns(l.in[0].cols, n.Columns)
	case *AggregatePlan:
		l.in[0], free = e.fillLayout(n.Child, free)
		l.cols = []string{aggOutputColumn(n.Func, n.Column)}
	case *ProductPlan:
		l.in[0], free = e.fillLayout(n.Left, free)
		l.in[1], free = e.fillLayout(n.Right, free)
		l.cols = concatColumns(l.in[0].cols, l.in[1].cols)
	case *JoinPlan:
		l.in[0], free = e.fillLayout(n.Left, free)
		l.in[1], free = e.fillLayout(n.Right, free)
		l.cols = concatColumns(l.in[0].cols, l.in[1].cols)
	}
	return l, free
}

// projectedColumns is a projection's output layout: the input columns names
// resolve to, or nil when one does not resolve.
func projectedColumns(cols, names []string) []string {
	out := make([]string, len(names))
	for i, name := range names {
		j := lookupColumn(cols, name)
		if j < 0 {
			return nil
		}
		out[i] = cols[j]
	}
	return out
}

// concatColumns is the column layout of a product or join; nil when either
// side's is unknown.
func concatColumns(left, right []string) []string {
	if left == nil || right == nil {
		return nil
	}
	cols := make([]string, 0, len(left)+len(right))
	cols = append(cols, left...)
	return append(cols, right...)
}

// needColumn adds the position name resolves to in cols to need.  It returns
// nil (every column) when need is nil or the name does not resolve.
func needColumn(need []int, cols []string, name string) []int {
	if need == nil {
		return nil
	}
	j := lookupColumn(cols, name)
	if j < 0 {
		return nil
	}
	i := sort.SearchInts(need, j)
	if i < len(need) && need[i] == j {
		return need
	}
	out := make([]int, len(need)+1)
	copy(out, need[:i])
	out[i] = j
	copy(out[i+1:], need[i:])
	return out
}

// needColumns is the need of a projection's input: the positions names
// resolve to in cols, or nil when one does not resolve.
func needColumns(cols, names []string) []int {
	need := make([]int, 0, len(names))
	for _, name := range names {
		j := lookupColumn(cols, name)
		if j < 0 {
			return nil
		}
		i := sort.SearchInts(need, j)
		if i < len(need) && need[i] == j {
			continue
		}
		need = append(need, 0)
		copy(need[i+1:], need[i:])
		need[i] = j
	}
	return need
}

// needAggregate is the need of an aggregate's input: no column for COUNT,
// the aggregated column otherwise.
func needAggregate(cols []string, fn AggFunc, column string) []int {
	if fn == AggCount {
		return []int{}
	}
	return needColumn([]int{}, cols, column)
}

// needPredicate adds the columns the predicate reads to need.  A predicate
// type the engine does not know evaluates through its own Eval against the
// whole layout, so it needs every column.
func needPredicate(need []int, cols []string, p Predicate) []int {
	switch n := p.(type) {
	case *ConstPredicate:
		return needColumn(need, cols, n.Column)
	case *ColPredicate:
		return needColumn(needColumn(need, cols, n.Left), cols, n.Right)
	case *AndPredicate:
		for _, c := range n.Children {
			need = needPredicate(need, cols, c)
		}
		return need
	case *OrPredicate:
		for _, c := range n.Children {
			need = needPredicate(need, cols, c)
		}
		return need
	case *NotPredicate:
		return needPredicate(need, cols, n.Child)
	default:
		return nil
	}
}

// splitNeed divides a product's or join's need between its inputs, the left
// one having width columns.
func splitNeed(need []int, width int) (left, right []int) {
	if need == nil {
		return nil, nil
	}
	i := sort.SearchInts(need, width)
	left, right = need[:i], need[i:]
	if len(right) > 0 {
		shifted := make([]int, len(right))
		for k, j := range right {
			shifted[k] = j - width
		}
		right = shifted
	}
	return left, right
}

// colRun is a run of consecutive input columns [from, to) that a product or
// join copies into its output rows; a keep list is a sequence of runs.
type colRun struct{ from, to int }

// keepList returns the runs of columns to copy from an input's source to
// cover the input's need, the source producing the layout positions has
// (nil: all of them, width columns).  Keeping every column is one run.
func keepList(need, has []int, width int) []colRun {
	if need == nil {
		return []colRun{{0, width}}
	}
	runs := make([]colRun, 0, len(need))
	j := 0
	for _, u := range need {
		if has == nil {
			j = u
		} else {
			for has[j] != u {
				j++
			}
		}
		if n := len(runs); n > 0 && runs[n-1].to == j {
			runs[n-1].to++
		} else {
			runs = append(runs, colRun{j, j + 1})
		}
	}
	return runs
}

// keptColumns is the output layout of a product or join that keeps the need
// positions of its unpruned layout cols.
func keptColumns(cols []string, need []int) []string {
	if need == nil || len(need) == len(cols) {
		return cols
	}
	out := make([]string, len(need))
	for i, j := range need {
		out[i] = cols[j]
	}
	return out
}
