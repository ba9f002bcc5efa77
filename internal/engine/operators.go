package engine

import (
	"context"
	"fmt"
)

// checkInterval is the number of rows an operator processes between
// cancellation checks: small enough that cancelling a long-running operator
// takes effect promptly, large enough that the check cost is negligible.
const checkInterval = 4096

// canceled returns the context's error if it is done, and nil otherwise
// (including for a nil context).
func canceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// The functions below are the relation-at-a-time operator API: each consumes
// materialized relations and produces a materialized relation, recording one
// operator execution.  The o-sharing evaluator uses them directly — its
// fragments must stay materialized so partially executed state can be shared
// across e-units.  Each runs the matching batch operator over its in-memory
// inputs (a plan whose leaves are MaterialPlans), so the relation API and the
// plan executor share one kernel per operator.

// runOperator executes a one-operator plan over materialized inputs.
func runOperator(ctx context.Context, p Plan, stats *Stats, cache *IndexCache) (*Relation, error) {
	return (&Executor{Stats: stats, Indexes: cache}).ExecuteContext(ctx, p)
}

// Select returns the rows of rel satisfying the predicate.
func Select(ctx context.Context, rel *Relation, pred Predicate, stats *Stats) (*Relation, error) {
	return IndexedSelect(ctx, rel, pred, stats, nil)
}

// IndexedSelect is Select with an optional shared base-relation index: when
// rel is an untouched scan of one of the cache's base relations and the
// predicate is a constant equality the index can answer exactly, the matching
// rows come from the per-column hash index instead of a full scan.  The result
// is bit-identical to Select — same rows, same order.  The o-sharing
// evaluator's fragment selections go through here; a nil cache is the plain
// Select.
func IndexedSelect(ctx context.Context, rel *Relation, pred Predicate, stats *Stats, cache *IndexCache) (*Relation, error) {
	return runOperator(ctx, &SelectPlan{Pred: pred, Child: &MaterialPlan{Rel: rel}}, stats, cache)
}

// Project returns rel restricted to the given columns, in the given order.
// Duplicate rows are preserved (bag semantics); use Distinct to remove them.
func Project(ctx context.Context, rel *Relation, columns []string, stats *Stats) (*Relation, error) {
	return runOperator(ctx, &ProjectPlan{Columns: columns, Child: &MaterialPlan{Rel: rel}}, stats, nil)
}

// Product returns the Cartesian product of two relations.  Column names are
// kept as-is, so callers should qualify them beforehand when they may collide.
func Product(ctx context.Context, left, right *Relation, stats *Stats) (*Relation, error) {
	return runOperator(ctx, &ProductPlan{Left: &MaterialPlan{Rel: left}, Right: &MaterialPlan{Rel: right}}, stats, nil)
}

// HashJoin returns the equi-join of left and right on leftCol = rightCol.
// It builds a hash table on the right input, keyed by the 64-bit value hash;
// probes compare candidate rows with EqualKey, so no key strings are ever
// formatted.
func HashJoin(ctx context.Context, left, right *Relation, leftCol, rightCol string, stats *Stats) (*Relation, error) {
	return IndexedHashJoin(ctx, left, right, leftCol, rightCol, stats, nil)
}

// IndexedHashJoin is HashJoin with an optional shared build table: when the
// build (right) side is an untouched scan of one of the cache's base
// relations, the join probes the instance's shared per-column index instead of
// draining and hashing the build side per query.  Join matching is EqualKey in
// both paths, so the output is bit-identical to HashJoin.  A nil cache is the
// plain HashJoin.
func IndexedHashJoin(ctx context.Context, left, right *Relation, leftCol, rightCol string, stats *Stats, cache *IndexCache) (*Relation, error) {
	p := &JoinPlan{LeftCol: leftCol, RightCol: rightCol, Left: &MaterialPlan{Rel: left}, Right: &MaterialPlan{Rel: right}}
	return runOperator(ctx, p, stats, cache)
}

// Distinct removes duplicate rows, preserving first-seen order.
func Distinct(ctx context.Context, rel *Relation, stats *Stats) (*Relation, error) {
	return runOperator(ctx, &DistinctPlan{Child: &MaterialPlan{Rel: rel}}, stats, nil)
}

// Aggregate computes a single-row aggregate over the relation.  COUNT ignores
// the column (counting rows); the other functions require a numeric column
// except MIN/MAX which also order strings.  The result relation has a single
// column named after the aggregate.
func Aggregate(ctx context.Context, rel *Relation, fn AggFunc, column string, stats *Stats) (*Relation, error) {
	return runOperator(ctx, &AggregatePlan{Func: fn, Column: column, Child: &MaterialPlan{Rel: rel}}, stats, nil)
}

// contiguousIdx reports whether the projection indices are a contiguous
// ascending run of source columns, the shape the zero-copy window path serves.
func contiguousIdx(idx []int) bool {
	for c := 1; c < len(idx); c++ {
		if idx[c] != idx[0]+c {
			return false
		}
	}
	return len(idx) > 0
}

// projectRows is the engine's one projection kernel: it writes the idx
// columns of every rows[i] into dst[i] (len(dst) == len(rows); dst may alias
// rows, since each header is read before its slot is overwritten and the value
// backing is never written).  Gathered values come from one flat slab carved
// from arena, or from one exactly sized allocation when arena is nil.  The
// one- and two-column widths — virtually every projection the reformulated
// workloads produce — run specialized loops.
//
// When the requested columns are a contiguous run in source order (every
// single-column projection is), no values move at all: each output tuple is a
// capacity-clamped subslice of its input row.  Tuples are immutable once
// built — batches already alias base-relation rows on the same contract — so
// sharing the value backing is observationally identical to copying it.  The
// full slice expression pins cap to the window, keeping any later append from
// writing into the source row's other columns.
func projectRows(ctx context.Context, rows []Tuple, idx []int, dst []Tuple, arena *valueArena) error {
	n := len(rows)
	if n == 0 {
		return nil
	}
	k := len(idx)
	if k == 0 {
		for i := range dst {
			dst[i] = Tuple{}
		}
		return nil
	}
	if contiguousIdx(idx) {
		j0, j1 := idx[0], idx[0]+k
		for lo := 0; lo < n; lo += checkInterval {
			if lo > 0 {
				if err := canceled(ctx); err != nil {
					return err
				}
			}
			hi := lo + checkInterval
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				dst[i] = rows[i][j0:j1:j1]
			}
		}
		return nil
	}
	var flat []Value
	if arena != nil {
		flat = arena.tuple(k * n)
	} else {
		flat = make([]Value, k*n)
	}
	for lo := 0; lo < n; lo += checkInterval {
		if lo > 0 {
			if err := canceled(ctx); err != nil {
				return err
			}
		}
		hi := lo + checkInterval
		if hi > n {
			hi = n
		}
		off := lo * k
		switch k {
		case 1:
			j0 := idx[0]
			for i := lo; i < hi; i++ {
				t := Tuple(flat[off : off+1 : off+1])
				t[0] = rows[i][j0]
				dst[i] = t
				off++
			}
		case 2:
			j0, j1 := idx[0], idx[1]
			for i := lo; i < hi; i++ {
				t := Tuple(flat[off : off+2 : off+2])
				row := rows[i]
				t[0] = row[j0]
				t[1] = row[j1]
				dst[i] = t
				off += 2
			}
		default:
			for i := lo; i < hi; i++ {
				row := rows[i]
				t := Tuple(flat[off : off+k : off+k])
				for c, j := range idx {
					t[c] = row[j]
				}
				dst[i] = t
				off += k
			}
		}
	}
	return nil
}

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions supported by the workloads (COUNT and SUM are the ones
// used by the paper's queries; AVG/MIN/MAX round out the engine).
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL spelling of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// validAggFunc rejects aggregate functions outside the supported set.
func validAggFunc(fn AggFunc) error {
	switch fn {
	case AggCount, AggSum, AggAvg, AggMin, AggMax:
		return nil
	default:
		return fmt.Errorf("aggregate: unsupported function %v", fn)
	}
}

// aggOutputColumn names the single result column of an aggregate.
func aggOutputColumn(fn AggFunc, column string) string {
	if column != "" {
		return fn.String() + "(" + column + ")"
	}
	return fn.String()
}

// aggAccumulator folds rows into a single aggregate value for batchAgg: the
// COUNT/SUM/AVG/MIN/MAX semantics — accumulation order, error strings, the
// NULL-on-empty rules — exist exactly once.
type aggAccumulator struct {
	fn     AggFunc
	idx    int    // value column position; -1 for COUNT
	column string // display name, for error messages
	n      int
	sum    float64
	numIn  int
	best   Value
}

// addAll folds a dense row slice (a full batch) with per-function loops.  The
// hot loops accumulate into locals, read values through a pointer and run in
// checkInterval blocks so the inner loop carries no per-row cancellation
// arithmetic: a per-row field store, a 48-byte Value copy or a modulo per row
// are all measurable at scan speed.
func (a *aggAccumulator) addAll(ctx context.Context, rows []Tuple) error {
	switch a.fn {
	case AggCount:
		a.n += len(rows)
	case AggSum, AggAvg:
		idx := a.idx
		sum := a.sum
		for lo := 0; lo < len(rows); lo += checkInterval {
			if lo > 0 {
				if err := canceled(ctx); err != nil {
					a.sum = sum
					return err
				}
			}
			hi := lo + checkInterval
			if hi > len(rows) {
				hi = len(rows)
			}
			for i := lo; i < hi; i++ {
				v := &rows[i][idx]
				switch v.Kind {
				case KindFloat:
					sum += v.Float
				case KindInt:
					sum += float64(v.Int)
				default:
					f, ok := v.AsFloat()
					if !ok {
						a.sum = sum
						a.n += i + 1
						return fmt.Errorf("aggregate %s: non-numeric value %v in column %q", a.fn, *v, a.column)
					}
					sum += f
				}
			}
		}
		a.sum = sum
		a.n += len(rows)
		a.numIn += len(rows)
	case AggMin, AggMax:
		idx := a.idx
		for lo := 0; lo < len(rows); lo += checkInterval {
			if lo > 0 {
				if err := canceled(ctx); err != nil {
					return err
				}
			}
			hi := lo + checkInterval
			if hi > len(rows) {
				hi = len(rows)
			}
			for i := lo; i < hi; i++ {
				v := rows[i][idx]
				if a.n == 0 && i == 0 {
					a.best = v
				} else if cmp := v.Compare(a.best); (a.fn == AggMin && cmp < 0) || (a.fn == AggMax && cmp > 0) {
					a.best = v
				}
			}
		}
		a.n += len(rows)
	}
	return nil
}

// addSel folds the live rows of one batch: the selection vector indexes into
// rows exactly as the batch operators produced it, so accumulation order —
// and therefore float summation — is identical to feeding the selected rows
// one at a time.  A nil selection is the full batch (addAll).  Selection
// vectors are bounded by the batch size, so the caller's per-batch
// cancellation check keeps the selected path prompt; the full-batch path
// re-checks per block in case the configured batch size is huge.
func (a *aggAccumulator) addSel(ctx context.Context, rows []Tuple, sel []int32) error {
	if sel == nil {
		return a.addAll(ctx, rows)
	}
	switch a.fn {
	case AggCount:
		a.n += len(sel)
	case AggSum, AggAvg:
		idx := a.idx
		sum := a.sum
		for k, i := range sel {
			v := &rows[i][idx]
			switch v.Kind {
			case KindFloat:
				sum += v.Float
			case KindInt:
				sum += float64(v.Int)
			default:
				f, ok := v.AsFloat()
				if !ok {
					a.sum = sum
					a.n += k + 1
					return fmt.Errorf("aggregate %s: non-numeric value %v in column %q", a.fn, *v, a.column)
				}
				sum += f
			}
		}
		a.sum = sum
		a.n += len(sel)
		a.numIn += len(sel)
	case AggMin, AggMax:
		idx := a.idx
		for k, i := range sel {
			v := rows[i][idx]
			if a.n == 0 && k == 0 {
				a.best = v
			} else if cmp := v.Compare(a.best); (a.fn == AggMin && cmp < 0) || (a.fn == AggMax && cmp > 0) {
				a.best = v
			}
		}
		a.n += len(sel)
	}
	return nil
}

func (a *aggAccumulator) result() Tuple {
	switch a.fn {
	case AggCount:
		return Tuple{I(int64(a.n))}
	case AggSum:
		return Tuple{F(a.sum)}
	case AggAvg:
		if a.numIn == 0 {
			return Tuple{Null()}
		}
		return Tuple{F(a.sum / float64(a.numIn))}
	default: // AggMin, AggMax
		if a.n == 0 {
			return Tuple{Null()}
		}
		return Tuple{a.best}
	}
}
