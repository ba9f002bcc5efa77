package engine

import (
	"context"
	"fmt"
)

// This file is the vectorized batch pipeline, the engine's one physical
// operator set (naive.go keeps the independent reference).  Operators
// exchange ~1024-row batches — a window of row tuples plus a selection vector
// — instead of one tuple per interface call, so the hot per-row work
// (predicate comparisons, key hashing, column gathers) runs in tight loops
// with no per-row dispatch.  Output tuples are carved from flat value arenas.
// Every operator records its logical statistics and produces rows in the
// same order at any batch size, so results are bit-identical to the naive
// reference.  Plans compile into these operators (plan.go), and the
// relation-at-a-time API (operators.go) runs them over in-memory relations.

// DefaultBatchSize is the number of rows per vector batch when the executor
// does not override it.  Large enough to amortize per-batch bookkeeping to
// noise, small enough that a batch's working set stays cache-resident.
const DefaultBatchSize = 1024

// Batch is one unit of vectorized data flow: a window of rows and a selection
// vector of live row indices.  A nil Sel means every row is live.  Batches
// handed out by a BatchSource are valid only until the source's next
// NextBatch call — operators reuse their row and selection buffers — but the
// Tuple headers may be copied out freely: the values they point at live in
// base relations or value arenas and are never overwritten.
type Batch struct {
	Rows []Tuple
	Sel  []int32
}

// NumRows returns the number of live rows in the batch.
func (b *Batch) NumRows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return len(b.Rows)
}

// BatchSource is the batch pipeline's pull iterator.  NextBatch returns
// (batch, true, nil) for each non-empty batch, (nil, false, nil) at
// exhaustion, and (nil, false, err) on failure (including cancellation).
// Sources never emit empty batches: a selection that empties mid-pipeline
// advances to the next input batch instead.
type BatchSource interface {
	// Name is the relation name a materialization of this source carries.
	Name() string
	// Columns is the output column layout, fixed for the stream's life.
	Columns() []string
	// NextBatch pulls the next batch of live rows.
	NextBatch() (*Batch, bool, error)
}

// MaterializeBatches drains the source into a Relation with row headers of its
// own.
func MaterializeBatches(src BatchSource) (*Relation, error) {
	rows, err := drainBatches(src)
	if err != nil {
		return nil, err
	}
	return &Relation{Name: src.Name(), Columns: src.Columns(), Rows: rows}, nil
}

// batchScan windows a materialized row list into batches — the leaf of every
// batch pipeline, serving both base-relation scans (record=true, one "scan"
// recorded at exhaustion) and already-materialized inputs (record=false).
// Row windows alias the backing slice; nothing is copied.
type batchScan struct {
	ctx    context.Context
	name   string
	cols   []string
	rows   []Tuple
	size   int
	stats  *Stats
	record bool

	i    int
	nbat int
	out  Batch
	done bool
}

func (s *batchScan) Name() string      { return s.name }
func (s *batchScan) Columns() []string { return s.cols }

func (s *batchScan) NextBatch() (*Batch, bool, error) {
	if err := canceled(s.ctx); err != nil {
		return nil, false, err
	}
	if s.i >= len(s.rows) {
		if !s.done {
			s.done = true
			if s.record {
				s.stats.record(OpKindScan, 0, len(s.rows))
			}
			s.stats.recordBatches(s.nbat)
		}
		return nil, false, nil
	}
	hi := s.i + s.size
	if hi > len(s.rows) {
		hi = len(s.rows)
	}
	s.out = Batch{Rows: s.rows[s.i:hi]}
	s.i = hi
	s.nbat++
	return &s.out, true, nil
}

// batchFilter fuses a selection: each input batch's selection vector is
// compacted through the vectorized predicate into the filter's own buffer.
// Batches whose selection empties are skipped entirely, so downstream
// operators never see them.
type batchFilter struct {
	ctx   context.Context
	src   BatchSource
	pred  vecPredicate
	stats *Stats

	selbuf   []int32
	in, out  int
	nbat     int
	recorded bool
	outb     Batch
}

func (s *batchFilter) Name() string      { return s.src.Name() }
func (s *batchFilter) Columns() []string { return s.src.Columns() }

func (s *batchFilter) NextBatch() (*Batch, bool, error) {
	for {
		b, ok, err := s.src.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			if !s.recorded {
				s.recorded = true
				s.stats.record(OpKindSelect, s.in, s.out)
				s.stats.recordBatches(s.nbat)
			}
			return nil, false, nil
		}
		if err := canceled(s.ctx); err != nil {
			return nil, false, err
		}
		s.in += b.NumRows()
		sel, err := s.pred.filterSel(b.Rows, b.Sel, s.selbuf[:0])
		if err != nil {
			return nil, false, err
		}
		s.selbuf = sel
		if len(sel) == 0 {
			continue // selection emptied: advance to the next input batch
		}
		s.out += len(sel)
		s.nbat++
		s.outb = Batch{Rows: b.Rows, Sel: sel}
		return &s.outb, true, nil
	}
}

// batchProject gathers the projected columns of each batch's live rows
// through projectRows, emitting a dense batch (no selection vector) whose
// tuples are carved from the operator's arena.
type batchProject struct {
	ctx   context.Context
	src   BatchSource
	name  string
	cols  []string
	idx   []int
	stats *Stats
	arena valueArena

	outRows  []Tuple
	n        int
	nbat     int
	recorded bool
	outb     Batch
}

func (s *batchProject) Name() string      { return s.name }
func (s *batchProject) Columns() []string { return s.cols }

func (s *batchProject) NextBatch() (*Batch, bool, error) {
	b, ok, err := s.src.NextBatch()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		if !s.recorded {
			s.recorded = true
			s.stats.record(OpKindProject, s.n, s.n)
			s.stats.recordBatches(s.nbat)
		}
		return nil, false, nil
	}
	if err := canceled(s.ctx); err != nil {
		return nil, false, err
	}
	m := b.NumRows()
	if cap(s.outRows) < m {
		s.outRows = make([]Tuple, m)
	}
	out := s.outRows[:m]
	rows := b.Rows
	if b.Sel != nil {
		// Gather the live row headers first; projectRows then rewrites them
		// in place.
		for r, i := range b.Sel {
			out[r] = b.Rows[i]
		}
		rows = out
	}
	if err := projectRows(s.ctx, rows, s.idx, out, &s.arena); err != nil {
		return nil, false, err
	}
	s.n += m
	s.nbat++
	s.outb = Batch{Rows: out}
	return &s.outb, true, nil
}

// batchProduct is the Cartesian product: the right input is drained and
// buffered (the product's pipeline-breaking side), then each left batch's
// live rows pair with every right row, filling output batches of up to size
// rows.  Each output row gathers the left row's lkeep columns and the right
// row's rkeep columns — the ones an operator above reads (prune.go).  The
// current left batch stays valid across emitted output batches because the
// left child is only pulled again once the batch is consumed.
type batchProduct struct {
	ctx          context.Context
	left, right  BatchSource
	name         string
	cols         []string
	lkeep, rkeep []colRun
	size         int
	stats        *Stats
	arena        valueArena

	started bool
	rrows   []Tuple
	lb      *Batch
	li      int // dense position within lb
	ri      int // next right row for the current left row
	leftIn  int
	out     int
	nbat    int
	outRows []Tuple
	outb    Batch
	done    bool
}

func (s *batchProduct) Name() string      { return s.name }
func (s *batchProduct) Columns() []string { return s.cols }

func (s *batchProduct) finish() (*Batch, bool, error) {
	if !s.done {
		s.done = true
		s.stats.record(OpKindProduct, s.leftIn+len(s.rrows), s.out)
		s.stats.recordBatches(s.nbat)
	}
	return nil, false, nil
}

// liveRow returns the dense index i's row of batch b.
func liveRow(b *Batch, i int) Tuple {
	if b.Sel != nil {
		return b.Rows[b.Sel[i]]
	}
	return b.Rows[i]
}

func (s *batchProduct) NextBatch() (*Batch, bool, error) {
	if err := canceled(s.ctx); err != nil {
		return nil, false, err
	}
	if s.done {
		return nil, false, nil
	}
	if cap(s.outRows) < s.size {
		s.outRows = make([]Tuple, 0, s.size)
	}
	out, err := s.fill(s.outRows[:0])
	if err != nil {
		return nil, false, err
	}
	if len(out) == 0 {
		return s.finish()
	}
	s.out += len(out)
	s.nbat++
	s.outb = Batch{Rows: out}
	return &s.outb, true, nil
}

// fill appends product rows to out until it holds a full batch or the left
// input is exhausted.  The right input is drained on first use.
func (s *batchProduct) fill(out []Tuple) ([]Tuple, error) {
	if !s.started {
		s.started = true
		rrows, err := drainBatches(s.right)
		if err != nil {
			return nil, err
		}
		s.rrows = rrows
	}
	for n := 1; len(out) < s.size; n++ {
		if err := canceledEvery(s.ctx, n); err != nil {
			return nil, err
		}
		if s.lb == nil {
			b, ok, err := s.left.NextBatch()
			if err != nil {
				return nil, err
			}
			if !ok {
				return out, nil
			}
			s.leftIn += b.NumRows()
			if len(s.rrows) == 0 {
				continue // left rows still count as input; nothing to emit
			}
			s.lb, s.li, s.ri = b, 0, 0
		}
		out = append(out, s.arena.gather(liveRow(s.lb, s.li), s.rrows[s.ri], s.lkeep, s.rkeep, len(s.cols)))
		s.ri++
		if s.ri == len(s.rrows) {
			s.ri = 0
			s.li++
			if s.li == s.lb.NumRows() {
				s.lb = nil
			}
		}
	}
	return out, nil
}

// sizeHinter is implemented by batch sources that can bound or estimate
// their output row count.  A scan knows its exact count, and filters and
// projections cannot grow their input, so theirs is an upper bound; a join
// whose probe side is a leaf estimates once its build table exists.
// drainBatches turns the hint into one allocation instead of geometric append
// growth (and the growth's copied-then-discarded garbage).
type sizeHinter interface{ sizeHint() int }

func (s *batchScan) sizeHint() int    { return len(s.rows) }
func (s *batchFilter) sizeHint() int  { return sourceSizeHint(s.src) }
func (s *batchProject) sizeHint() int { return sourceSizeHint(s.src) }

// sourceSizeHint returns src's output row hint, or -1 when unknown.
func sourceSizeHint(src BatchSource) int {
	if h, ok := src.(sizeHinter); ok {
		return h.sizeHint()
	}
	return -1
}

// drainBatches copies every live row header of the source into a fresh slice,
// sized from the source's hint once its first batch exists.
func drainBatches(src BatchSource) (rows []Tuple, err error) {
	for {
		b, ok, err := src.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		if rows == nil {
			n := sourceSizeHint(src)
			if n < b.NumRows() {
				n = b.NumRows()
			}
			rows = make([]Tuple, 0, n)
		}
		if b.Sel == nil {
			rows = append(rows, b.Rows...)
		} else {
			for _, i := range b.Sel {
				rows = append(rows, b.Rows[i])
			}
		}
	}
}

// batchJoin is the equi-join, the engine's one join kernel.  Its build table
// is either the right input drained and hashed per query — partitioned across
// the worker pool when the build side is large enough — or, when the right
// input is an untouched (possibly constant-filtered) base relation, the
// instance's shared per-column index, with the right side's constant filters
// evaluated per probed candidate (the levels): h queries probing the same join
// then pay one build instead of h.  Left batches probe it with their key
// hashes and bucket heads gathered in tight loops per batch.  Chains preserve
// build-row order, so output order does not depend on where the build came
// from.  Like the product, each output row gathers only the lkeep/rkeep
// columns.
type batchJoin struct {
	ctx          context.Context
	left, right  BatchSource // right is nil when the build is shared
	li, ri       int
	name         string
	cols         []string
	lkeep, rkeep []colRun
	size         int
	workers      int
	stats        *Stats
	arena        valueArena

	// The shared build: the index cache, the base relation whose ri column
	// it indexes, and the build side's constant filters.
	cache  *IndexCache
	base   *Relation
	levels []selectLevel

	started bool
	build   *hashIndex
	lb      *Batch
	pi      int // dense position of the NEXT probe row within lb
	hashes  []uint64
	heads   []int32
	cur     Tuple
	curHash uint64
	chain   int32
	leftIn  int
	out     int
	nbat    int
	outRows []Tuple
	outb    Batch
	done    bool
}

func (s *batchJoin) Name() string      { return s.name }
func (s *batchJoin) Columns() []string { return s.cols }

// begin obtains the build table on first use: the shared index, or a
// per-query build over the drained right input.
func (s *batchJoin) begin() error {
	if s.started {
		return nil
	}
	s.started = true
	if s.cache != nil {
		build, err := s.cache.columnIndex(s.ctx, s.base, s.ri, s.stats)
		if err != nil {
			return err
		}
		s.stats.recordIndexLookup()
		s.build = build
		return nil
	}
	rrows, err := drainBatches(s.right)
	if err != nil {
		return err
	}
	build, err := buildColumnHashIndexPar(s.ctx, rrows, s.ri, s.workers, s.stats)
	if err != nil {
		return err
	}
	s.build = build
	return nil
}

// probeBatch precomputes the probe-key hashes of the batch's live rows — the
// interleaved batch FNV-1a pass — and then gathers their bucket heads in a
// pass of their own: the masked loads are independent, so the out-of-order
// window overlaps their cache misses instead of serializing them behind each
// probe's chain walk.
func (s *batchJoin) probeBatch(b *Batch) {
	m := b.NumRows()
	if cap(s.hashes) < m {
		s.hashes = make([]uint64, m)
		s.heads = make([]int32, m)
	}
	h, heads := s.hashes[:m], s.heads[:m]
	if b.Sel == nil {
		hashColumn(b.Rows, s.li, h)
	} else {
		hashColumnSel(b.Rows, s.li, b.Sel, h)
	}
	for i := range h {
		heads[i] = s.build.lookup(h[i])
	}
	s.hashes, s.heads = h, heads
	s.lb, s.pi = b, 0
}

// sizeHint is the no-duplicate-keys estimate of the join's output when the
// probe side is a leaf of known size and no build-side filter thins the
// matches: at most one match per probe row and per build row, so the smaller
// side bounds a duplicate-free output.
func (s *batchJoin) sizeHint() int {
	l, ok := s.left.(*batchScan)
	if !ok || s.build == nil || len(s.levels) > 0 {
		return -1
	}
	if len(s.build.rows) < len(l.rows) {
		return len(s.build.rows)
	}
	return len(l.rows)
}

func (s *batchJoin) finish() (*Batch, bool, error) {
	if !s.done {
		s.done = true
		if s.cache != nil {
			recordLevels(s.levels, s.stats)
			// The build side was never read: only probe rows count as input.
			s.stats.record(OpKindJoin, s.leftIn, s.out)
		} else {
			s.stats.record(OpKindJoin, s.leftIn+len(s.build.rows), s.out)
		}
		s.stats.recordBatches(s.nbat)
	}
	return nil, false, nil
}

func (s *batchJoin) NextBatch() (*Batch, bool, error) {
	if err := canceled(s.ctx); err != nil {
		return nil, false, err
	}
	if s.done {
		return nil, false, nil
	}
	if cap(s.outRows) < s.size {
		s.outRows = make([]Tuple, 0, s.size)
	}
	out, err := s.fill(s.outRows[:0])
	if err != nil {
		return nil, false, err
	}
	if len(out) == 0 {
		return s.finish()
	}
	s.out += len(out)
	s.nbat++
	s.outb = Batch{Rows: out}
	return &s.outb, true, nil
}

// fill appends joined rows to out until it holds a full batch or the probe
// side is exhausted.
func (s *batchJoin) fill(out []Tuple) ([]Tuple, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	bnext, bhashes, brows := s.build.next, s.build.hashes, s.build.rows
	for n := 1; len(out) < s.size; n++ {
		if err := canceledEvery(s.ctx, n); err != nil {
			return nil, err
		}
		if s.chain != 0 {
			j := s.chain
			s.chain = bnext[j-1]
			if bhashes[j-1] != s.curHash {
				continue // bucket collision: different hash entirely
			}
			rr := brows[j-1]
			if !rr[s.ri].EqualKey(s.cur[s.li]) {
				continue // hash collision, not an actual match
			}
			if len(s.levels) > 0 {
				keep, err := evalLevels(s.levels, rr)
				if err != nil {
					return nil, err
				}
				if !keep {
					continue // filtered out of the build side
				}
			}
			out = append(out, s.arena.gather(s.cur, rr, s.lkeep, s.rkeep, len(s.cols)))
			continue
		}
		if s.lb == nil || s.pi >= len(s.heads) {
			b, ok, err := s.left.NextBatch()
			if err != nil {
				return nil, err
			}
			if !ok {
				s.lb = nil
				return out, nil
			}
			s.leftIn += b.NumRows()
			s.probeBatch(b)
		}
		if j := s.heads[s.pi]; j != 0 {
			s.cur = liveRow(s.lb, s.pi)
			s.curHash = s.hashes[s.pi]
			s.chain = j
		}
		s.pi++
	}
	return out, nil
}

// batchDistinct hashes each batch's live tuples in one pass and keeps
// first-seen rows via the shared TupleSet, emitting the survivors as a
// selection over the input batch.  Stored row headers stay valid because
// tuple values live in arenas or base relations.
type batchDistinct struct {
	ctx   context.Context
	src   BatchSource
	seen  *TupleSet
	stats *Stats

	selbuf   []int32
	hashbuf  []uint64
	in, out  int
	nbat     int
	recorded bool
	outb     Batch
}

func (s *batchDistinct) Name() string      { return s.src.Name() }
func (s *batchDistinct) Columns() []string { return s.src.Columns() }

func (s *batchDistinct) NextBatch() (*Batch, bool, error) {
	for {
		b, ok, err := s.src.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			if !s.recorded {
				s.recorded = true
				s.stats.record(OpKindDistinct, s.in, s.out)
				s.stats.recordBatches(s.nbat)
			}
			return nil, false, nil
		}
		if err := canceled(s.ctx); err != nil {
			return nil, false, err
		}
		m := b.NumRows()
		s.in += m
		if cap(s.hashbuf) < m {
			s.hashbuf = make([]uint64, m)
		}
		hashes := s.hashbuf[:m]
		if b.Sel == nil {
			for i := range b.Rows {
				hashes[i] = b.Rows[i].Hash64()
			}
		} else {
			for k, i := range b.Sel {
				hashes[k] = b.Rows[i].Hash64()
			}
		}
		sel := s.selbuf[:0]
		if b.Sel == nil {
			for i := range b.Rows {
				if s.seen.AddHashed(hashes[i], b.Rows[i]) {
					sel = append(sel, int32(i))
				}
			}
		} else {
			for k, i := range b.Sel {
				if s.seen.AddHashed(hashes[k], b.Rows[i]) {
					sel = append(sel, i)
				}
			}
		}
		s.selbuf = sel
		if len(sel) == 0 {
			continue
		}
		s.out += len(sel)
		s.nbat++
		s.outb = Batch{Rows: b.Rows, Sel: sel}
		return &s.outb, true, nil
	}
}

// batchAgg drains its input through the aggregate accumulator's batch fast
// path and emits the single result row.  Accumulation order is input order,
// so float summation is bit-identical to every other execution mode.
type batchAgg struct {
	ctx   context.Context
	src   BatchSource
	cols  []string // the one aggregate column
	acc   aggAccumulator
	stats *Stats

	nbat    int
	emitted bool
	outb    Batch
}

func newBatchAgg(ctx context.Context, src BatchSource, fn AggFunc, column string, cols []string, stats *Stats) (*batchAgg, error) {
	if err := validAggFunc(fn); err != nil {
		return nil, err
	}
	idx := -1
	if fn != AggCount {
		idx = lookupColumn(src.Columns(), column)
		if idx < 0 {
			return nil, fmt.Errorf("aggregate %s: column %q not found in %v", fn, column, src.Columns())
		}
	}
	return &batchAgg{
		ctx: ctx, src: src, cols: cols, stats: stats,
		acc: aggAccumulator{fn: fn, idx: idx, column: column},
	}, nil
}

func (s *batchAgg) Name() string      { return s.src.Name() }
func (s *batchAgg) Columns() []string { return s.cols }

func (s *batchAgg) NextBatch() (*Batch, bool, error) {
	if s.emitted {
		s.stats.recordBatches(s.nbat)
		s.nbat = 0
		return nil, false, nil
	}
	for {
		b, ok, err := s.src.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		if err := canceled(s.ctx); err != nil {
			return nil, false, err
		}
		if err := s.acc.addSel(s.ctx, b.Rows, b.Sel); err != nil {
			return nil, false, err
		}
	}
	s.emitted = true
	s.nbat++
	s.stats.record(OpKindAggregate, s.acc.n, 1)
	s.outb = Batch{Rows: []Tuple{s.acc.result()}}
	return &s.outb, true, nil
}

// batchIndexScan serves a stack of constant selections directly above an
// untouched base relation from the shared per-column index: instead of
// streaming every base row through the filters, it probes the index for the
// rows whose probe column equals the constant and emits them as selection
// vectors over the index's row list, with the residual comparisons of every
// level applied per batch.  Probe matches come in base row order, so the
// output is bit-identical to the scan+filter pipeline it replaces, and the
// levels record the same logical selections.  When the column's content makes
// the constant unanswerable from the index (mixed-kind columns whose
// Compare-equality is wider than hash equality), it runs that plain pipeline
// instead, built at run time by plain.
type batchIndexScan struct {
	ctx   context.Context
	cache *IndexCache
	base  *Relation
	name  string
	cols  []string
	size  int
	stats *Stats

	probeCol int
	probeVal Value
	levels   []selectLevel
	plain    func() (BatchSource, error)

	started  bool
	fallback BatchSource
	rows     []Tuple
	matches  []int32
	mi       int
	selbuf   []int32
	nbat     int
	done     bool
	outb     Batch
}

func (s *batchIndexScan) Name() string      { return s.name }
func (s *batchIndexScan) Columns() []string { return s.cols }

func (s *batchIndexScan) start() error {
	idx, err := s.cache.columnIndex(s.ctx, s.base, s.probeCol, s.stats)
	if err != nil {
		return err
	}
	probes, ok := probeValuesForEq(s.probeVal, idx.kinds, idx.hasNaN)
	if !ok {
		s.fallback, err = s.plain()
		return err
	}
	s.stats.recordIndexLookup()
	s.matches, _, err = idx.probeMatches(s.ctx, probes)
	s.rows = idx.rows
	return err
}

func (s *batchIndexScan) NextBatch() (*Batch, bool, error) {
	if err := canceled(s.ctx); err != nil {
		return nil, false, err
	}
	if !s.started {
		s.started = true
		if err := s.start(); err != nil {
			return nil, false, err
		}
	}
	if s.fallback != nil {
		return s.fallback.NextBatch()
	}
	// Survivors of the residual comparisons fill each batch up to size,
	// however many probe matches that takes.
	sel := s.selbuf[:0]
	for s.mi < len(s.matches) && len(sel) < s.size {
		if err := canceledEvery(s.ctx, s.mi); err != nil {
			return nil, false, err
		}
		i := s.matches[s.mi]
		s.mi++
		keep, err := evalLevels(s.levels, s.rows[i])
		if err != nil {
			return nil, false, err
		}
		if keep {
			sel = append(sel, i)
		}
	}
	s.selbuf = sel
	if len(sel) > 0 {
		s.nbat++
		s.outb = Batch{Rows: s.rows, Sel: sel}
		return &s.outb, true, nil
	}
	if !s.done {
		s.done = true
		recordLevels(s.levels, s.stats)
		s.stats.recordBatches(s.nbat)
	}
	return nil, false, nil
}

// selectLevel is one bound selection of a constant-filter stack above a base
// relation, with its rows-in/rows-out accounting.  A nil residual marks a
// level whose predicate the index probe satisfies exactly.
type selectLevel struct {
	residual boundPredicate
	in, out  int
}

// evalLevels runs the row through the levels bottom-to-top, counting per-level
// input and output rows exactly as a chain of selections would.
func evalLevels(levels []selectLevel, row Tuple) (bool, error) {
	for i := range levels {
		l := &levels[i]
		l.in++
		if l.residual != nil {
			ok, err := l.residual.eval(row)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		l.out++
	}
	return true, nil
}

// recordLevels records one executed selection per level, preserving the
// logical operator counts of the scan+filter pipeline the index replaced.
func recordLevels(levels []selectLevel, stats *Stats) {
	for i := range levels {
		stats.record(OpKindSelect, levels[i].in, levels[i].out)
	}
}

// arenaChunkValues is the flat allocation unit for output tuples: operators
// that build new tuples (project, product, join) carve them out of []Value
// chunks of this size instead of calling make once per row.
const arenaChunkValues = 8192

// valueArena bulk-allocates tuples from flat []Value chunks.
type valueArena struct {
	buf []Value
}

// tuple returns a zero-length-capped slice of n fresh values.
func (a *valueArena) tuple(n int) Tuple {
	if n == 0 {
		return Tuple{}
	}
	if len(a.buf) < n {
		c := arenaChunkValues
		if c < n {
			c = n
		}
		a.buf = make([]Value, c)
	}
	t := Tuple(a.buf[:n:n])
	a.buf = a.buf[n:]
	return t
}

// gather builds the output row of a product or join: one arena-backed tuple
// of width values, lr's lkeep columns followed by rr's rkeep columns.  A side
// kept whole is one run; a row that keeps no column (COUNT(*) over a product)
// is the empty tuple and allocates nothing.
func (a *valueArena) gather(lr, rr Tuple, lkeep, rkeep []colRun, width int) Tuple {
	t := a.tuple(width)
	o := gatherRuns(t, lr, lkeep)
	gatherRuns(t[o:], rr, rkeep)
	return t
}

// gatherRuns copies row's runs of columns into dst, returning the number of
// values written.  A one-column run is assigned: for a single value that is
// cheaper than a copy call, which wins on wide runs.
func gatherRuns(dst, row Tuple, runs []colRun) int {
	o := 0
	for _, r := range runs {
		if r.to-r.from == 1 {
			dst[o] = row[r.from]
			o++
		} else {
			o += copy(dst[o:], row[r.from:r.to])
		}
	}
	return o
}

// canceledEvery reports the context error on the first call and then once per
// checkInterval calls, keeping cancellation prompt at negligible per-row cost.
func canceledEvery(ctx context.Context, n int) error {
	if n%checkInterval == 0 {
		return canceled(ctx)
	}
	return nil
}
