package core

import "testing"

// batchSizes are the settings every method must be invariant under:
// single-row batches (1), a size that straddles every operator boundary (7)
// and one larger than any intermediate relation in the running example
// (1024).  The default (BatchSize 0) is the baseline.
var batchSizes = []int{1, 7, 1024}

// TestMethodEquivalenceAcrossBatchSizes is the vectorization's safety net at
// the evaluation layer: every method at every parallelism must produce answers,
// probabilities, answer order and operator statistics bit-identical to the
// default batch size, whatever BatchSize is set to.  The batch size is a pure
// physical-execution knob; if it ever leaks into an answer or a logical
// operator count, this fails.
func TestMethodEquivalenceAcrossBatchSizes(t *testing.T) {
	db := paperInstance()
	maps := paperMappings()
	methods := []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing}

	for _, qc := range runtimeQueries {
		q := mustParse(t, qc.name, qc.text)
		for _, m := range methods {
			for _, parallelism := range []int{1, 8} {
				ev := NewEvaluator(db, maps)
				want, err := ev.Evaluate(q, Options{Method: m, Parallelism: parallelism})
				if err != nil {
					t.Fatalf("%s/%s p=%d default: %v", qc.name, m, parallelism, err)
				}
				for _, bs := range batchSizes {
					got, err := ev.Evaluate(q, Options{Method: m, Parallelism: parallelism, BatchSize: bs})
					if err != nil {
						t.Fatalf("%s/%s p=%d batch %d: %v", qc.name, m, parallelism, bs, err)
					}
					label := qc.name + "/" + m.String()
					identicalResults(t, label, want, got)
					if want.Stats.TotalOperators() != got.Stats.TotalOperators() {
						t.Errorf("%s p=%d batch %d: executed %d operators, default executed %d",
							label, parallelism, bs, got.Stats.TotalOperators(), want.Stats.TotalOperators())
					}
				}
			}
		}
	}
}

// TestTopKEquivalenceAcrossBatchSizes extends the invariance to the
// probabilistic top-k algorithm, whose early-termination decisions depend on
// the probabilities the engine computes — identical answers at every batch
// size mean the batch pipeline changed none of them.
func TestTopKEquivalenceAcrossBatchSizes(t *testing.T) {
	db := paperInstance()
	maps := paperMappings()
	q := mustParse(t, "topk", "SELECT phone FROM Person WHERE addr = 'aaa'")
	for _, k := range []int{1, 3} {
		ev := NewEvaluator(db, maps)
		want, err := ev.EvaluateTopK(q, k, Options{})
		if err != nil {
			t.Fatalf("k=%d default: %v", k, err)
		}
		for _, bs := range batchSizes {
			got, err := ev.EvaluateTopK(q, k, Options{BatchSize: bs})
			if err != nil {
				t.Fatalf("k=%d batch %d: %v", k, bs, err)
			}
			label := "topk"
			identicalResults(t, label, want, got)
			if want.Stats.TotalOperators() != got.Stats.TotalOperators() {
				t.Errorf("k=%d batch %d: executed %d operators, default executed %d",
					k, bs, got.Stats.TotalOperators(), want.Stats.TotalOperators())
			}
		}
	}
}
