package rope

import (
	"fmt"
	"testing"

	"mmfs/internal/msm"
)

// TestCompilePlayIsTheStrandCompiler: a one-interval rope is its strand,
// so whatever PlanOptions mean on the strand — fast-forward with and
// without skipping included — they mean on the rope: same block indices,
// same durations, same admission request (the name aside).
func TestCompilePlayIsTheStrandCompiler(t *testing.T) {
	r := newRig(t)
	rp := r.record(t, 4, 3)
	st, _ := r.ss.Get(rp.Intervals[0].Video.Strand)
	for _, opts := range []msm.PlanOptions{
		{ReadAhead: 2},
		{ReadAhead: 2, Speed: 2},
		{ReadAhead: 2, Speed: 2, Skip: true},
		{Speed: 3, Skip: true, Buffers: 6},
		{Speed: 0.5},
	} {
		t.Run(fmt.Sprintf("%+v", opts), func(t *testing.T) {
			want, err := msm.PlanStrandPlay(r.d, st, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.rs.CompilePlay(r.d, rp, VideoOnly, 0, rp.Length(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Blocks) != len(want.Blocks) {
				t.Fatalf("%d blocks on the rope, %d on the strand", len(got.Blocks), len(want.Blocks))
			}
			for i, b := range got.Blocks {
				if w := want.Blocks[i]; b.Index != w.Index || b.Duration != w.Duration {
					t.Fatalf("block %d: rope plays index %d for %v, strand index %d for %v", i, b.Index, b.Duration, w.Index, w.Duration)
				}
			}
			got.Admission.Name = want.Admission.Name
			if got.Admission != want.Admission {
				t.Fatalf("admission request: rope %+v, strand %+v", got.Admission, want.Admission)
			}
			if got.Buffers != want.Buffers || got.ReadAhead != want.ReadAhead {
				t.Fatalf("buffers/read-ahead: rope %d/%d, strand %d/%d", got.Buffers, got.ReadAhead, want.Buffers, want.ReadAhead)
			}
		})
	}
}
