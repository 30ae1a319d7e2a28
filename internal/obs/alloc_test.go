//go:build !race

// The race detector's instrumentation moves values to the heap, so
// allocation ceilings only hold without it.

package obs

import (
	"io"
	"testing"
)

// TestWriteTextAllocations bounds the garbage of one render: the escapers are
// built once per process, so a render allocates only for the text it prints
// (formatted numbers, rendered label sets), not per label value or HELP line.
func TestWriteTextAllocations(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(0.005)
	fams := []Family{
		ScalarFamily("ocsd_requests_total", "Requests served.", KindCounter, 42),
		{
			Name: "ocsd_spmv_by_format_total",
			Help: "SpMV calls per format.",
			Kind: KindCounter,
			Samples: []Sample{
				{Labels: []Label{{"format", "CSR"}}, Value: 10},
				{Labels: []Label{{"format", "DIA"}}, Value: 3},
			},
		},
		HistFamily("ocsd_spmv_seconds", "SpMV latency.", h.Snapshot()),
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := WriteText(io.Discard, fams); err != nil {
			t.Fatal(err)
		}
	})
	// 50 at the time of writing; a replacer built per call made it 103.
	if allocs > 60 {
		t.Errorf("one render allocates %.0f times, want at most 60", allocs)
	}
}
