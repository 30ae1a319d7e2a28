package main

import (
	"io"
	"math"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs the five workloads at 1/50 scale, untraced and
// traced, and asserts the whole contract surface: every end-to-end name comes
// out positive, every per-layer name comes out finite, nothing fails.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and trains a small predictor bundle")
	}
	start := time.Now()
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	b, err := newBench(runCfg{seed: 1, seconds: 0.3, scale: 0.02}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		b.cfg.traced = traced // same predictors: one small training is enough
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, name := range names {
			o, err := b.run(name)
			if err != nil {
				t.Fatal(err)
			}
			if !o.Correct {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", name, traced, o.Failed, o.Attempted, o.Failures)
			}
			if len(o.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", name, traced, len(o.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := o.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", name, traced, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", name, traced, d.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must be positive", name, d.Name, m.Value)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", name, d.Name, m.Unit, d.Unit)
				}
			}
			if traced && len(o.WhereTimeGoes) == 0 {
				t.Errorf("%s: the traced run recorded no spans", name)
			}
		}
	}
	// Sized to take under 10 s; not asserted, the race detector alone is 10x.
	t.Logf("smoke run took %v", time.Since(start))
}
