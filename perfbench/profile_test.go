//go:build !race

// The race detector's instrumentation shows up in CPU profiles as
// frames without Go symbols, so the fold is only checked without it.

package main

import "testing"

// A CPU profile of real work parses and folds to known layers.
func TestFoldProfile(t *testing.T) {
	p := &cpuProfile{}
	p.start()
	if p.err != nil {
		t.Skip("CPU profiling unavailable:", p.err)
	}
	if _, err := runSimRound(paper128, 5, nil); err != nil {
		t.Fatal(err)
	}
	fold := p.stop()
	if p.err != nil {
		t.Fatal(p.err)
	}
	var total int64
	for _, v := range fold {
		total += v
	}
	if total == 0 || fold["sim.sched"] == 0 || fold["core"] == 0 {
		t.Fatalf("fold %v", fold)
	}
	if share := float64(fold["unmapped"]) / float64(total); share > 0.05 {
		t.Errorf("unmapped share %.3f of %v", share, fold)
	}
}
