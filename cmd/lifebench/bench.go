package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"lifeguard/internal/experiment"
)

// This file maintains the bench trajectory: -bench-out appends one
// benchEntry per lifebench invocation to a JSON array file (the repo
// tracks BENCH_scenarios.json), recording the wall-clock cost of every
// scenario at a given scale/parallelism. Comparing entries across
// commits is how simulator performance changes are caught — the records
// themselves are byte-identical by design, so wall time is the only
// signal.

// benchScenario is one scenario's cost within an entry.
type benchScenario struct {
	// Wall is the scenario's wall-clock span in seconds: first cell
	// start to last cell finish within the shared pool.
	Wall float64 `json:"wall_s"`

	// Cells is the number of independent cells the scenario executed.
	Cells int `json:"cells"`
}

// benchEntry is one bench-trajectory data point: a full lifebench
// invocation's cost, broken down by scenario.
type benchEntry struct {
	// When is the invocation's start time, RFC 3339.
	When string `json:"when"`

	// Note is free-form context for the data point: a commit id, a
	// change description ("single-heap scheduler").
	Note string `json:"note,omitempty"`

	Scale    string `json:"scale"`
	Seed     int64  `json:"seed"`
	Parallel int    `json:"parallel"`

	// TotalWall is the whole invocation's wall time in seconds,
	// including plan and report phases outside any one scenario's span.
	TotalWall float64 `json:"total_wall_s"`

	// Scenarios maps scenario name to its cost.
	Scenarios map[string]benchScenario `json:"scenarios"`

	// SchedBench is the scheduler microbenchmark data point
	// (BenchmarkSchedulerInsertPop/paper-128: one event-loop step under
	// a load shaped like the paper's 128-member run) recorded by
	// scripts/bench.sh. Points before the single-heap scheduler measured
	// an insert+pop cycle at 100k uniformly random pending events
	// instead, so they do not compare with later ones. lifebench itself
	// never sets it, but the field must round-trip: appendBenchEntry
	// rewrites the whole file, and an unknown field would be silently
	// dropped.
	SchedBench *microBench `json:"sched_bench,omitempty"`

	// CodecBench is the wire-codec microbenchmark data point
	// (BenchmarkEncodeAllocs: marshal an Alive with a 16-member
	// piggyback compound) recorded by scripts/bench.sh, tracking the
	// encode path's cost and allocation count across commits. Like
	// SchedBench, it exists here only to round-trip.
	CodecBench *microBench `json:"codec_bench,omitempty"`

	// FanoutBench is the zero-copy delivery microbenchmark data point
	// (BenchmarkNetworkDeliverFanout: one payload copy shared by 8
	// destinations) recorded by scripts/bench.sh. Round-trip only.
	FanoutBench *microBench `json:"fanout_bench,omitempty"`

	// PushPullBench is the push-pull snapshot microbenchmark data point
	// (BenchmarkPushPullSnapshot: 1k-member state snapshot off the
	// incrementally sorted roster) recorded by scripts/bench.sh.
	// Round-trip only.
	PushPullBench *microBench `json:"pushpull_bench,omitempty"`
}

// microBench is one microbenchmark measurement.
type microBench struct {
	NsOp     float64 `json:"ns_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// newBenchEntry builds the entry for one finished invocation.
func newBenchEntry(note, scale string, seed int64, parallel int, totalWall float64, results []experiment.NamedResult) benchEntry {
	e := benchEntry{
		When:      time.Now().UTC().Format(time.RFC3339),
		Note:      note,
		Scale:     scale,
		Seed:      seed,
		Parallel:  parallel,
		TotalWall: round3(totalWall),
		Scenarios: make(map[string]benchScenario, len(results)),
	}
	for _, nr := range results {
		e.Scenarios[nr.Name] = benchScenario{Wall: round3(nr.Wall), Cells: nr.Cells}
	}
	return e
}

// round3 keeps wall times readable in the tracked file: millisecond
// precision is far below run-to-run noise.
func round3(s float64) float64 {
	return float64(int64(s*1000+0.5)) / 1000
}

// appendBenchEntry appends one entry to the JSON array in path,
// creating the file if needed. The file is rewritten whole — entries
// are few (one per tracked run) and the format stays a valid,
// indent-stable JSON array.
func appendBenchEntry(path string, e benchEntry) error {
	var entries []benchEntry
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &entries); err != nil {
			return fmt.Errorf("existing %s is not a bench entry array: %w", path, err)
		}
	case os.IsNotExist(err):
		// First entry; start a new array.
	default:
		return err
	}
	entries = append(entries, e)
	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
