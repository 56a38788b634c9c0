// Package benchfmt defines the schema of the continuous benchmark
// trajectory: the BENCH_<pr>.json files cmd/chef-bench writes at the repo
// root, one per change that wants a performance footprint on record. Each
// file is self-describing (schema version, seed, budgets, Go toolchain) so a
// later reader can tell whether two points on the trajectory are comparable
// before comparing them.
//
// The deterministic virtual-time core is what makes the trajectory
// meaningful: Tests and VirtTime are bit-exact functions of (package, seed,
// budgets), so any drift between two BENCH files with the same parameters is
// a behavior change, not noise. Wall-clock fields are observational and may
// drift with the host.
package benchfmt

import (
	"encoding/json"
	"fmt"

	"chef/internal/obs"
)

// SchemaVersion identifies the file layout. Bump only on incompatible
// changes; readers must refuse versions they do not know.
const SchemaVersion = "chef-bench/v1"

// File is one point on the benchmark trajectory.
type File struct {
	Schema string `json:"schema"`
	// Bench names the matrix that produced the file (e.g. "fixed-matrix" or
	// "micro"); files with different Bench values are not comparable.
	Bench     string `json:"bench"`
	Seed      int64  `json:"seed"`
	Budget    int64  `json:"budget"`
	StepLimit int64  `json:"step_limit"`
	// Reps is the number of sessions (distinct seeds) per configuration.
	Reps      int      `json:"reps"`
	GoVersion string   `json:"go_version"`
	Configs   []Config `json:"configs"`
}

// Config is one cell of the benchmark matrix.
type Config struct {
	Name     string `json:"name"`
	Package  string `json:"package"`
	Language string `json:"language"`
	// Cache is "cold" (no persistent store) or "warm" (persistent store
	// pre-populated by an identical unmeasured pass).
	Cache   string `json:"cache"`
	Workers int    `json:"workers"`
	// Shards, when > 0, marks a sharded-exploration cell (chef.ShardedSession
	// with up to Shards epoch workers). Sharded cells are deterministic across
	// shard counts but follow different semantics than plain cells, so the
	// determinism check groups them separately per package.
	Shards int `json:"shards,omitempty"`
	// SolverMode is the decision procedure behind the solver's cache layers
	// ("oneshot", "incremental" or "bdd"); empty means oneshot, keeping
	// files from before the field existed valid. Incremental cells return
	// different (equally valid) models than oneshot ones, and bdd cells
	// spend different (equally deterministic) virtual costs, so exploration
	// legitimately diverges: the determinism check groups each mode
	// separately.
	SolverMode string `json:"solver_mode,omitempty"`
	// Strategy names the state-selection strategy when a cell deviates from
	// the matrix default (e.g. "dfs" for the deep-path cells that exercise
	// incremental solving's prefix reuse); empty means the matrix default.
	Strategy string `json:"strategy,omitempty"`
	// Sessions ran; Tests and VirtTime are totals across them and are
	// deterministic. WallNs is the measured wall time of the whole cell,
	// observational only.
	Sessions int   `json:"sessions"`
	Tests    int64 `json:"tests"`
	VirtTime int64 `json:"virt_time"`
	WallNs   int64 `json:"wall_ns"`
	// VirtMakespan, for sharded cells, is the virtual-time critical path of
	// the epoch schedule (per epoch, the max worker load; summed). It is
	// deterministic per shard count but a function of it — VirtTime at 1
	// shard, shrinking toward VirtTime/shards as workers balance — so it
	// carries the shard-scaling signal: VirtTime/VirtMakespan is the cell's
	// virtual throughput.
	VirtMakespan int64 `json:"virt_makespan,omitempty"`
	// Spans is the per-layer time attribution of the cell (span profiler
	// aggregates; see internal/obs). Virtual fields are deterministic, wall
	// fields observational.
	Spans []obs.SpanAggregate `json:"spans,omitempty"`
}

// Marshal renders the file as indented JSON with a trailing newline, the
// committed on-disk form.
func Marshal(f *File) ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Parse decodes and validates a BENCH file.
func Parse(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Validate checks the file's internal consistency, including the determinism
// contract: every variant of a package (cold vs warm cache, serial vs
// parallel workers, 1-shard vs N-shard) must report identical Tests and
// VirtTime, because the persistent store's read side is fixed before a run
// and worker scheduling never reaches the virtual clock. Cells of one
// package split into determinism groups by sharding, solver mode and
// strategy — the sharded semantics, the incremental backend's models and a
// different state-selection order each legitimately change the explored
// paths — and incremental cells additionally by cache warmth, because a
// persist hit changes the context's query stream and with it later models
// (see the key construction below). Within a group every cell must agree.
// A violation means the
// determinism guarantee broke, which is exactly what the bench smoke test
// exists to catch.
func (f *File) Validate() error {
	if f.Schema != SchemaVersion {
		return fmt.Errorf("schema %q, want %q", f.Schema, SchemaVersion)
	}
	if f.Bench == "" {
		return fmt.Errorf("missing bench name")
	}
	if len(f.Configs) == 0 {
		return fmt.Errorf("no configs")
	}
	if f.GoVersion == "" {
		return fmt.Errorf("missing go_version")
	}
	type point struct{ tests, virt int64 }
	first := map[string]point{}
	firstName := map[string]string{}
	names := map[string]bool{}
	for i, c := range f.Configs {
		if c.Name == "" || c.Package == "" {
			return fmt.Errorf("config %d: missing name or package", i)
		}
		// Duplicate cells are a generator bug (a rerun appended instead of
		// replacing): the trajectory would silently double-count the cell.
		if names[c.Name] {
			return fmt.Errorf("config %s: duplicate config cell", c.Name)
		}
		names[c.Name] = true
		if c.Cache != "cold" && c.Cache != "warm" {
			return fmt.Errorf("config %s: cache %q, want cold or warm", c.Name, c.Cache)
		}
		if c.Workers < 1 || c.Sessions < 1 {
			return fmt.Errorf("config %s: workers=%d sessions=%d, want >= 1", c.Name, c.Workers, c.Sessions)
		}
		if c.Tests < 0 {
			return fmt.Errorf("config %s: tests=%d, want >= 0", c.Name, c.Tests)
		}
		if c.VirtTime <= 0 {
			return fmt.Errorf("config %s: virt_time=%d, want > 0", c.Name, c.VirtTime)
		}
		// Durations are int64 nanosecond/propagation counts, so NaN cannot
		// survive decoding (encoding/json rejects non-numeric literals), but
		// a corrupted or hand-edited file can still smuggle negatives in.
		if c.WallNs < 0 {
			return fmt.Errorf("config %s: wall_ns=%d, want >= 0", c.Name, c.WallNs)
		}
		var session *obs.SpanAggregate
		for j := range c.Spans {
			sp := &c.Spans[j]
			if sp.Count <= 0 {
				return fmt.Errorf("config %s: span %s: count=%d", c.Name, sp.Layer, sp.Count)
			}
			if sp.VirtTotal < 0 || sp.VirtSelf < 0 || sp.WallTotal < 0 || sp.WallSelf < 0 {
				return fmt.Errorf("config %s: span %s: negative duration (virt %d/%d, wall %d/%d)",
					c.Name, sp.Layer, sp.VirtSelf, sp.VirtTotal, sp.WallSelf, sp.WallTotal)
			}
			if sp.VirtSelf > sp.VirtTotal {
				return fmt.Errorf("config %s: span %s: self %d > total %d", c.Name, sp.Layer, sp.VirtSelf, sp.VirtTotal)
			}
			if sp.Layer == obs.SpanChefSession {
				session = sp
			}
		}
		if session != nil && session.VirtTotal != c.VirtTime {
			return fmt.Errorf("config %s: chef.session span total %d != virt_time %d",
				c.Name, session.VirtTotal, c.VirtTime)
		}
		if c.Shards < 0 {
			return fmt.Errorf("config %s: shards=%d, want >= 0", c.Name, c.Shards)
		}
		if c.Shards > 0 {
			if c.VirtMakespan <= 0 || c.VirtMakespan > c.VirtTime {
				return fmt.Errorf("config %s: virt_makespan=%d, want in (0, virt_time=%d]",
					c.Name, c.VirtMakespan, c.VirtTime)
			}
		}
		switch c.SolverMode {
		// "bdd" is a removed backend, still accepted so committed BENCH_10.json validates.
		case "", "oneshot", "incremental", "bdd":
		default:
			return fmt.Errorf("config %s: solver_mode %q, want oneshot, incremental or bdd", c.Name, c.SolverMode)
		}
		key := c.Package
		if c.Shards > 0 {
			key += "|sharded"
		}
		// Cells that change the decision procedure or the exploration
		// strategy legitimately produce different deterministic results, so
		// they form their own determinism groups. Empty values keep the key
		// (and therefore old files) unchanged.
		if c.SolverMode != "" {
			key += "|" + c.SolverMode
		}
		if c.SolverMode == "incremental" || c.SolverMode == "bdd" {
			// A stateful backend's per-query costs (and, for incremental,
			// models) are a function of the context's whole query stream,
			// and warmth changes the stream: a persist hit bypasses the
			// backend, so the context sees fewer queries and later solves
			// start from different internal state (assumption trail, or the
			// diagram's memo tables). Only full warmth — every query
			// replayed — reproduces the cold stream, and Unknown verdicts
			// are never persisted, so partial warmth is inherent. Cold and
			// warm cells of these modes are therefore separate determinism
			// groups; within each, shard counts must still agree exactly.
			key += "|" + c.Cache
		}
		if c.Strategy != "" {
			key += "|" + c.Strategy
		}
		got := point{c.Tests, c.VirtTime}
		if want, ok := first[key]; ok {
			if got != want {
				return fmt.Errorf("determinism violation: %s (tests=%d virt=%d) disagrees with %s (tests=%d virt=%d) on package %s",
					c.Name, got.tests, got.virt, firstName[key], want.tests, want.virt, c.Package)
			}
		} else {
			first[key] = got
			firstName[key] = c.Name
		}
	}
	return nil
}
