// Command perfbench is the repository's wall-clock benchmark. It drives the
// CHEF reproduction only through its Go APIs — in-process sessions
// (chef.NewSession, Session.RunContext), the concrete replay of generated
// tests (symtest Replay), the persistent store (solver.OpenPersistentStore)
// and the chef-serve HTTP handler (serve.NewServer(...).Handler()) — and
// times everything from outside the program. See README.md for the
// workloads and why each was chosen.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload lua-json-cupa --seed 1 --seconds 35 --trace 0
//	bash perfbench/run.sh --workload table3-interp --trace 1 >> after.txt
//	bash perfbench/run.sh -diff before.txt after.txt
//
// A run prints its metrics by name and unit, then a self-describing record
// (one JSON line with schema perfbench/v1), and last a result line:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"chef/internal/obs"
	"chef/internal/symexpr"
)

// scratchDir holds a run's persistent-store files; it is the build
// directory run.sh uses, inside the checkout.
const scratchDir = ".bench_build"

// maxRecordedFailures caps the failure reasons a record keeps; all of them
// go to standard error.
const maxRecordedFailures = 50

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: lua-json-cupa, table3-interp or serve-mixed")
		seed    = fs.Int64("seed", 1, "workload seed; the session seeds and the job mix derive from it")
		seconds = fs.Int("seconds", 35, "measure whole rounds for about this many seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		diffAB  = fs.Bool("diff", false, "compare the records in two saved outputs: -diff A B")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diffAB {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -diff needs two record files")
			return 2
		}
		if err := diff(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of lua-json-cupa, table3-interp, serve-mixed), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	rec, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rec.Seconds = *seconds
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printRecord(stdout, rec)
	fmt.Fprintf(stdout, "%s\n", line)
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", res)
	return 0
}

// measure runs whole rounds of the workload while the next one still ends
// within d — and, for an untraced run, until there are enough explorations
// for a tail percentile at or above the median — then verifies every output
// and computes the metrics; failure reasons go to stderr. A traced
// run alternates untraced and traced rounds, ending after a traced one; the
// per-layer metrics come from the traced rounds and the tracing overhead
// from the difference.
func measure(w workload, seed int64, d time.Duration, traced bool, stderr io.Writer) (*record, error) {
	interned0 := symexpr.InternedCount()
	rng := rand.New(rand.NewSource(seed))
	list := w.round(rng)
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var (
		setups       []time.Duration
		rounds       []*round
		explorations int
		rss          float64
		interned     int64
		start        = time.Now()
	)
	for i := 0; ; i++ {
		for want := setupsAtStart + int(setupsPerSecond*time.Since(start).Seconds()); len(setups) < want; {
			e, sd, err := setup(w, dir, len(setups), false)
			if err != nil {
				return nil, err
			}
			setups = append(setups, sd)
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		tracedRound := traced && i%2 == 1
		// A traced round repeats its untraced partner's list; otherwise
		// each round draws new session seeds, unless the workload repeats
		// its round.
		if i > 0 && !tracedRound && !w.repeat {
			list = w.round(rng)
		}
		// Each round starts from a collected heap with freed memory
		// returned to the OS, so every round's resident memory grows from
		// the same baseline.
		debug.FreeOSMemory()
		roundStart := time.Now()
		rd, sd, err := playRound(w, dir, len(setups), list, tracedRound)
		if err != nil {
			return nil, err
		}
		setups = append(setups, sd)
		rounds = append(rounds, rd)
		explorations += len(rd.runs)
		if i == 0 {
			// Peak RSS and interner growth are taken over the set-ups and
			// the first round, the same work in every run with this seed;
			// later rounds add new sessions, more of them on a faster host.
			if rss, err = peakRSSMB(); err != nil {
				return nil, err
			}
			interned = symexpr.InternedCount() - interned0
		}
		// Stop before the next round (a traced run adds them in pairs)
		// would end after d, once there is something to report.
		next := time.Since(roundStart)
		if traced {
			next *= 2
		}
		enough := traced && tracedRound || !traced && explorations > 2*minBeyond
		if enough && time.Since(start)+next > d {
			break
		}
	}
	st := verify(w, rounds)

	var runs []*run
	for _, rd := range rounds {
		runs = append(runs, rd.runs...)
	}
	attempted, failed, ff := failFrac(runs)
	rec := &record{
		Schema:       schema,
		Workload:     w.name,
		Seed:         seed,
		Trace:        traced,
		Host:         describeHost(),
		Packages:     packageInfo(w.pkgs),
		Rounds:       len(rounds),
		Explorations: explorations,
		SetupSamples: len(setups),
		Attempted:    attempted,
		Failed:       failed,
	}
	for _, r := range runs {
		for _, f := range r.fails {
			fmt.Fprintf(stderr, "FAIL %s\n", f)
			if len(rec.Failures) < maxRecordedFailures {
				rec.Failures = append(rec.Failures, f)
			}
		}
	}
	if w.serve {
		rec.RepeatJobFrac = 1 - float64(len(distinct(rounds[0])))/float64(len(rounds[0].runs))
		rec.WarmJobFrac = warmJobFrac(runs)
	}
	if traced {
		t := sumTraced(rounds)
		rec.Metrics = t.perLayerMetrics(st, interned, ff)
		rec.Spans = t.spanRows()
		rec.DominantLayer = dominant(rec.Spans)
		rec.ExpectedLayer = w.layer
	} else {
		m, t := endToEndMetrics(rounds, setups, rss)
		rec.Metrics = m
		rec.Tail = &t
	}
	return rec, nil
}

// playRound sets up, runs one round of list and tears down, returning the
// round and its set-up time.
func playRound(w workload, dir string, n int, list []exploration, traced bool) (*round, time.Duration, error) {
	e, sd, err := setup(w, dir, n, traced)
	if err != nil {
		return nil, 0, err
	}
	var (
		rt0 runtimeDelta
		hs  *heapSampler
		rd  *round
	)
	if traced {
		rt0 = readRuntime()
		hs = startHeapSampler()
	}
	if w.serve {
		rd = serveRound(e, list, traced)
	} else {
		rd = runRound(e, list, traced)
	}
	if traced {
		rd.heapPeak = hs.Stop()
		rd.rt = since(rt0)
		if w.serve {
			runtime.GC()
			rd.retainedHeapMB = float64(heapLive()) / (1 << 20)
		}
	}
	rd.appended = e.store.Appended()
	if err := e.close(); err != nil {
		rd.runs[len(rd.runs)-1].fail("closing the round's server and store: %v", err)
	}
	if e.flushReg != nil {
		rd.flush = e.flushReg.Snapshot()
	}
	return rd, sd, nil
}

// warmJobFrac is the share of served jobs that hit the persistent store.
func warmJobFrac(runs []*run) float64 {
	warm, n := 0, 0
	for _, r := range runs {
		if r.snap == nil {
			continue
		}
		n++
		if r.snap.Counters[obs.MSolverCacheHitsPersist] > 0 {
			warm++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(warm) / float64(n)
}

// printRecord prints a run's metrics by name and unit.
func printRecord(w io.Writer, r *record) {
	h := r.Host
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v: %d rounds, %d explorations, %d set-ups, %d failed\n",
		r.Workload, r.Seed, r.Trace, r.Rounds, r.Explorations, r.SetupSamples, r.Failed)
	fmt.Fprintf(w, "host: %d cpus, GOMAXPROCS %d, %s, %s %s/%s, commit %s (dirty %s)\n",
		h.NProc, h.GOMAXPROCS, h.CPU, h.GoVersion, h.OS, h.Arch, h.Commit, h.Dirty)
	names := endToEnd
	if r.Trace {
		names = perLayer
	}
	for _, m := range names {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", m.name, r.Metrics[m.name].Value, m.unit)
	}
	if r.Tail != nil {
		fmt.Fprintf(w, "  explore_tail_s is p%.1f of %d explorations\n", r.Tail.Pct, r.Tail.Samples)
	}
	if r.WarmJobFrac > 0 {
		fmt.Fprintf(w, "  %.1f%% of served jobs repeat an earlier spec; %.1f%% read solver work from the store\n",
			100*r.RepeatJobFrac, 100*r.WarmJobFrac)
	}
	if len(r.Spans) > 0 {
		fmt.Fprintf(w, "spans per traced round:\n  %-22s %10s %10s %10s %7s\n", "layer", "count", "total_s", "self_s", "share")
		for _, s := range r.Spans {
			fmt.Fprintf(w, "  %-22s %10.0f %10.4f %10.4f %6.1f%%\n", s.Layer, s.Count, s.TotalS, s.SelfS, 100*s.Share)
		}
	}
	if r.ExpectedLayer != "" {
		verdict := "ok"
		if r.DominantLayer != r.ExpectedLayer {
			verdict = "NOT MET"
		}
		fmt.Fprintf(w, "layer check: most self time in %s, chosen to load %s: %s\n", r.DominantLayer, r.ExpectedLayer, verdict)
	}
}
