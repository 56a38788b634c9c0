package main

import (
	"sort"
	"time"

	"chef/internal/obs"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer are the metric names of BENCHMARK.json, in its order,
// with their units. A --trace 0 run reports the first, a --trace 1 run the
// second.
type metricName struct{ name, unit string }

var endToEnd = []metricName{
	{"hl_tests_per_s", "1/s"},
	{"explore_p50_s", "s"},
	{"explore_tail_s", "s"},
	{"hl_tests", "count"},
	{"line_coverage", "frac"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricName{
	{"chef.session_self_s", "s"},
	{"chef.hl_paths", "count"},
	{"chef.hl_per_ll", "ratio"},
	{"lowlevel.run_self_s", "s"},
	{"lowlevel.runs", "count"},
	{"lowlevel.forks", "count"},
	{"lowlevel.dup_frac", "frac"},
	{"lowlevel.unsat_frac", "frac"},
	{"lowlevel.hangs", "count"},
	{"lowlevel.requeued", "count"},
	{"lowlevel.abandoned", "count"},
	{"cupa.selections", "count"},
	{"symtest.replay_us", "us"},
	{"symtest.hl_steps", "count"},
	{"solver.queries", "count"},
	{"solver.check_self_s", "s"},
	{"solver.check_self_us", "us"},
	{"solver.query_p50_us", "us"},
	{"solver.query_p99_us", "us"},
	{"solver.cache_hit_frac", "frac"},
	{"solver.cache_lookup_s", "s"},
	{"solver.subsume_hits", "count"},
	{"solver.blast_s", "s"},
	{"solver.blast_calls", "count"},
	{"solver.propagations", "count"},
	{"solver.unknown", "count"},
	{"solver.persist_hit_frac", "frac"},
	{"solver.persist_lookup_s", "s"},
	{"solver.persist_appended", "count"},
	{"persist.flush_s", "s"},
	{"symexpr.interned", "count"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_s", "s"},
	{"serve.job_s", "s"},
	{"serve.tests_fetch_ms", "ms"},
	{"serve.tests_bytes", "bytes"},
	{"serve.rejected", "count"},
	{"serve.retained_heap_mb", "MB"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_frac", "frac"},
	{"fail_frac", "frac"},
}

// spanLayers are the program's span layers, outermost first.
var spanLayers = []string{
	obs.SpanServeJob, obs.SpanChefSession, obs.SpanEngineRun, obs.SpanSolverCheck,
	obs.SpanCacheLookup, obs.SpanPersistLookup, obs.SpanSolverBlast, obs.SpanPersistFlush,
}

// spanRow is one span layer's time per round.
type spanRow struct {
	Layer  string  `json:"layer"`
	Count  float64 `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	// Share is the layer's self time as a share of the round's measured
	// wall time.
	Share float64 `json:"share"`
}

// tail is explore_tail_s with the percentile it is and the sample count.
type tail struct {
	Value   float64 `json:"value_s"`
	Pct     float64 `json:"percentile"`
	Samples int     `json:"samples"`
	OK      bool    `json:"ok"` // false: fewer than minBeyond+1 samples, Value is the maximum
}

// distinct returns the first run of each distinct exploration of a round.
func distinct(rd *round) []*run {
	seen := map[string]bool{}
	var out []*run
	for _, r := range rd.runs {
		if k := r.ex.key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// endToEndMetrics computes the user-visible metrics from the untraced rounds.
func endToEndMetrics(rounds []*round, setups []time.Duration, rssMB float64) (map[string]metric, tail) {
	var (
		walls          []float64
		tests          int
		wallSum        time.Duration
		hlTests, cover float64
	)
	for _, rd := range rounds {
		if rd.traced {
			continue
		}
		wallSum += rd.wall
		for _, r := range rd.runs {
			walls = append(walls, r.wall.Seconds())
		}
		for _, r := range distinct(rd) {
			tests += len(r.tests)
		}
	}
	// hl_tests and line_coverage are over the first rounds that hold more
	// than 2*minBeyond explorations, which every untraced run completes, so
	// they are fixed for a seed.
	var first []*run
	seen := map[string]bool{}
	for i, n := 0, 0; i < len(rounds) && n <= 2*minBeyond; i++ {
		n += len(rounds[i].runs)
		for _, r := range rounds[i].runs {
			if k := r.ex.key(); !seen[k] {
				seen[k] = true
				first = append(first, r)
			}
		}
	}
	for _, r := range first {
		hlTests += float64(len(r.tests))
		cover += r.coverage / float64(len(first))
	}
	var setupS []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	tv, pct, ok := tailPercentile(walls, minBeyond)
	v := map[string]float64{
		"hl_tests_per_s": float64(tests) / wallSum.Seconds(),
		"explore_p50_s":  median(walls),
		"explore_tail_s": tv,
		"hl_tests":       hlTests,
		"line_coverage":  cover,
		"peak_rss_mb":    rssMB,
		"setup_s":        median(setupS),
	}
	return withUnits(v, endToEnd), tail{Value: tv, Pct: pct, Samples: len(walls), OK: ok}
}

// layerTotals sums the traced rounds' metrics snapshots.
type layerTotals struct {
	rounds int
	wall   time.Duration
	// The untraced rounds, for the tracing overhead.
	untracedRounds int
	untracedWall   time.Duration
	counters       map[string]int64
	queryNs        map[uint64]*obs.BucketCount // solver.query.wall_ns, by bucket
	appended       int64
	props          int64 // solver propagations, including those a persist hit replays
	rt             runtimeDelta
	heapPeak       uint64
	rejected       int64
	retained       float64
	// Per served job.
	submit, fetch, job, wait, bytes []float64
}

func sumTraced(rounds []*round) *layerTotals {
	t := &layerTotals{counters: map[string]int64{}, queryNs: map[uint64]*obs.BucketCount{}}
	add := func(s *obs.Snapshot) {
		for k, v := range s.Counters {
			t.counters[k] += v
		}
		t.props += s.Histograms[obs.MSolverQueryVirt].Sum
		for _, b := range s.Histograms[obs.MSolverQueryWall].Buckets {
			if c := t.queryNs[b.Lo]; c != nil {
				c.N += b.N
			} else {
				t.queryNs[b.Lo] = &b
			}
		}
	}
	for _, rd := range rounds {
		if !rd.traced {
			t.untracedRounds++
			t.untracedWall += rd.wall
			continue
		}
		t.rounds++
		t.wall += rd.wall
		t.appended += rd.appended
		t.rt.add(rd.rt)
		if rd.heapPeak > t.heapPeak {
			t.heapPeak = rd.heapPeak
		}
		t.rejected += rd.rejected
		t.retained += rd.retainedHeapMB
		add(&rd.flush)
		for _, r := range rd.runs {
			if r.snap == nil {
				continue
			}
			add(r.snap)
			if r.served {
				job := float64(r.snap.Counters[spanKey(obs.SpanServeJob, "wall_ns.total")]) / 1e9
				t.submit = append(t.submit, ms(r.submit))
				t.fetch = append(t.fetch, ms(r.fetch))
				t.job = append(t.job, job)
				t.wait = append(t.wait, (r.wall-r.fetch).Seconds()-job)
				t.bytes = append(t.bytes, float64(len(r.body)))
			}
		}
	}
	return t
}

func spanKey(layer, field string) string { return "span." + layer + "." + field }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanRows is each span layer's per-round count, total and self time.
func (t *layerTotals) spanRows() []spanRow {
	n := float64(t.rounds)
	var rows []spanRow
	for _, l := range spanLayers {
		c := t.counters[spanKey(l, "count")]
		if c == 0 {
			continue
		}
		self := float64(t.counters[spanKey(l, "wall_ns.self")]) / 1e9
		rows = append(rows, spanRow{
			Layer:  l,
			Count:  float64(c) / n,
			TotalS: float64(t.counters[spanKey(l, "wall_ns.total")]) / 1e9 / n,
			SelfS:  self / n,
			Share:  self / t.wall.Seconds(),
		})
	}
	return rows
}

// dominant is the span layer with the most self time; serve.job and
// persist.flush are left out because they run beside, not inside, the
// exploration layers.
func dominant(rows []spanRow) string {
	best, bestS := "", -1.0
	for _, r := range rows {
		if r.Layer == obs.SpanServeJob || r.Layer == obs.SpanPersistFlush {
			continue
		}
		if r.SelfS > bestS {
			best, bestS = r.Layer, r.SelfS
		}
	}
	return best
}

// perLayerMetrics computes the per-layer metrics, per traced round.
func (t *layerTotals) perLayerMetrics(st replayStats, interned int64, failFrac float64) map[string]metric {
	n := float64(t.rounds)
	c := func(name string) float64 { return float64(t.counters[name]) / n }
	spanS := func(layer, field string) float64 { return c(spanKey(layer, field)) / 1e9 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	buckets := make([]obs.BucketCount, 0, len(t.queryNs))
	for _, b := range t.queryNs {
		buckets = append(buckets, *b)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].Lo < buckets[j].Lo })

	queries := c(obs.MSolverQueries)
	forks := c(obs.MForks)
	subsumeHits := c(obs.MSolverCacheHitsSubsumeSat) + c(obs.MSolverCacheHitsSubsumeUnsat)
	v := map[string]float64{
		"chef.session_self_s":     spanS(obs.SpanChefSession, "wall_ns.self"),
		"chef.hl_paths":           c(obs.MChefHLPaths),
		"chef.hl_per_ll":          ratio(c(obs.MChefHLPaths), c(obs.MLLPaths)),
		"lowlevel.run_self_s":     spanS(obs.SpanEngineRun, "wall_ns.self"),
		"lowlevel.runs":           c(obs.MRuns),
		"lowlevel.forks":          forks,
		"lowlevel.dup_frac":       ratio(c(obs.MDupStates), forks),
		"lowlevel.unsat_frac":     ratio(c(obs.MUnsatStates), forks),
		"lowlevel.hangs":          c(obs.MHangs),
		"lowlevel.requeued":       c(obs.MStatesRequeued),
		"lowlevel.abandoned":      c(obs.MStatesAbandoned),
		"cupa.selections":         c(obs.MCupaSelections),
		"symtest.replay_us":       ratio(float64(st.wall.Microseconds()), float64(st.tests)),
		"symtest.hl_steps":        ratio(float64(st.hlLen), float64(st.tests)),
		"solver.queries":          queries,
		"solver.check_self_s":     spanS(obs.SpanSolverCheck, "wall_ns.self"),
		"solver.check_self_us":    ratio(spanS(obs.SpanSolverCheck, "wall_ns.self")*1e6, queries),
		"solver.query_p50_us":     histQuantile(buckets, 0.50) / 1e3,
		"solver.query_p99_us":     histQuantile(buckets, 0.99) / 1e3,
		"solver.cache_hit_frac":   ratio(c(obs.MSolverCacheHitsExact)+subsumeHits, c(spanKey(obs.SpanCacheLookup, "count"))),
		"solver.cache_lookup_s":   spanS(obs.SpanCacheLookup, "wall_ns.total"),
		"solver.subsume_hits":     subsumeHits,
		"solver.blast_s":          spanS(obs.SpanSolverBlast, "wall_ns.total"),
		"solver.blast_calls":      c(spanKey(obs.SpanSolverBlast, "count")),
		"solver.propagations":     float64(t.props) / n,
		"solver.unknown":          c(obs.MSolverUnknown),
		"solver.persist_hit_frac": ratio(c(obs.MSolverCacheHitsPersist), c(spanKey(obs.SpanPersistLookup, "count"))),
		"solver.persist_lookup_s": spanS(obs.SpanPersistLookup, "wall_ns.total"),
		"solver.persist_appended": float64(t.appended) / n,
		"persist.flush_s":         spanS(obs.SpanPersistFlush, "wall_ns.total"),
		"symexpr.interned":        float64(interned),
		"serve.submit_ms":         median(t.submit),
		"serve.queue_wait_s":      median(t.wait),
		"serve.job_s":             median(t.job),
		"serve.tests_fetch_ms":    median(t.fetch),
		"serve.tests_bytes":       median(t.bytes),
		"serve.rejected":          float64(t.rejected) / n,
		"serve.retained_heap_mb":  t.retained / n,
		"runtime.alloc_mb":        t.rt.allocBytes / (1 << 20) / n,
		"runtime.gc_cycles":       t.rt.gcCycles / n,
		"runtime.gc_cpu_frac":     ratio(t.rt.gcCPU, t.rt.totalCPU),
		"runtime.heap_peak_mb":    float64(t.heapPeak) / (1 << 20),
		"trace.overhead_frac":     ratio(t.wall.Seconds()/n, t.untracedWall.Seconds()/float64(t.untracedRounds)) - 1,
		"fail_frac":               failFrac,
	}
	return withUnits(v, perLayer)
}

// withUnits pairs each named value with its unit.
func withUnits(v map[string]float64, names []metricName) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, m := range names {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}
