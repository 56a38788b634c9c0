package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chef/internal/lowlevel"
	"chef/internal/obs"
	"chef/internal/symtest"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n        int
		value    float64
		pct      float64
		ok       bool
		describe string
	}{
		{100, 90, 90, true, "p90 has exactly 10 samples beyond it"},
		{1000, 990, 99, true, "p99 with 1000 samples"},
		{40, 30, 75, true, "p75 with 40 samples"},
		{11, 1, 100.0 / 11, true, "the smallest sample count that qualifies"},
		{10, 10, 100, false, "too few samples: the maximum, not a percentile"},
		{1, 1, 100, false, "one sample"},
	}
	for _, c := range cases {
		v, pct, ok := tailPercentile(seq(c.n), minBeyond)
		if v != c.value || pct != c.pct || ok != c.ok {
			t.Errorf("%s: tailPercentile(%d samples) = %v, p%v, %v; want %v, p%v, %v",
				c.describe, c.n, v, pct, ok, c.value, c.pct, c.ok)
		}
	}
	if _, _, ok := tailPercentile(nil, minBeyond); ok {
		t.Error("no samples must not qualify")
	}
}

// TestQuartiles checks the values Python's statistics.quantiles(xs, n=4)
// gives for the same inputs.
func TestQuartiles(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(4), 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	// 100 observations in [64, 128) and 100 in [128, 256).
	bs := []obs.BucketCount{{Lo: 64, Hi: 127, N: 100}, {Lo: 128, Hi: 255, N: 100}}
	if got := histQuantile(bs, 0.5); got != 127 {
		t.Errorf("p50 = %v, want the top of the first bucket (127)", got)
	}
	if got := histQuantile(bs, 0.75); got != 128+127*0.5 {
		t.Errorf("p75 = %v, want the middle of the second bucket", got)
	}
	if got := histQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty histogram: %v", got)
	}
}

func TestFailFrac(t *testing.T) {
	ok := &run{}
	one := &run{fails: []string{"job not succeeded"}}
	two := &run{fails: []string{"non-2xx response", "oracle mismatch"}}
	attempted, failed, frac := failFrac([]*run{ok, one, two, ok})
	if attempted != 4 || failed != 2 || frac != 0.5 {
		t.Errorf("failFrac = %d attempted, %d failed, %v; want 4, 2, 0.5 (an exploration fails once)", attempted, failed, frac)
	}
	if a, f, fr := failFrac(nil); a != 0 || f != 0 || fr != 0 {
		t.Errorf("no runs: %d %d %v", a, f, fr)
	}
}

func TestCheckReplay(t *testing.T) {
	hang := lowlevel.RunHang.String()
	done := lowlevel.RunCompleted.String()
	cases := []struct {
		name     string
		tc       symtest.SerializedTest
		rep      symtest.ReplayResult
		fromWire bool
		ok       bool
	}{
		{"hang: Replay renames the empty result", symtest.SerializedTest{Status: hang, Result: ""},
			symtest.ReplayResult{Status: lowlevel.RunHang, Result: "hang"}, false, true},
		{"hang: the result where the limit struck is not compared", symtest.SerializedTest{Status: hang, Result: "exception:KeyError"},
			symtest.ReplayResult{Status: lowlevel.RunHang, Result: "hang"}, false, true},
		{"a recorded hang that completes on replay", symtest.SerializedTest{Status: hang, Result: ""},
			symtest.ReplayResult{Status: lowlevel.RunCompleted, Result: "ok"}, false, false},
		{"a completed run that hangs on replay", symtest.SerializedTest{Status: done, Result: "ok"},
			symtest.ReplayResult{Status: lowlevel.RunHang, Result: "hang"}, false, false},
		{"same result", symtest.SerializedTest{Status: done, Result: "exception:ValueError"},
			symtest.ReplayResult{Status: lowlevel.RunCompleted, Result: "exception:ValueError"}, false, true},
		{"different result", symtest.SerializedTest{Status: done, Result: "ok"},
			symtest.ReplayResult{Status: lowlevel.RunCompleted, Result: "exception:ValueError"}, false, false},
		{"invalid UTF-8 as the wire carries it", symtest.SerializedTest{Status: done, Result: "error:tag \ufffd"},
			symtest.ReplayResult{Status: lowlevel.RunCompleted, Result: "error:tag \x80"}, true, true},
		{"invalid UTF-8 in-process is compared raw", symtest.SerializedTest{Status: done, Result: "error:tag \ufffd"},
			symtest.ReplayResult{Status: lowlevel.RunCompleted, Result: "error:tag \x80"}, false, false},
	}
	for _, c := range cases {
		err := checkReplay(c.tc, c.rep, c.fromWire)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkReplay = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestRecordLanguage guards against writing the language as string(Lang),
// which turns the numeric value into a control character.
func TestRecordLanguage(t *testing.T) {
	got := packageInfo([]string{"simplejson", "JSON"})
	if got[0].Lang != "Python" || got[1].Lang != "Lua" {
		t.Fatalf("languages = %+v, want Python and Lua", got)
	}
	data, err := json.Marshal(record{Schema: schema, Packages: got})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`\u0000`)) || bytes.Contains(data, []byte(`\u0001`)) {
		t.Errorf("record carries a control character: %s", data)
	}
}

// TestVerifyDeterminism: two runs of one exploration with different tests
// fail the later one only.
func TestVerifyDeterminism(t *testing.T) {
	ex := exploration{pkg: mustPackage("cliargs"), strategy: "cupa-path", seed: 1, budget: 1000}
	first := &run{ex: ex, body: []byte("a\n")}
	same := &run{ex: ex, body: []byte("a\n")}
	differs := &run{ex: ex, body: []byte("b\n")}
	verify(workload{}, []*round{{runs: []*run{first, same}}, {runs: []*run{differs}}})
	if len(first.fails) != 0 || len(same.fails) != 0 {
		t.Errorf("identical runs failed: %v %v", first.fails, same.fails)
	}
	if len(differs.fails) != 1 || !strings.Contains(differs.fails[0], "differ") {
		t.Errorf("differing run: fails = %v", differs.fails)
	}
}

// TestFixedRoundMetrics: hl_tests and line_coverage cover each distinct
// exploration of the first rounds that hold more than 2*minBeyond
// explorations, and no later round.
func TestFixedRoundMetrics(t *testing.T) {
	var rounds []*round
	for i := 0; i < 4; i++ {
		rd := &round{wall: time.Second}
		for j := 0; j < 8; j++ {
			// Each round repeats its first exploration of round 0.
			seed := int64(8*i + j)
			if j == 0 {
				seed = 0
			}
			ex := exploration{pkg: mustPackage("cliargs"), strategy: "cupa-path", seed: seed, budget: 1}
			rd.runs = append(rd.runs, &run{ex: ex, wall: time.Second, tests: make([]symtest.SerializedTest, 1), coverage: 0.5})
		}
		rounds = append(rounds, rd)
	}
	m, _ := endToEndMetrics(rounds, []time.Duration{time.Millisecond}, 1)
	// Rounds 0-2 hold 24 > 20 explorations, 22 of them distinct.
	if got := m["hl_tests"].Value; got != 22 {
		t.Errorf("hl_tests = %v, want 22", got)
	}
	if got := m["line_coverage"].Value; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("line_coverage = %v, want 0.5", got)
	}
}

// tiny is a workload small enough for a unit test: cliargs at a small budget.
func tiny(serve bool) workload {
	return workload{
		name:  "tiny",
		pkgs:  []string{"cliargs"},
		serve: serve,
		round: func(rng *rand.Rand) []exploration {
			e := exploration{pkg: mustPackage("cliargs"), strategy: "cupa-path", seed: sessionSeed(rng), budget: 50_000}
			return []exploration{e, e}
		},
	}
}

func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

func TestMeasure(t *testing.T) {
	inTempDir(t)
	for _, serve := range []bool{false, true} {
		for _, traced := range []bool{false, true} {
			rec, err := measure(tiny(serve), 7, time.Nanosecond, traced, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("serve=%v traced=%v: %d of %d failed: %v", serve, traced, rec.Failed, rec.Attempted, rec.Failures)
			}
			names := endToEnd
			if traced {
				names = perLayer
			}
			if len(rec.Metrics) != len(names) {
				t.Errorf("serve=%v traced=%v: %d metrics, want %d", serve, traced, len(rec.Metrics), len(names))
			}
			for _, m := range names {
				got, ok := rec.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("serve=%v traced=%v: metric %s = %+v", serve, traced, m.name, got)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if rec.Metrics[m.name].Value <= 0 {
						t.Errorf("serve=%v: end-to-end metric %s = %v, want > 0", serve, m.name, rec.Metrics[m.name].Value)
					}
				}
				if rec.Tail == nil || !rec.Tail.OK || rec.Tail.Samples <= 2*minBeyond {
					t.Errorf("serve=%v: tail = %+v, want enough samples for a percentile at or above the median", serve, rec.Tail)
				}
			} else if rec.Metrics["solver.queries"].Value == 0 || rec.Metrics["lowlevel.runs"].Value == 0 {
				t.Errorf("serve=%v: traced run counted no work: %+v", serve, rec.Metrics)
			}
			if serve && traced {
				for _, name := range []string{"serve.job_s", "serve.submit_ms", "serve.tests_fetch_ms", "serve.tests_bytes", "serve.retained_heap_mb"} {
					if rec.Metrics[name].Value <= 0 {
						t.Errorf("%s = %v, want > 0", name, rec.Metrics[name].Value)
					}
				}
				if w := rec.Metrics["serve.queue_wait_s"].Value; w < 0 {
					t.Errorf("serve.queue_wait_s = %v, want >= 0", w)
				}
			}
		}
	}
	entries, err := os.ReadDir(scratchDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("runs left %d entries in %s", len(entries), scratchDir)
	}
}

func TestDiff(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, vals ...float64) string {
		var buf bytes.Buffer
		buf.WriteString("a human-readable line\n")
		for _, v := range vals {
			line, err := json.Marshal(record{
				Schema: schema, Workload: "table3-interp",
				Metrics: map[string]metric{"explore_p50_s": {v, "s"}},
				Spans:   []spanRow{{Layer: obs.SpanSolverBlast, SelfS: v / 2, TotalS: v / 2}},
			})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.jsonl", 1, 1, 1)
	b := write("b.jsonl", 2, 2, 2)
	var out bytes.Buffer
	if err := diff(&out, a, b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== table3-interp", "explore_p50_s", "span.solver.blast.self_s", "+100.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff output lacks %q:\n%s", want, out.String())
		}
	}
	if err := diff(&out, a, filepath.Join(dir, "missing")); err == nil {
		t.Error("diff of a missing file succeeded")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics and workloads the
// benchmark reports in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricName) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
