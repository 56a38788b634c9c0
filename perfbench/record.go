package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// schema tags a result record so -diff can find records among other lines.
const schema = "perfbench/v1"

// host describes where and on what code a record was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	// Commit and Dirty come from the build's version-control stamp;
	// "unknown" when the benchmark was built outside a git checkout.
	Commit string `json:"commit"`
	Dirty  string `json:"dirty"`
}

func describeHost() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Commit:     "unknown",
		Dirty:      "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value
			}
		}
	}
	return h
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// pkgInfo names a guest program and its language.
type pkgInfo struct {
	Name string `json:"name"`
	Lang string `json:"lang"`
}

// record is the self-describing result of one run, printed before the
// result line; -diff reads records back from saved outputs.
type record struct {
	Schema       string    `json:"schema"`
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Seconds      int       `json:"seconds"`
	Trace        bool      `json:"trace"`
	Host         host      `json:"host"`
	Packages     []pkgInfo `json:"packages"`
	Rounds       int       `json:"rounds"`
	Explorations int       `json:"explorations"`
	SetupSamples int       `json:"setup_samples"`
	// RepeatJobFrac is the share of serve-mixed jobs that repeat an earlier
	// spec of their round; WarmJobFrac the share that read solver work from
	// the store (a persist hit), which jobs of the same package at other
	// seeds also do.
	RepeatJobFrac float64   `json:"repeat_job_frac,omitempty"`
	WarmJobFrac   float64   `json:"warm_job_frac,omitempty"`
	Tail          *tail     `json:"explore_tail,omitempty"`
	Spans         []spanRow `json:"spans,omitempty"`
	// DominantLayer is the span layer with the most self time in the traced
	// rounds; ExpectedLayer is the one the workload was chosen to load.
	DominantLayer string            `json:"dominant_layer,omitempty"`
	ExpectedLayer string            `json:"expected_layer,omitempty"`
	Attempted     int               `json:"attempted"`
	Failed        int               `json:"failed"`
	Failures      []string          `json:"failures,omitempty"`
	Metrics       map[string]metric `json:"metrics"`
}

func packageInfo(names []string) []pkgInfo {
	out := make([]pkgInfo, len(names))
	for i, n := range names {
		p := mustPackage(n)
		out[i] = pkgInfo{Name: p.Name, Lang: p.Lang.String()}
	}
	return out
}

// readRecords returns every record in a file of JSON lines; other lines
// (a run's human-readable output) are skipped.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var r record
		if json.Unmarshal(line, &r) == nil && r.Schema == schema {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// samples groups record values by workload, then by metric. Span layers
// appear as span.<layer>.self_s and span.<layer>.total_s.
func samples(recs []record) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		m := out[r.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[r.Workload] = m
		}
		for name, v := range r.Metrics {
			m[name] = append(m[name], v.Value)
		}
		for _, s := range r.Spans {
			m["span."+s.Layer+".self_s"] = append(m["span."+s.Layer+".self_s"], s.SelfS)
			m["span."+s.Layer+".total_s"] = append(m["span."+s.Layer+".total_s"], s.TotalS)
		}
	}
	return out
}

// diff prints, per workload and metric, the median and quartiles of the
// records in two files and the change of the median from a to b.
func diff(w io.Writer, a, b string) error {
	ra, err := readRecords(a)
	if err != nil {
		return err
	}
	rb, err := readRecords(b)
	if err != nil {
		return err
	}
	if len(ra) == 0 || len(rb) == 0 {
		return fmt.Errorf("no %s records in %s or %s", schema, a, b)
	}
	sa, sb := samples(ra), samples(rb)
	var wls []string
	for wl := range sa {
		if sb[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	for _, wl := range wls {
		fmt.Fprintf(w, "== %s\n", wl)
		fmt.Fprintf(w, "%-26s %5s %12s %23s %5s %12s %23s %8s\n", "metric", "n", "a median", "a [q1, q3]", "n", "b median", "b [q1, q3]", "change")
		var names []string
		for name := range sa[wl] {
			if sb[wl][name] != nil {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			xa, xb := sa[wl][name], sb[wl][name]
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			change := "n/a"
			if a2 != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(b2/a2-1))
			}
			fmt.Fprintf(w, "%-26s %5d %12.6g [%10.4g, %10.4g] %5d %12.6g [%10.4g, %10.4g] %8s\n",
				name, len(xa), a2, a1, a3, len(xb), b2, b1, b3, change)
		}
	}
	return nil
}
